"""Physical constants and unit helpers.

All library interfaces take SI units (m, F, V/m, J).  The CLI converts
from the config units (um for geometry, nm for oxides, fF for capacitance).
"""

EPS0 = 8.8541878128e-12  # vacuum permittivity [F/m]

UM = 1e-6
NM = 1e-9
FF = 1e-15
GHZ = 1e9

# Values the command-line parser needs, kept here so that building it
# imports neither the solver package nor NumPy.

#: the verify suites, in the order `surfloss.bem.suites` dispatches them
SUITES = ("coax", "flat-coax", "corner", "ribbon-ground", "cyl-wire",
          "flat-wire")

#: fewest wire sections that give a converged TLS spectrum, and the most a
#: spectrum may take: at 1e7 a `tls` run peaks near 0.25 GB
MIN_SECTIONS = 10_000
MAX_SECTIONS = 10_000_000
