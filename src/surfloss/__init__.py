"""surfloss: surface dielectric loss and TLS design toolkit for
superconducting transmon capacitors and junction wires.

Closed-form participation ratios for the standard capacitor geometries
(parallel plate, ribbon, coplanar, ribbon with ground, straight/tapered
junction wires), cross-verified by built-in surface-charge solvers, plus
two-level-state splitting spectra.

Importing the package, or its command line, loads neither NumPy nor
SciPy: the closed forms run on ``math``, so `analyze` needs neither.
The `tls`, `sweep`, `taper` and `verify` commands load NumPy, through
``surfloss.tls``, ``surfloss.bem`` or the array helpers of
``surfloss.analytic``.  Only `verify` loads SciPy, inside the functions
that call it (BEM solves and the vectorized elliptic integral); the
quadratures run on ``surfloss._quadpack``.
"""

from .constants import EPS0
from .geometry import (Coplanar, DesignAssembly, DielectricStack,
                       ParallelPlate, ParticipationBreakdown, Ribbon,
                       RibbonWithGround, StraightWire, TaperedWire,
                       ValidationError, assemble_design,
                       capacitance_to_length, interface_weights)
from .special import ck_ratio, ellipk, ellipkp

__version__ = "0.1.0"

__all__ = [
    "EPS0", "__version__",
    "Coplanar", "DesignAssembly", "DielectricStack", "ParallelPlate",
    "ParticipationBreakdown", "Ribbon", "RibbonWithGround", "StraightWire",
    "TaperedWire", "ValidationError", "assemble_design",
    "capacitance_to_length", "interface_weights",
    "ck_ratio", "ellipk", "ellipkp",
]
