"""surfloss: surface dielectric loss and TLS design toolkit for
superconducting transmon capacitors and junction wires.

Closed-form participation ratios for the standard capacitor geometries
(parallel plate, ribbon, coplanar, ribbon with ground, straight/tapered
junction wires), cross-verified by built-in surface-charge solvers, plus
two-level-state splitting spectra.

Importing the package, or its command line, loads neither NumPy nor
SciPy: the closed forms run on ``math``, so `analyze` needs neither, and
`taper` and `sweep` add only the quadratures of ``surfloss._quadpack``.
The `tls` and `verify` commands load NumPy, through ``surfloss.tls`` or
``surfloss.bem``.  Only `verify` loads SciPy, inside the functions that
call it (BEM solves and the vectorized elliptic integral).
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
