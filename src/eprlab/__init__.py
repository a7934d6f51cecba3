"""Numerical laboratory for entangled-pair thought experiments.

qcore: states, Hermitian observables, Born-rule measurement.
measurement: bipartite expansion, collapse, remote-state extraction,
    and the simultaneous-eigenstate completeness check.
hydrogen: orbital wavefunctions and expectation values by quadrature.
eprpair: the regularized continuous two-particle state on grids.
spinlab: singlet statistics under rival source models, CHSH, the
    switch protocol, and the untangle map.
grids: the uniform 1D and 2D grids the continuous states live on.
rng: seeded random-stream derivation.
constants: physical constants in atomic units.

The package re-exports every name in these modules' __all__, so each
public name is declared once, in the module that defines it.
cli, the seeded experiment runner, is not imported by import eprlab.
"""

from . import constants, eprpair, grids, hydrogen, measurement, qcore, rng, spinlab
from .constants import *
from .eprpair import *
from .grids import *
from .hydrogen import *
from .measurement import *
from .qcore import *
from .rng import *
from .spinlab import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (constants, eprpair, grids, hydrogen, measurement, qcore, rng, spinlab)
    for name in module.__all__
)
