"""Numerical laboratory for entangled-pair thought experiments.

qcore: states, Hermitian observables, Born-rule measurement.
measurement: bipartite expansion, collapse, remote-state extraction,
    and the simultaneous-eigenstate completeness check.
hydrogen: orbital wavefunctions and expectation values by quadrature.
eprpair: the regularized continuous two-particle state on grids.
spinlab: singlet statistics under rival source models, CHSH, the
    switch protocol, and the untangle map.
cli: seeded, reproducible experiment runner.
"""

from eprlab.constants import BOHR_RADIUS, ELECTRON_MASS, HBAR
from eprlab.eprpair import (
    Distribution1D,
    EprConfig,
    GridFunction,
    build_epr_state,
    condition_on_momentum,
    condition_on_position,
    momentum_representation,
    relative_coordinate_marginal,
)
from eprlab.grids import UniformGrid1D, UniformGrid2D
from eprlab.hydrogen import (
    Orbital,
    RadialGrid,
    eval_orbital,
    expect_r,
    expect_radial_p_ground,
    grid_commutator_check,
    orbital_overlap,
    orthonormality_table,
)
from eprlab.measurement import (
    ExpansionResult,
    expand_bipartite,
    measure_subsystem,
    remote_state_pair,
    simultaneous_eigenstate_check,
)
from eprlab.qcore import (
    BipartiteState,
    LinearOperator,
    MeasurementRecord,
    StateVector,
    apply,
    commutator,
    eigengroups,
    evolve,
    expectation,
    identity,
    is_eigenstate,
    measure_observable,
    sigma_x,
    sigma_y,
    sigma_z,
    tensor_product,
)
from eprlab.rng import make_stream
from eprlab.spinlab import (
    AnalyzerSetting,
    PairCounts,
    PairOutcome,
    PreassignedDefinite,
    QuantumEntangled,
    SwitchReport,
    pair_counts_blocked,
    sample_pair,
    singlet,
    spin_operator,
    switch_protocol_blocked,
    untangle,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSetting",
    "BipartiteState",
    "BOHR_RADIUS",
    "Distribution1D",
    "ELECTRON_MASS",
    "EprConfig",
    "ExpansionResult",
    "GridFunction",
    "HBAR",
    "LinearOperator",
    "MeasurementRecord",
    "Orbital",
    "PairCounts",
    "PairOutcome",
    "PreassignedDefinite",
    "QuantumEntangled",
    "RadialGrid",
    "StateVector",
    "SwitchReport",
    "UniformGrid1D",
    "UniformGrid2D",
    "apply",
    "build_epr_state",
    "commutator",
    "condition_on_momentum",
    "condition_on_position",
    "eigengroups",
    "eval_orbital",
    "evolve",
    "expand_bipartite",
    "expect_r",
    "expect_radial_p_ground",
    "expectation",
    "grid_commutator_check",
    "identity",
    "is_eigenstate",
    "make_stream",
    "measure_observable",
    "measure_subsystem",
    "momentum_representation",
    "orbital_overlap",
    "orthonormality_table",
    "pair_counts_blocked",
    "relative_coordinate_marginal",
    "remote_state_pair",
    "sample_pair",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "simultaneous_eigenstate_check",
    "singlet",
    "spin_operator",
    "switch_protocol_blocked",
    "tensor_product",
    "untangle",
]
