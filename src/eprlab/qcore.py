"""Finite-dimensional complex linear algebra for quantum states.

States, Hermitian observables, eigen-relations, commutators, Born-rule
measurement, and unitary time evolution, all dense and at desk scale
(dimensions up to a few dozen). Everything is immutable after
construction and safe to share between threads; randomness enters only
through explicitly passed generators.

Objects also hold lazily filled, read-only caches of work derived from
them: a Hermitian operator's eigendecomposition is computed on first
use and reused, a state keeps the Born law and outcome records of its
last measurement, and the Pauli operators are shared instances. Two
threads racing to fill a cache at worst compute the same value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .constants import HBAR

__all__ = [
    "StateVector",
    "LinearOperator",
    "MeasurementRecord",
    "BipartiteState",
    "EigenGroup",
    "apply",
    "expectation",
    "commutator",
    "is_eigenstate",
    "eigengroups",
    "measure_observable",
    "evolve",
    "tensor_product",
    "states_equal_up_to_phase",
    "identity",
    "sigma_x",
    "sigma_y",
    "sigma_z",
]

# Tolerance for the Hermitian-flag validation |M - M^dagger|.
HERMITIAN_ATOL = 1e-12

# Relative eigenvalue spacing below which eigenvalues count as degenerate
# and are merged into one outcome eigenspace.
DEGENERACY_RTOL = 1e-9


def _unit_amplitudes(values, ndim: int, what: str) -> np.ndarray:
    """values as a read-only complex array with ndim non-empty axes,
    divided by its norm. Non-finite or all-zero values are rejected."""
    amps = np.array(values, dtype=complex)
    if amps.ndim != ndim or 0 in amps.shape:
        raise ValueError(f"{what} amplitudes must be a non-empty {ndim}D array")
    if not np.all(np.isfinite(amps.view(float))):
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError(f"cannot normalize a zero {what}")
    amps = amps / norm
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a finite basis.

    Amplitudes are renormalized on construction, so the sum of squared
    magnitudes is 1 to machine precision. A zero vector is rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _unit_amplitudes(self.amplitudes, 1, "state vector")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: StateVector) -> complex:
        """<self|other> with the conjugate on self."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Square complex matrix, optionally flagged (and checked) Hermitian."""

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        if self.hermitian:
            deviation = np.max(np.abs(mat - mat.conj().T))
            if deviation > HERMITIAN_ATOL:
                raise ValueError(
                    f"hermitian flag set but |M - M^dagger| reaches {deviation:.3e}"
                )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors (columns), read-only."""
        values, vectors = np.linalg.eigh(self.entries)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    @cached_property
    def _eigengroups(self) -> tuple[EigenGroup, ...]:
        return _cluster(*self._spectrum)

    def kron(self, other: LinearOperator) -> LinearOperator:
        """Tensor (Kronecker) product acting on the joint space."""
        return LinearOperator(
            np.kron(self.entries, other.entries),
            hermitian=self.hermitian and other.hermitian,
        )


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One projective measurement outcome: value, its probability, and
    the renormalized post-measurement state."""

    eigenvalue: float
    probability: float
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Joint state of two subsystems as a dI x dII amplitude matrix.

    Rows index subsystem one, columns subsystem two. The Frobenius norm
    is fixed to 1 on construction. measurement.expand_bipartite keeps
    the state's expansion in the last observable it was expanded in on
    the instance.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = _unit_amplitudes(self.amps, 2, "bipartite state")
        object.__setattr__(self, "amps", amps)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape  # type: ignore[return-value]

    def flatten(self) -> StateVector:
        """Joint state as a single vector over the product basis."""
        return StateVector(self.amps.reshape(-1))

    def schmidt_coefficients(self) -> np.ndarray:
        """Singular values of the amplitude matrix, descending.

        Exactly one nonzero coefficient means a product state; more than
        one means entanglement.
        """
        return np.linalg.svd(self.amps, compute_uv=False)


class EigenGroup(NamedTuple):
    """One eigenspace of a Hermitian operator after degeneracy clustering."""

    value: float
    basis: np.ndarray  # (dim, multiplicity), orthonormal columns


def _require_same_dim(op: LinearOperator, s: StateVector) -> None:
    if op.dim != s.dim:
        raise ValueError(
            f"operator dimension {op.dim} does not match state dimension {s.dim}"
        )


def apply(op: LinearOperator, s: StateVector) -> np.ndarray:
    """Apply the operator to the state, returning the raw image M @ s.

    The result is deliberately not renormalized (it is generally not a
    unit vector); the caller decides what to do with it.
    """
    _require_same_dim(op, s)
    return op.entries @ s.amplitudes


def expectation(op: LinearOperator, s: StateVector) -> complex:
    """<s|M|s>. Real up to roundoff whenever the operator is Hermitian."""
    _require_same_dim(op, s)
    return complex(np.vdot(s.amplitudes, op.entries @ s.amplitudes))


def commutator(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """AB - BA. Anti-Hermitian for Hermitian inputs, so the flag is unset."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return LinearOperator(a.entries @ b.entries - b.entries @ a.entries)


def is_eigenstate(
    op: LinearOperator, s: StateVector, tol: float
) -> complex | None:
    """Return the eigenvalue if s is an eigenvector of op within tol.

    The candidate eigenvalue is <s|M|s>; the state qualifies when the
    residual |M s - lambda s| does not exceed tol (s has unit norm).
    Returns None otherwise; a non-eigenstate is a result, not an error.
    """
    _require_same_dim(op, s)
    image = op.entries @ s.amplitudes
    lam = complex(np.vdot(s.amplitudes, image))
    residual = float(np.linalg.norm(image - lam * s.amplitudes))
    if residual <= tol:
        return lam
    return None


def _cluster(values: np.ndarray, vectors: np.ndarray) -> tuple[EigenGroup, ...]:
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    gap = DEGENERACY_RTOL * scale
    groups = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > gap:
            block = vectors[:, start:i]
            groups.append(EigenGroup(float(np.mean(values[start:i])), block))
            start = i
    return tuple(groups)


def eigengroups(op: LinearOperator) -> list[EigenGroup]:
    """Eigen-decompose a Hermitian operator into clustered eigenspaces.

    Eigenvalues closer than DEGENERACY_RTOL * max|eigenvalue| are merged
    into one group, because Born probabilities belong to eigenspaces,
    not to the arbitrary eigenvectors a solver picks inside a degenerate
    block.
    Groups are returned in ascending eigenvalue order. The operator's
    decomposition is computed once and its bases are read-only.
    """
    if not op.hermitian:
        raise ValueError("eigen-decomposition by eigenspace requires a Hermitian operator")
    return list(op._eigengroups)


def born_cdf(probs: np.ndarray) -> np.ndarray:
    """Read-only CDF of normalized probabilities, as Generator.choice builds it."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def born_draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One outcome from one uniform, as Generator.choice(n, p=probs) draws it."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def born_projections(
    op: LinearOperator, amps: np.ndarray
) -> list[tuple[np.ndarray, float]]:
    """The coordinate block basis^dagger @ amps of each eigengroup of op,
    in ascending order, with its squared norm: the one place a Born
    weight is computed. amps is a state vector, or a joint amplitude
    matrix whose rows span the system op acts on.
    """
    blocks = [g.basis.conj().T @ amps for g in op._eigengroups]
    return [(block, float(np.sum(np.abs(block) ** 2))) for block in blocks]


def measure_observable(
    op: LinearOperator, s: StateVector, rng: np.random.Generator
) -> MeasurementRecord:
    """Projective Born-rule measurement of a Hermitian observable.

    The outcome eigenvalue is sampled with probability equal to the
    squared norm of the state's projection onto the corresponding
    eigenspace; the post-measurement state is that projection,
    renormalized. The state keeps the Born law and the shared, immutable
    outcome records of its last observable, so a repeat costs one draw.
    """
    if not op.hermitian:
        raise ValueError("measurement requires a Hermitian observable")
    _require_same_dim(op, s)
    last = vars(s).get("_last_measurement")
    if last is None or last[0] is not op:
        coords, weights = zip(*born_projections(op, s.amplitudes))
        probs = np.array(weights)
        probs /= probs.sum()
        last = (op, coords, probs, born_cdf(probs), [None] * len(coords))
        vars(s)["_last_measurement"] = last
    _, coords, probs, cdf, records = last
    k = born_draw(cdf, rng)
    if records[k] is None:
        group = op._eigengroups[k]
        post = StateVector(group.basis @ coords[k])
        records[k] = MeasurementRecord(group.value, float(probs[k]), post)
    return records[k]


def evolve(h: LinearOperator, t: float, s: StateVector) -> StateVector:
    """Evolve the state for time t under a Hermitian Hamiltonian.

    Computes exp(-i H t / hbar) s through the eigen-decomposition of H;
    the norm is preserved to machine precision.
    """
    if not h.hermitian:
        raise ValueError("time evolution requires a Hermitian Hamiltonian")
    _require_same_dim(h, s)
    values, vectors = h._spectrum
    phases = np.exp(-1j * values * t / HBAR)
    evolved = vectors @ (phases * (vectors.conj().T @ s.amplitudes))
    return StateVector(evolved)


def tensor_product(s_i: StateVector, s_ii: StateVector) -> BipartiteState:
    """Product state of two subsystems as a bipartite amplitude matrix."""
    return BipartiteState(np.outer(s_i.amplitudes, s_ii.amplitudes))


def states_equal_up_to_phase(
    s1: StateVector, s2: StateVector, tol: float = 1e-10
) -> bool:
    """Whether two states coincide once the physically meaningless global
    phase is removed, i.e. |<s1|s2>| = 1 within tol."""
    if s1.dim != s2.dim:
        return False
    return bool(1.0 - abs(s1.inner(s2)) <= tol)


def identity(dim: int) -> LinearOperator:
    return LinearOperator(np.eye(dim, dtype=complex), hermitian=True)


@cache
def sigma_x() -> LinearOperator:
    """Pauli x, one shared instance built on first use."""
    return LinearOperator(np.array([[0, 1], [1, 0]], dtype=complex), hermitian=True)


@cache
def sigma_y() -> LinearOperator:
    """Pauli y, one shared instance built on first use."""
    return LinearOperator(np.array([[0, -1j], [1j, 0]], dtype=complex), hermitian=True)


@cache
def sigma_z() -> LinearOperator:
    """Pauli z, one shared instance built on first use."""
    return LinearOperator(np.array([[1, 0], [0, -1]], dtype=complex), hermitian=True)
