"""Bipartite expansion, collapse, and the completeness criterion.

A joint state of systems I and II is expanded in the eigenbasis of an
observable on system I; measuring that observable collapses the joint
state and leaves system II in a definite remote state. Expanding the
same joint state in two different eigenbases yields two different
remote-state assignments for the same unmeasured system, which is the
tension these tools are built to exhibit. An expansion keeps one entry
per outcome: the eigenspace, its coefficient block over system II and
the block's Born weight, as qcore.born_projections computes them.

Expansions and collapses are memoized on the immutable objects they
come from: a joint state keeps its expansion in the last observable it
was expanded in, and an expansion keeps its outcome CDF and each
outcome's measurement, so a per-shot measurement costs one uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qcore import (
    BipartiteState,
    EigenGroup,
    LinearOperator,
    StateVector,
    born_cdf,
    born_draw,
    born_projections,
    eigengroups,
    is_eigenstate,
)

__all__ = [
    "ExpansionResult",
    "SubsystemMeasurement",
    "SimultaneityReport",
    "expand_bipartite",
    "measure_subsystem",
    "remote_state_pair",
    "simultaneous_eigenstate_check",
]

# Singular values below this fraction of the largest are treated as zero
# when deciding whether a degenerate outcome leaves a product state.
RANK_RTOL = 1e-9


class SubsystemMeasurement(NamedTuple):
    """Result of measuring an observable on system I of a joint state."""

    eigenvalue: float
    collapsed: BipartiteState
    remote: StateVector


@dataclass(frozen=True, eq=False)
class ExpansionResult:
    """Expansion of a joint state in a subsystem-I eigenbasis, one entry
    per outcome.

    Outcome g is the eigenspace groups[g] of the measured observable,
    degenerate eigenvalues clustered into one group, in ascending order.
    Its read-only coefficient block coefficients[g] has one unnormalized
    system-II row per basis column of the eigenspace, so the joint
    amplitudes are the sum over g of groups[g].basis @ coefficients[g].
    group_probabilities[g], the block's squared norm, is the Born
    probability of eigenvalue group_eigenvalues[g].
    """

    groups: tuple[EigenGroup, ...]
    coefficients: tuple[np.ndarray, ...]
    group_probabilities: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return len(self.groups)

    @cached_property
    def group_eigenvalues(self) -> np.ndarray:
        values = np.array([g.value for g in self.groups])
        values.setflags(write=False)
        return values

    def reconstruct(self) -> np.ndarray:
        """Sum of basis @ block over the outcomes; equals the input amps."""
        return sum(g.basis @ c for g, c in zip(self.groups, self.coefficients))

    @cached_property
    def outcome_probabilities(self) -> np.ndarray:
        """group_probabilities renormalized to sum to 1, for sampling."""
        probs = self.group_probabilities / self.group_probabilities.sum()
        probs.setflags(write=False)
        return probs

    @cached_property
    def _outcome_cdf(self) -> np.ndarray:
        return born_cdf(self.outcome_probabilities)

    @cached_property
    def _measurements(self) -> list[SubsystemMeasurement | None]:
        return [None] * self.n_outcomes

    def measurement(self, outcome: int) -> SubsystemMeasurement:
        """Eigenvalue, collapsed joint state and remote state of one
        outcome group, worked out on first request and then reused."""
        memo = self._measurements
        found = memo[outcome]
        if found is None:
            remote = self._remote_state(outcome)
            collapsed = BipartiteState(
                self.groups[outcome].basis @ self.coefficients[outcome]
            )
            found = SubsystemMeasurement(
                float(self.group_eigenvalues[outcome]), collapsed, remote
            )
            memo[outcome] = found
        return found

    def remote_state(self, outcome: int) -> StateVector:
        """Normalized system-II state left by the given outcome group.

        For a one-dimensional eigenspace this is the normalized
        coefficient vector. A degenerate outcome only admits a remote
        state when the projected joint state is still a product; if it
        is not, system II stays entangled with system I and the request
        is an error.
        """
        return self.measurement(outcome).remote

    def _remote_state(self, outcome: int) -> StateVector:
        block = self.coefficients[outcome]
        if float(np.linalg.norm(block)) <= 1e-15:
            raise ValueError(f"outcome {outcome} has zero probability")
        if block.shape[0] == 1:
            return StateVector(block[0])
        _, singular, vh = np.linalg.svd(block)
        if singular[1] > RANK_RTOL * singular[0]:
            raise ValueError(
                "degenerate outcome leaves system II entangled with system I; "
                "no single remote state exists"
            )
        # Rank one: every row of the block is a multiple of vh[0].
        return StateVector(vh[0])


@dataclass(frozen=True, eq=False)
class SimultaneityReport:
    """Whether one state is an eigenstate of two observables at once."""

    is_simultaneous: bool
    eigen_a: float | None
    eigen_b: float | None


def _check_subsystem_op(psi: BipartiteState, a: LinearOperator) -> None:
    if not a.hermitian:
        raise ValueError("subsystem observable must be Hermitian")
    if a.dim != psi.dims[0]:
        raise ValueError(
            f"observable dimension {a.dim} does not match subsystem I "
            f"dimension {psi.dims[0]}"
        )


def expand_bipartite(psi: BipartiteState, a: LinearOperator) -> ExpansionResult:
    """Expand the joint amplitudes in the eigenbasis of an observable on I.

    Writes amps = sum_g U_g @ C_g with U_g the orthonormal basis of
    eigenspace g of a and C_g = U_g^dagger @ amps its coefficient block;
    the squared norm of C_g is the Born probability of that eigenspace.
    The state keeps its expansion in the last observable it was expanded
    in, so repeats return the same read-only result.
    """
    _check_subsystem_op(psi, a)
    last = vars(psi).get("_last_expansion")
    if last is not None and last[0] is a:
        return last[1]
    blocks, weights = zip(*born_projections(a, psi.amps))
    for block in blocks:
        block.setflags(write=False)
    group_probabilities = np.array(weights)
    group_probabilities.setflags(write=False)
    result = ExpansionResult(
        groups=tuple(eigengroups(a)),
        coefficients=blocks,
        group_probabilities=group_probabilities,
    )
    # One slot, not a map: a shared state such as the singlet meets a
    # new operator for every analyzer setting.
    vars(psi)["_last_expansion"] = (a, result)
    return result


def measure_subsystem(
    psi: BipartiteState, a: LinearOperator, rng: np.random.Generator
) -> SubsystemMeasurement:
    """Born-rule measurement of an observable on system I.

    Samples an outcome eigenspace with its expansion probability,
    projects the joint state onto it (renormalized), and extracts the
    remote system-II state the collapse leaves behind. The expansion, its
    outcome CDF and each collapse are memoized, so repeated shots on the
    same (psi, a) cost one uniform each, drawn as Generator.choice would.
    """
    expansion = expand_bipartite(psi, a)
    return expansion.measurement(born_draw(expansion._outcome_cdf, rng))


def remote_state_pair(
    psi: BipartiteState,
    a: LinearOperator,
    b: LinearOperator,
    outcome_a: int,
    outcome_b: int,
) -> tuple[StateVector, StateVector]:
    """The two remote system-II states from two rival expansions.

    Expanding the same joint state in the eigenbases of two different
    system-I observables assigns system II one state per expansion;
    for chosen outcome indices (ascending eigenvalue order) this
    returns both assignments side by side.
    """
    exp_a = expand_bipartite(psi, a)
    exp_b = expand_bipartite(psi, b)
    if not 0 <= outcome_a < exp_a.n_outcomes:
        raise ValueError(
            f"outcome_a {outcome_a} out of range for {exp_a.n_outcomes} outcomes"
        )
    if not 0 <= outcome_b < exp_b.n_outcomes:
        raise ValueError(
            f"outcome_b {outcome_b} out of range for {exp_b.n_outcomes} outcomes"
        )
    return exp_a.remote_state(outcome_a), exp_b.remote_state(outcome_b)


def simultaneous_eigenstate_check(
    s: StateVector, a: LinearOperator, b: LinearOperator, tol: float
) -> SimultaneityReport:
    """Test whether one state has definite values for both observables.

    A state counts as simultaneous when it is an eigenstate of both a
    and b within tol. For non-commuting observables no state passes;
    for commuting ones every common eigenvector does.
    """
    if not (a.hermitian and b.hermitian):
        raise ValueError("both observables must be Hermitian")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lam_a = is_eigenstate(a, s, tol)
    lam_b = is_eigenstate(b, s, tol)
    return SimultaneityReport(
        is_simultaneous=lam_a is not None and lam_b is not None,
        eigen_a=None if lam_a is None else float(lam_a.real),
        eigen_b=None if lam_b is None else float(lam_b.real),
    )
