"""Singlet pairs, rival source hypotheses, and their measurable statistics.

Two models of the same two-particle source are implemented side by side.
QuantumEntangled keeps each pair in the singlet state until a
measurement collapses it; PreassignedDefinite hands each pair a definite
product configuration (electron up / positron down along z, or the
reverse, each half the time) at the moment of separation. At parallel
analyzer settings the two are statistically indistinguishable; the
correlation machinery, CHSH statistic, spin-switch protocol, and
untangle transformation below make their differences (and claimed
differences) measurable.

The preassigned model needs a measurement rule for analyzers tilted away
from the source axis, which its definition leaves open. The default
completes it deterministically: outcome = sign of the analyzer direction
projected onto the particle's definite axis, ties broken toward +1. A
probabilistic completion (projection probabilities, cos^2(theta/2)) is
available as the labeled "probabilistic" rule; the two are never mixed.

Every tally is drawn one way: all n pairs are one multinomial (binomial
for the switch protocol and untangle) from the setting's exact law,
drawn from one stream of the seed, so a fixed seed reproduces every
count. A sum of independent multinomials with one law is a multinomial
with that law, so no split of n would sample anything a single draw
does not.
sample_pair and untangle are the per-pair reference routes the tallies
are checked against. An analyzer setting builds its spin operator once,
singlet() is one shared state, and its remote states keep their last
measurement, so an entangled sample_pair call is two memoized Born draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from .measurement import expand_bipartite, measure_subsystem
from .qcore import (
    BipartiteState,
    LinearOperator,
    born_projections,
    measure_observable,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .rng import make_stream

__all__ = [
    "QuantumEntangled",
    "PreassignedDefinite",
    "PairModel",
    "AnalyzerSetting",
    "PairOutcome",
    "PairCounts",
    "SwitchReport",
    "singlet",
    "spin_operator",
    "sample_pair",
    "pair_counts_blocked",
    "chsh_blocked",
    "joint_law",
    "switch_protocol_blocked",
    "untangle",
    "untangle_branches",
    "untangle_counts",
    "DEFAULT_BLOCK_SIZE",
]

# Used by no sampler; kept because the benchmark's layer probes read it.
DEFAULT_BLOCK_SIZE = 65536

SWITCH_MODES = ("predicted", "mechanistic")

P2_RULES = ("deterministic", "probabilistic")

# S = E(a,b) - E(a,b2) + E(a2,b) + E(a2,b2), one term a row: the
# electron's and the positron's index into (a, a2, b, b2), then the sign.
CHSH_TERMS = ((0, 2, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 3, 1.0))

MECHANISTIC_DIVERGENCE_NOTE = (
    "mechanistic collapse: the electron anti-correlates with the positron's "
    "pre-flip value, so electron-up comes out 1/2 instead of the predicted-"
    "table value 1.0"
)


@dataclass(frozen=True)
class QuantumEntangled:
    """Source hypothesis 1: each pair stays in the singlet until measured."""


@dataclass(frozen=True)
class PreassignedDefinite:
    """Source hypothesis 2: each pair separates with definite opposite
    spins along the source z-axis, each assignment with probability 1/2."""

    rule: str = "deterministic"

    def __post_init__(self) -> None:
        if self.rule not in P2_RULES:
            raise ValueError(f"rule must be one of {P2_RULES}, got {self.rule!r}")


PairModel = Union[QuantumEntangled, PreassignedDefinite]


# (cos, sin) at 0, 90, 180 and 270 degrees.
_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def _cos_sin_degrees(angle: float) -> tuple[float, float]:
    """cos and sin of an angle in degrees; exact at multiples of 90."""
    quarters, rest = divmod(angle, 90.0)
    if rest == 0.0:
        return _QUARTER_TURNS[int(quarters) % 4]
    radians = np.deg2rad(angle)
    return np.cos(radians), np.sin(radians)


@dataclass(frozen=True, eq=False)
class AnalyzerSetting:
    """Measurement direction as a unit vector in 3-space."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vector, dtype=float)
        if v.shape != (3,):
            raise ValueError("analyzer setting must be a 3-vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("analyzer setting must be finite")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("analyzer setting must be a unit vector")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @classmethod
    def from_angles(cls, polar: float, azimuthal: float) -> AnalyzerSetting:
        """Unit vector from polar and azimuthal angles in radians."""
        return cls(
            np.array(
                [
                    np.sin(polar) * np.cos(azimuthal),
                    np.sin(polar) * np.sin(azimuthal),
                    np.cos(polar),
                ]
            )
        )

    @classmethod
    def from_degrees(cls, polar: float, azimuthal: float) -> AnalyzerSetting:
        """Unit vector from polar and azimuthal angles in degrees.

        As from_angles, except that an angle at a multiple of 90 degrees
        has an exact cosine and sine, 0 or +-1: an analyzer at polar 90
        has z-component 0, not cos(pi / 2) = 6.1e-17, so the preassigned
        model's tie-break decides its sign.
        """
        cos_polar, sin_polar = _cos_sin_degrees(polar)
        cos_azimuthal, sin_azimuthal = _cos_sin_degrees(azimuthal)
        return cls(
            np.array(
                [sin_polar * cos_azimuthal, sin_polar * sin_azimuthal, cos_polar]
            )
        )

    def dot(self, other: AnalyzerSetting) -> float:
        return float(self.vector @ other.vector)

    @cached_property
    def _operator(self) -> LinearOperator:
        """Spin observable a . sigma along this direction, built once."""
        ax, ay, az = self.vector
        entries = (
            ax * sigma_x().entries + ay * sigma_y().entries + az * sigma_z().entries
        )
        return LinearOperator(entries, hermitian=True)


@dataclass(frozen=True)
class PairOutcome:
    """One measured pair: electron and positron readings, each +1 or -1."""

    electron: int
    positron: int

    def __post_init__(self) -> None:
        if self.electron not in (-1, 1) or self.positron not in (-1, 1):
            raise ValueError("outcomes must be +1 or -1")

    @property
    def product(self) -> int:
        return self.electron * self.positron


@dataclass(frozen=True)
class PairCounts:
    """Exact integer tallies of the four joint outcomes."""

    up_up: int = 0
    up_down: int = 0
    down_up: int = 0
    down_down: int = 0

    @property
    def n_pairs(self) -> int:
        return self.up_up + self.up_down + self.down_up + self.down_down

    @property
    def correlation(self) -> float:
        """Mean of electron times positron."""
        if self.n_pairs == 0:
            raise ValueError("no pairs counted")
        same = self.up_up + self.down_down
        opposite = self.up_down + self.down_up
        return (same - opposite) / self.n_pairs


@dataclass(frozen=True)
class SwitchReport:
    """Outcome frequencies of the spin-switch protocol."""

    n_pairs: int
    n_electron_up: int
    n_positron_down: int
    note: str = ""

    @property
    def p_electron_up(self) -> float:
        return self.n_electron_up / self.n_pairs

    @property
    def p_positron_down(self) -> float:
        return self.n_positron_down / self.n_pairs


@cache
def singlet() -> BipartiteState:
    """The two-spin singlet (up down - down up) / sqrt(2), one shared
    instance built on first use."""
    amps = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
    return BipartiteState(amps)


def spin_operator(setting: AnalyzerSetting) -> LinearOperator:
    """Spin observable along the analyzer direction: a . sigma, the
    setting's own cached instance."""
    return setting._operator


def _sign_plus(x: float) -> int:
    """Deterministic sign with ties at zero broken toward +1."""
    return 1 if x >= 0.0 else -1


def sample_pair(
    model: PairModel,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    rng: np.random.Generator,
) -> PairOutcome:
    """Measure one pair: electron along a, then positron along b.

    The entangled model measures the electron factor of the singlet and
    collapses the joint state, then measures the positron on the remote
    state the collapse left. The preassigned model draws the hidden
    configuration and applies its measurement rule to each particle
    independently.
    """
    if isinstance(model, QuantumEntangled):
        first = measure_subsystem(singlet(), spin_operator(a), rng)
        second = measure_observable(spin_operator(b), first.remote, rng)
        return PairOutcome(_sign_plus(first.eigenvalue), _sign_plus(second.eigenvalue))
    config = 1 if rng.random() < 0.5 else -1
    az = float(a.vector[2])
    bz = float(b.vector[2])
    if model.rule == "deterministic":
        return PairOutcome(_sign_plus(config * az), _sign_plus(-config * bz))
    p_e = (1.0 + config * az) / 2.0
    p_p = (1.0 - config * bz) / 2.0
    electron = 1 if rng.random() < p_e else -1
    positron = 1 if rng.random() < p_p else -1
    return PairOutcome(electron, positron)


def joint_law(
    model: PairModel, a: AnalyzerSetting, b: AnalyzerSetting
) -> np.ndarray:
    """Exact probabilities of (up_up, up_down, down_up, down_down), the
    electron measured along a and the positron along b.

    Entangled: the expansion probability of each electron outcome along
    a times the Born probabilities of b's eigenspaces on the remote
    state it leaves, as sample_pair collapses. Preassigned: the 1/2-1/2
    mixture over the hidden configuration of the model's rule, the sign
    rule giving probabilities of exactly 0 or 1.
    """
    if isinstance(model, QuantumEntangled):
        electron = expand_bipartite(singlet(), spin_operator(a))
        law = []
        for k in (1, 0):  # electron up, then electron down
            remote = electron.remote_state(k).amplitudes
            (_, down_b), (_, up_b) = born_projections(spin_operator(b), remote)
            law += [electron.group_probabilities[k] * w for w in (up_b, down_b)]
        return np.array(law)
    az, bz = np.clip([a.vector[2], b.vector[2]], -1.0, 1.0)
    law = np.zeros(4)
    for config in (1, -1):
        if model.rule == "deterministic":
            p_e = float(config * az >= 0.0)
            p_p = float(-config * bz >= 0.0)
        else:
            p_e = (1.0 + config * az) / 2.0
            p_p = (1.0 - config * bz) / 2.0
        law += 0.5 * np.outer([p_e, 1.0 - p_e], [p_p, 1.0 - p_p]).ravel()
    return law


def _check_samples(n: int) -> None:
    """Every sampler's check of n."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")


def pair_counts_blocked(
    model: PairModel,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    n: int,
    seed: int,
    *,
    workers: int = 1,  # changes nothing; bench/layers.py passes workers=2
    stream_offset: int = 0,
) -> PairCounts:
    """Tally n pairs, the electron measured along a and the positron
    along b.

    The joint law is worked out once, and the four tallies are one
    multinomial draw of n from the stream of (seed, stream_offset).
    """
    _check_samples(n)
    law = joint_law(model, a, b)
    return PairCounts(*map(int, make_stream(seed, stream_offset).multinomial(n, law)))


def chsh_blocked(
    model: PairModel,
    a: AnalyzerSetting,
    a2: AnalyzerSetting,
    b: AnalyzerSetting,
    b2: AnalyzerSetting,
    n: int,
    seed: int,
) -> tuple[PairCounts, PairCounts, PairCounts, PairCounts]:
    """Tallies of the four CHSH correlations, n pairs each, in
    CHSH_TERMS order; term j draws from stream j of the seed."""
    settings = (a, a2, b, b2)
    return tuple(
        pair_counts_blocked(model, settings[e], settings[p], n, seed, stream_offset=j)
        for j, (e, p, _sign) in enumerate(CHSH_TERMS)
    )


def _switch_electron_up(model: PairModel, mode: str) -> float:
    """Probability that the switch protocol detects the electron up.

    predicted mode is the protocol's claimed outcome table: electron up
    every time for the entangled source, half the time for the
    preassigned one. mechanistic mode simulates the device: it measures
    the positron along z, flips up to down before detection, and only
    then is the electron measured along z, which gives the electron
    marginal of the z-z joint law. Either way the positron is detected
    down every time.
    """
    if isinstance(model, PreassignedDefinite):
        # Either mode: the electron keeps the definite value its hidden
        # configuration gave it.
        return 0.5
    if mode == "predicted":
        return 1.0
    # Mechanistic: the positron, measured first along z, collapses the
    # singlet; the flip changes the detected positron value, not the
    # collapsed state the electron is then measured on. Measurements on
    # the two particles commute, so the electron's law does not depend on
    # which particle is measured first: it is the electron marginal of
    # the electron-first joint law.
    z = AnalyzerSetting.from_degrees(0.0, 0.0)
    return float(joint_law(model, z, z)[:2].sum())


def switch_protocol_blocked(
    model: PairModel, n: int, mode: str, seed: int
) -> SwitchReport:
    """Run the spin-switch protocol on n pairs.

    The device sits on the positron arm and switches every spin-up
    positron to spin-down before detection. predicted mode reproduces
    the protocol's claimed outcome tables; mechanistic mode simulates
    measure-then-flip collapse. For the entangled source the two
    disagree on the electron, and the report's note says so. The
    electron-up count is one binomial draw of n from stream 0 of the
    seed.
    """
    if mode not in SWITCH_MODES:
        raise ValueError(f"mode must be one of {SWITCH_MODES}, got {mode!r}")
    _check_samples(n)
    p = _switch_electron_up(model, mode)
    note = ""
    if mode == "mechanistic" and isinstance(model, QuantumEntangled):
        note = MECHANISTIC_DIVERGENCE_NOTE
    return SwitchReport(
        n_pairs=n,
        n_electron_up=int(make_stream(seed, 0).binomial(n, p)),
        n_positron_down=n,
        note=note,
    )


def untangle_branches(psi: BipartiteState) -> tuple[BipartiteState, ...]:
    """The two product states untangle maps the singlet to, up-down and
    down-up.

    Any global phase on the input is ignored; anything that is not the
    singlet is rejected.
    """
    if psi.dims != (2, 2):
        raise ValueError("untangle is defined only for two-spin states")
    reference = singlet().amps
    overlap = complex(np.vdot(reference, psi.amps))
    if 1.0 - abs(overlap) > 1e-9:
        raise ValueError("untangle is defined only for the singlet state")
    return tuple(
        BipartiteState(amps)
        for amps in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    )


def untangle(psi: BipartiteState, rng: np.random.Generator) -> BipartiteState:
    """Map the singlet to a definite product state on separation.

    Returns up-down or down-up, each with probability 1/2 from one
    uniform draw; feeding the outputs into parallel-axis sampling
    reproduces the preassigned model's statistics exactly.
    """
    up_down, down_up = untangle_branches(psi)
    return up_down if rng.random() < 0.5 else down_up


def untangle_counts(
    psi: BipartiteState, n: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Up-down and down-up tallies of n untangle draws on psi.

    The up-down count is one binomial draw of n at probability 1/2 from
    rng, the law of n untangle calls.
    """
    _check_samples(n)
    untangle_branches(psi)
    up_down = int(rng.binomial(n, 0.5))
    return up_down, n - up_down
