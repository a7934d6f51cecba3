"""Hydrogenic orbitals and their expectation values by quadrature.

Bound-state wavefunctions psi_nlm are evaluated from stable recurrences
(generalized Laguerre for the radial part, associated Legendre with the
Condon-Shortley phase for the angular part). Expectation values are
computed by composite quadrature on uniform grids, including the mean
radius, the bare radial-derivative momentum expectation of the ground
state, and a finite-difference check of the position-momentum
commutator.

The bare radial momentum -i hbar d/dr is kept deliberately: it is not
Hermitian over the 3D measure r^2 dr, and its ground-state expectation
value comes out purely imaginary, i hbar / a_B. The Hermitized variant
-i hbar (d/dr + 1/r) is available behind a flag and yields 0; the two
are never silently substituted for each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from .constants import BOHR_RADIUS, HBAR
from .grids import UniformGrid1D
from .qcore import LinearOperator

__all__ = [
    "Orbital",
    "RadialGrid",
    "CommutatorReport",
    "laguerre",
    "assoc_legendre",
    "spherical_harmonic",
    "radial_wavefunction",
    "eval_orbital",
    "expect_r",
    "expect_radial_p_ground",
    "orbital_overlap",
    "orthonormality_table",
    "central_difference_momentum",
    "grid_commutator_check",
]

# Containment bound: the radial grid must extend to at least this many
# Bohr radii per n^2 for the quadrature tails to be negligible.
MIN_R_MAX_PER_N2 = 20.0

DEFAULT_RADIAL_POINTS = 4096

# Angular rule for overlaps: Gauss-Legendre points in cos(theta), and
# trapezoid points in phi.
POINTS_THETA = 64
POINTS_PHI = 128


@dataclass(frozen=True)
class Orbital:
    """Bound-state quantum numbers (n, l, m)."""

    n: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"l must satisfy 0 <= l <= n-1, got l={self.l}, n={self.n}")
        if not -self.l <= self.m <= self.l:
            raise ValueError(f"m must satisfy -l <= m <= l, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial quadrature grid on [0, r_max]."""

    r_max: float
    points: int = DEFAULT_RADIAL_POINTS

    def __post_init__(self) -> None:
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")
        if self.points < 16:
            raise ValueError("radial grid needs at least 16 points")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.points - 1)

    @property
    def radii(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.points)

    @classmethod
    def for_n(cls, n: int) -> RadialGrid:
        """Default grid for principal quantum number n: r_max = 40 n^2."""
        return cls(r_max=40.0 * n * n * BOHR_RADIUS)


@dataclass(frozen=True)
class CommutatorReport:
    """Finite-difference commutator residual and its refinement behavior."""

    max_interior_residual: float
    refined_residual: float
    convergence_order: float
    residual_constant: float
    spacing: float


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples y on a uniform grid of spacing h.

    An odd point count uses the 1-4-2-...-4-1 rule. An even count uses it
    on the first N-1 points and closes the last interval with Cartwright's
    parabolic correction, as scipy.integrate.simpson does.
    """
    n = len(y)
    m = n if n % 2 == 1 else n - 1
    total = y[0] + y[m - 1] + 4.0 * np.sum(y[1 : m - 1 : 2]) + 2.0 * np.sum(
        y[2 : m - 1 : 2]
    )
    total = total * (h / 3.0)
    if m != n:
        total = total + h * (
            5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - 1.0 / 12.0 * y[-3]
        )
    return total


def _check_containment(n: int, grid: RadialGrid) -> None:
    bound = MIN_R_MAX_PER_N2 * n * n * BOHR_RADIUS
    if grid.r_max < bound:
        raise ValueError(
            f"grid too small: r_max = {grid.r_max:g} is below the containment "
            f"bound {bound:g} for n = {n}"
        )


def laguerre(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_k^alpha by three-term recurrence."""
    if k < 0:
        raise ValueError("polynomial degree must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    curr = 1.0 + alpha - x
    for j in range(2, k + 1):
        prev, curr = curr, (
            (2.0 * j - 1.0 + alpha - x) * curr - (j - 1.0 + alpha) * prev
        ) / j
    return curr


def assoc_legendre(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """Associated Legendre P_l^m(x), m >= 0, with Condon-Shortley phase."""
    if m < 0 or m > l:
        raise ValueError("assoc_legendre requires 0 <= m <= l")
    x = np.asarray(x, dtype=float)
    # Seed: P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}.
    pmm = np.ones_like(x)
    if m > 0:
        pmm = (-1.0) ** m * float(
            np.prod(np.arange(1, 2 * m, 2))
        ) * (1.0 - x * x) ** (m / 2.0)
    if l == m:
        return pmm
    pm1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, (
            x * (2.0 * ll - 1.0) * pm1 - (ll + m - 1.0) * pmm
        ) / (ll - m)
    return pm1


def spherical_harmonic(
    l: int, m: int, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Y_l^m(theta, phi) with theta the polar angle.

    Negative m follows from Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    if abs(m) > l:
        raise ValueError("spherical harmonic requires |m| <= l")
    mu = abs(m)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    norm = np.sqrt(
        (2.0 * l + 1.0) / (4.0 * np.pi) * factorial(l - mu) / factorial(l + mu)
    )
    y = norm * assoc_legendre(l, mu, np.cos(theta)) * np.exp(1j * mu * phi)
    if m < 0:
        return (-1.0) ** mu * np.conj(y)
    return y


def radial_wavefunction(n: int, l: int, r: np.ndarray) -> np.ndarray:
    """Normalized radial part R_nl(r): integral of R^2 r^2 dr equals 1."""
    Orbital(n, l, 0)
    r = np.asarray(r, dtype=float)
    rho = 2.0 * r / (n * BOHR_RADIUS)
    norm = np.sqrt(
        (2.0 / (n * BOHR_RADIUS)) ** 3
        * factorial(n - l - 1)
        / (2.0 * n * factorial(n + l))
    )
    return norm * np.exp(-rho / 2.0) * rho**l * laguerre(n - l - 1, 2 * l + 1, rho)


def eval_orbital(
    o: Orbital, r: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """psi_nlm(r, theta, phi) = R_nl(r) Y_l^m(theta, phi)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")
    return radial_wavefunction(o.n, o.l, r) * spherical_harmonic(
        o.l, o.m, theta, phi
    )


def expect_r(n: int, l: int, grid: RadialGrid | None = None) -> float:
    """Mean radius of the (n, l) orbital by composite Simpson quadrature."""
    Orbital(n, l, 0)
    if grid is None:
        grid = RadialGrid.for_n(n)
    _check_containment(n, grid)
    r = grid.radii
    density = radial_wavefunction(n, l, r) ** 2 * r**2
    return float(_simpson(density * r, grid.spacing))


def _derivative_5pt(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative, fourth-order accurate, one-sided at the edges."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] + f[-5]) / (12.0 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (
        12.0 * h
    )
    return d


def expect_radial_p_ground(
    grid: RadialGrid | None = None, hermitized: bool = False
) -> complex:
    """Ground-state expectation of the radial momentum over the 3D measure.

    With the bare operator -i hbar d/dr this is i hbar / a_B: purely
    imaginary, because the bare operator is not Hermitian under the
    r^2 dr measure. With hermitized=True the operator becomes
    -i hbar (d/dr + 1/r) and the expectation value is 0.
    """
    if grid is None:
        grid = RadialGrid.for_n(1)
    _check_containment(1, grid)
    r = grid.radii
    radial = radial_wavefunction(1, 0, r)
    derivative = _derivative_5pt(radial, grid.spacing)
    integrand = radial * derivative * r**2
    if hermitized:
        integrand = integrand + radial**2 * r
    return complex(-1j * HBAR * _simpson(integrand, grid.spacing))


@cache
def _angular_quadrature():
    """Tensor rule: Gauss-Legendre in cos(theta), trapezoid in phi.

    Built once; the returned arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(POINTS_THETA)
    theta = np.arccos(x)
    phi = np.arange(POINTS_PHI) * (2.0 * np.pi / POINTS_PHI)
    for array in (theta, w, phi):
        array.flags.writeable = False
    w_phi = 2.0 * np.pi / POINTS_PHI
    return theta, w, phi, w_phi


def _overlap_grid(n_max: int) -> RadialGrid:
    """Default overlap grid: r_max = 40 n_max^2, spacing at most 0.02."""
    r_max = 40.0 * n_max * n_max * BOHR_RADIUS
    points = max(DEFAULT_RADIAL_POINTS, int(round(r_max / 0.02)) + 1)
    return RadialGrid(r_max, points)


class _OverlapQuadrature:
    """Overlap integrals on the angular rule.

    Each orbital's radial samples are computed once per radial grid,
    each radial integral once per (n, l) pair and grid, and each Y_lm
    once, however many pairs read them.
    """

    def __init__(self) -> None:
        self.theta, self.w_theta, self.phi, self.w_phi = _angular_quadrature()
        self._radial: dict[tuple[RadialGrid, int, int], np.ndarray] = {}
        self._radial_integrals: dict[tuple, float] = {}
        self._harmonic: dict[tuple[int, int], np.ndarray] = {}

    def _radial_samples(self, grid: RadialGrid, n: int, l: int) -> np.ndarray:
        key = (grid, n, l)
        if key not in self._radial:
            self._radial[key] = radial_wavefunction(n, l, grid.radii)
        return self._radial[key]

    def _radial_integral(self, grid: RadialGrid, o1: Orbital, o2: Orbital) -> float:
        key = (grid, o1.n, o1.l, o2.n, o2.l)
        if key not in self._radial_integrals:
            self._radial_integrals[key] = _simpson(
                self._radial_samples(grid, o1.n, o1.l)
                * self._radial_samples(grid, o2.n, o2.l)
                * grid.radii**2,
                grid.spacing,
            )
        return self._radial_integrals[key]

    def _harmonic_samples(self, l: int, m: int) -> np.ndarray:
        if (l, m) not in self._harmonic:
            self._harmonic[(l, m)] = spherical_harmonic(
                l, m, self.theta[:, None], self.phi[None, :]
            )
        return self._harmonic[(l, m)]

    def overlap(self, o1: Orbital, o2: Orbital) -> complex:
        radial = self._radial_integral(_overlap_grid(max(o1.n, o2.n)), o1, o2)
        y1 = self._harmonic_samples(o1.l, o1.m)
        y2 = self._harmonic_samples(o2.l, o2.m)
        angular = np.sum(self.w_theta[:, None] * np.conj(y1) * y2) * self.w_phi
        return complex(radial * angular)


def orbital_overlap(o1: Orbital, o2: Orbital) -> complex:
    """Quadrature of conj(psi_1) psi_2 over all space.

    The tensor-product quadrature sum factorizes exactly into a radial
    Simpson integral and a 2D angular sum, which is how it is computed.
    The angular rule is POINTS_THETA Gauss-Legendre points in cos(theta)
    by POINTS_PHI trapezoid points in phi.

    The radial grid reaches r_max = 40 n_max^2, twice the containment
    bound, and is denser than the single-orbital default: a cross-n
    overlap integrates the steepest orbital over the widest orbital's
    range, so the spacing is capped at 0.02 Bohr radii.
    """
    return _OverlapQuadrature().overlap(o1, o2)


def orthonormality_table(max_n: int = 3) -> list[tuple[Orbital, Orbital, complex]]:
    """Pairwise overlaps of all orbitals with n up to max_n.

    Diagonal entries should be 1 and off-diagonal entries 0, both to
    quadrature accuracy. Each entry is orbital_overlap(o1, o2), bit for
    bit; the samples the pairs share are computed once for the whole
    table.
    """
    orbitals = [
        Orbital(n, l, m)
        for n in range(1, max_n + 1)
        for l in range(n)
        for m in range(-l, l + 1)
    ]
    quadrature = _OverlapQuadrature()
    table = []
    for i, o1 in enumerate(orbitals):
        for o2 in orbitals[i:]:
            table.append((o1, o2, quadrature.overlap(o1, o2)))
    return table


def _stencil_entries(h: float) -> tuple[complex, complex]:
    """Sub- and super-diagonal entries of p = -i hbar D at spacing h."""
    lower, upper = -1j * HBAR * np.array([-1.0 / (2.0 * h), 1.0 / (2.0 * h)])
    return lower, upper


def central_difference_momentum(grid: UniformGrid1D) -> LinearOperator:
    """p = -i hbar D with D the banded central-difference stencil.

    D is exactly antisymmetric (the edge rows are one-sided), so the
    operator is exactly Hermitian. This dense form holds (points)^2
    entries; grid_commutator_check applies the same entries by slices.
    """
    n = grid.points
    lower, upper = _stencil_entries(grid.spacing)
    p = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    p[idx, idx + 1] = upper
    p[idx + 1, idx] = lower
    return LinearOperator(p, hermitian=True)


def _apply_momentum(grid: UniformGrid1D, f: np.ndarray) -> np.ndarray:
    """central_difference_momentum(grid) applied to f in O(points).

    Row i is lower * f[i-1] + upper * f[i+1], with the dense operator's
    entries; no (points)^2 matrix is built.
    """
    lower, upper = _stencil_entries(grid.spacing)
    pf = np.zeros_like(f)
    pf[1:] = lower * f[:-1]
    pf[:-1] += upper * f[1:]
    return pf


def _commutator_residual(grid: UniformGrid1D) -> float:
    x = grid.coordinates
    f = np.exp(-(x**2) / 2.0).astype(complex)
    # f peaks at f(0) = 1, which is always an interior sample.
    edge = float(max(np.max(np.abs(f[:3])), np.max(np.abs(f[-3:]))))
    if edge > 1e-8:
        raise ValueError(
            "test function does not decay at the grid edges; the one-sided "
            "boundary stencil would contaminate the residual"
        )
    commutator_f = x * _apply_momentum(grid, f) - _apply_momentum(grid, x * f)
    residual = np.abs(commutator_f - 1j * HBAR * f)
    return float(np.max(residual[1:-1]))


def grid_commutator_check(grid: UniformGrid1D | None = None) -> CommutatorReport:
    """Residual of ([x, p] - i hbar) applied to f(x) = exp(-x^2 / 2).

    x is the diagonal coordinate operator and p the central-difference
    momentum. The residual is i hbar (f(x+h) + f(x-h) - 2 f(x)) / 2 at
    interior points, so it shrinks as h^2; the convergence order is
    estimated from the same check at half the spacing, and the constant
    reported satisfies residual <= constant * spacing^2.

    f must fall below 1e-8 of its peak at the grid edges, which needs a
    grid length above about 12.26; a shorter grid raises ValueError.
    """
    if grid is None:
        grid = UniformGrid1D(length=16.0, points=513)
    coarse = _commutator_residual(grid)
    fine = _commutator_residual(grid.refined())
    order = float(np.log2(coarse / fine)) if fine > 0.0 else float("inf")
    return CommutatorReport(
        max_interior_residual=coarse,
        refined_residual=fine,
        convergence_order=order,
        residual_constant=coarse / grid.spacing**2,
        spacing=grid.spacing,
    )
