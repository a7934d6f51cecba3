"""A regularized entangled pair with continuous position and momentum.

The idealized pair wavefunction is a delta function in the relative
coordinate, Psi proportional to delta(x_I - x_II + x0), which is not
normalizable. The grid realization replaces the delta by a Gaussian of
width sigma in the relative coordinate and multiplies by a broad
Gaussian envelope of width Lambda = L / 8 in the center-of-mass
coordinate, giving a normalizable state whose conditionals are exactly
computable: conditioning on particle I's position predicts particle II
near x + x0, and conditioning on particle I's momentum predicts
particle II near -p, on the same state.

Fourier convention: the unitary continuous transform
G(p) = (2 pi)^{-d/2} integral of f(x) exp(-i p x) dx, discretized on the
centered grid so that discrete Parseval holds exactly:
sum |G|^2 dp^d = sum |f|^2 dx^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import UniformGrid1D, UniformGrid2D

__all__ = [
    "EprConfig",
    "GridFunction",
    "Distribution1D",
    "build_epr_state",
    "momentum_representation",
    "condition_on_position",
    "condition_on_momentum",
    "relative_coordinate_marginal",
]

NORM_ATOL = 1e-10


def _l2_norm(values: np.ndarray, grid: UniformGrid1D | UniformGrid2D) -> float:
    """Discrete L2 norm; each point weighs h in 1D and h^2 in 2D."""
    cell = grid.cell_area if isinstance(grid, UniformGrid2D) else grid.spacing
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * cell))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a uniform grid, unit discrete L2 norm.

    The constructor validates the norm rather than fixing it; use
    normalized() to build one from unnormalized samples. Keeping the
    check strict makes norm preservation under the Fourier transform an
    observable fact instead of a silent correction.

    The values are read-only and belong to the instance. The norm and
    the momentum representation are computed on first use and kept.
    """

    values: np.ndarray
    grid: UniformGrid1D | UniformGrid2D

    def __post_init__(self) -> None:
        self._own(np.array(self.values, dtype=complex))
        self._check_norm()

    @classmethod
    def _adopt(
        cls, values: np.ndarray, grid: UniformGrid1D | UniformGrid2D
    ) -> GridFunction:
        """Wrap values, a complex array no caller holds, without the
        constructor's copy or norm check."""
        psi = object.__new__(cls)
        object.__setattr__(psi, "grid", grid)
        psi._own(values)
        return psi

    def _own(self, values: np.ndarray) -> None:
        expected = (self.grid.points,) * (
            2 if isinstance(self.grid, UniformGrid2D) else 1
        )
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {expected}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _check_norm(self) -> None:
        # Written so that a NaN norm fails too.
        if not abs(self.norm - 1.0) <= NORM_ATOL:
            raise ValueError(
                f"discrete L2 norm must be 1 within {NORM_ATOL:g}, got {self.norm!r}"
            )

    @classmethod
    def normalized(
        cls, values: np.ndarray, grid: UniformGrid1D | UniformGrid2D
    ) -> GridFunction:
        """values divided by their norm: one norm pass, one division.

        The quotient has unit norm by construction, so it is adopted
        without a second norm pass or a copy.
        """
        values = np.asarray(values, dtype=complex)
        norm = _l2_norm(values, grid)
        if norm == 0.0:
            raise ValueError("cannot normalize an identically zero grid function")
        if not np.isfinite(norm):
            raise ValueError(f"cannot normalize a grid function of norm {norm!r}")
        return cls._adopt(values / norm, grid)

    @cached_property
    def norm(self) -> float:
        return _l2_norm(self.values, self.grid)

    @cached_property
    def _momentum(self) -> GridFunction:
        """What momentum_representation returns, computed once."""
        n = self.grid.points
        h = self.grid.spacing
        # Phase factor re-anchors the FFT's index origin to the centered
        # coordinate x = (i - n//2) h along each axis.
        phase = np.exp(1j * self.grid.axis.momenta * (n // 2) * h)
        transformed = np.fft.fft2(self.values)
        transformed *= h**2 / (2.0 * np.pi)
        transformed *= phase[:, None] * phase[None, :]
        p_grid = UniformGrid2D(length=2.0 * np.pi / h, points=n)
        g = GridFunction._adopt(np.fft.fftshift(transformed), p_grid)
        g._check_norm()
        return g


@dataclass(frozen=True, eq=False)
class Distribution1D:
    """Discrete probability distribution over one grid coordinate.

    sliced_at records the actual gridline the conditioning snapped to,
    when the distribution came from conditioning; None for marginals.
    """

    coordinates: np.ndarray
    probabilities: np.ndarray
    sliced_at: float | None = None

    def __post_init__(self) -> None:
        coords = np.asarray(self.coordinates, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if coords.shape != probs.shape or coords.ndim != 1:
            raise ValueError("coordinates and probabilities must be equal-length 1D")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if total <= 0.0:
            raise ValueError("distribution has zero total probability")
        probs = probs / total
        coords.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "probabilities", probs)

    def mean(self) -> float:
        return float(np.sum(self.coordinates * self.probabilities))

    def std(self) -> float:
        mu = self.mean()
        return float(
            np.sqrt(np.sum((self.coordinates - mu) ** 2 * self.probabilities))
        )


@dataclass(frozen=True)
class EprConfig:
    """Geometry of the regularized pair: offset, width, and grid."""

    x0: float = 1.0
    sigma: float = 0.5
    grid: UniformGrid2D = UniformGrid2D(length=20.0, points=512)

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.grid.points < 64:
            raise ValueError("pair grid needs at least 64 points per axis")
        required = 10.0 * self.sigma + 2.0 * abs(self.x0)
        if self.grid.length < required:
            raise ValueError(
                f"grid too small: extent {self.grid.length:g} is below the bound "
                f"{required:g} for sigma = {self.sigma:g}, x0 = {self.x0:g}"
            )
        if self.sigma < 2.0 * self.grid.spacing:
            raise ValueError(
                f"sigma = {self.sigma:g} is unresolvable at grid spacing "
                f"{self.grid.spacing:g}"
            )

    @property
    def envelope_width(self) -> float:
        """Center-of-mass Gaussian width Lambda = L / 8."""
        return self.grid.length / 8.0


def build_epr_state(cfg: EprConfig) -> GridFunction:
    """The regularized pair state on the (x_I, x_II) grid.

    Psi(x_I, x_II) is proportional to
    exp(-(x_I - x_II + x0)^2 / (4 sigma^2)) times
    exp(-((x_I + x_II) / 2)^2 / (4 Lambda^2)), normalized on the grid,
    so |Psi|^2 has relative-coordinate width sigma and center-of-mass
    width Lambda.
    """
    x = cfg.grid.coordinates
    rel = x[:, None] - x[None, :] + cfg.x0
    com = (x[:, None] + x[None, :]) / 2.0
    raw = np.exp(
        -(rel**2) / (4.0 * cfg.sigma**2)
        - com**2 / (4.0 * cfg.envelope_width**2)
    )
    return GridFunction.normalized(raw, cfg.grid)


def momentum_representation(psi: GridFunction) -> GridFunction:
    """Unitary 2D discrete Fourier transform onto the momentum grid.

    The momentum grid has spacing 2 pi / (n h) and follows the same
    centered convention as the position grid; discrete Parseval holds
    exactly, so the result passes the unit-norm validation untouched.
    The transform is computed once per psi and kept on it: every caller
    reads the same read-only samples.
    """
    if not isinstance(psi.grid, UniformGrid2D):
        raise ValueError("momentum representation requires a 2D grid function")
    return psi._momentum


def _nearest_interior_index(grid: UniformGrid2D, value: float, axis_name: str) -> int:
    coords = grid.coordinates
    if not coords[0] < value < coords[-1]:
        raise ValueError(
            f"{axis_name} = {value:g} is outside the grid interior "
            f"({coords[0]:g}, {coords[-1]:g})"
        )
    return int(np.argmin(np.abs(coords - value)))


def condition_on_position(psi: GridFunction, x: float) -> Distribution1D:
    """Distribution of x_II after particle I is found at position x.

    The joint amplitude is sliced at the gridline nearest to x (recorded
    in sliced_at) and |amplitude|^2 is renormalized over x_II.
    """
    if not isinstance(psi.grid, UniformGrid2D):
        raise ValueError("conditioning requires a 2D grid function")
    i = _nearest_interior_index(psi.grid, x, "x")
    coords = psi.grid.coordinates
    return Distribution1D(
        coordinates=coords,
        probabilities=np.abs(psi.values[i, :]) ** 2,
        sliced_at=float(coords[i]),
    )


def condition_on_momentum(psi: GridFunction, p: float) -> Distribution1D:
    """Distribution of p_II after particle I's momentum is found to be p.

    Transforms to the momentum representation, slices at the momentum
    gridline nearest to p, and renormalizes.
    """
    g = momentum_representation(psi)
    nyquist = np.pi / psi.grid.spacing
    if not abs(p) < nyquist:
        raise ValueError(
            f"p = {p:g} is at or beyond the grid Nyquist bound {nyquist:g}"
        )
    i = _nearest_interior_index(g.grid, p, "p")
    coords = g.grid.coordinates
    return Distribution1D(
        coordinates=coords,
        probabilities=np.abs(g.values[i, :]) ** 2,
        sliced_at=float(coords[i]),
    )


def relative_coordinate_marginal(
    psi: GridFunction, offset: float = 0.0
) -> Distribution1D:
    """Marginal distribution of x_I - x_II + offset.

    Sums |Psi|^2 along the diagonals of constant coordinate difference.
    """
    if not isinstance(psi.grid, UniformGrid2D):
        raise ValueError("marginal requires a 2D grid function")
    n = psi.grid.points
    h = psi.grid.spacing
    density = np.abs(psi.values) ** 2
    i = np.arange(n)
    diag_index = (i[:, None] - i[None, :] + n - 1).ravel()
    sums = np.bincount(diag_index, weights=density.ravel(), minlength=2 * n - 1)
    differences = np.arange(-(n - 1), n) * h + offset
    return Distribution1D(coordinates=differences, probabilities=sums)
