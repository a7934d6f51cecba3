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

Fourier convention: the unitary continuous transform in the d = 2
coordinates (x_I, x_II),
G(p) = (2 pi)^{-1} integral of f(x) exp(-i p . x) d^2x, discretized on
the centered grid so that discrete Parseval holds exactly:
sum |G|^2 dp^2 = sum |f|^2 dx^2.

Factored state, half spectrum: the pair is a product
f(x_I - x_II) g(x_I + x_II) of two real Gaussians, and on the uniform
grid each factor takes only 2 points - 1 values. The state is held as
those two factors and its norm; its real (float64) samples are formed a
block of ROW_BLOCK rows at a time, where they are read. The transform of
a real function obeys G(-p) = conj(G(p)), so only its half spectrum,
points x (points//2 + 1), is computed (a real rfft of each row block
written into it, then an fft down each column in place) and kept; a
momentum row is restored from it when it is read. The half spectrum is
the one grid-sized array an epr document holds: the points x points
position grid is built only when a caller reads the state's values, and
the full complex momentum grid only when momentum_representation asks
for it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import UniformGrid2D

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
# Rows per block wherever samples are read a block at a time. At the
# 2048-point cap a block of real rows is 512 KiB, and the epr document's
# time is flat from 16 to 128 rows per block (Intel Xeon, 2 CPUs).
ROW_BLOCK = 32


def _row_blocks(points: int):
    """Consecutive slices of ROW_BLOCK rows that cover range(points)."""
    return (slice(start, start + ROW_BLOCK) for start in range(0, points, ROW_BLOCK))


def _squared_sum(values: np.ndarray) -> float:
    """Sum of |values|^2 over a 2D array in one pass, with no temporary.

    Complex samples are read as interleaved (re, im) float64 pairs,
    which needs a unit-stride last axis. einsum is left unoptimized, so
    no BLAS call makes the sum depend on the thread count.
    """
    f = values.view(np.float64)
    return float(np.einsum("ij,ij->", f, f))


def _l2_norm(rows, grid: UniformGrid2D) -> float:
    """Discrete L2 norm of the samples rows(block) returns for each row
    block; each point weighs the cell area h^2. One pass, a block at a
    time; the block sums are added one by one, in a fixed order (not by
    sum(), which compensates from Python 3.12 on)."""
    total = 0.0
    for block in _row_blocks(grid.points):
        total += _squared_sum(rows(block))
    return float(np.sqrt(total * grid.spacing**2))


def _divisor(norm: float) -> float:
    """norm, once checked to be one that samples can be divided by."""
    if norm == 0.0:
        raise ValueError("cannot normalize an identically zero grid function")
    if not np.isfinite(norm):
        raise ValueError(f"cannot normalize a grid function of norm {norm!r}")
    return norm


def _owned_copy(values) -> np.ndarray:
    """A C-ordered copy of values: float64 for real samples, complex128
    for complex ones."""
    dtype = complex if np.iscomplexobj(values) else float
    return np.array(values, dtype=dtype, order="C")


def _check_grid(grid) -> None:
    if not isinstance(grid, UniformGrid2D):
        raise ValueError(
            f"grid function requires a UniformGrid2D, got {type(grid).__name__}"
        )


def _check_samples(values: np.ndarray, grid) -> None:
    """Raise ValueError unless grid is a UniformGrid2D and values has
    its (points, points) shape."""
    _check_grid(grid)
    expected = (grid.points, grid.points)
    if values.shape != expected:
        raise ValueError(
            f"values shape {values.shape} does not match grid shape {expected}"
        )


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real or complex samples on a square 2D grid, unit discrete L2 norm.

    The grid must be a UniformGrid2D and the values a (points, points)
    array; anything else raises ValueError. Real samples are kept as
    float64 and complex ones as complex128.

    The constructor validates the norm rather than fixing it; use
    normalized() to build one from unnormalized samples. Keeping the
    check strict makes norm preservation under the Fourier transform an
    observable fact instead of a silent correction.

    The values are read-only and belong to the instance. The norm, the
    half spectrum of real samples and the momentum-side norm are
    computed on first use and kept; momentum rows, and the full momentum
    representation, are restored from the half spectrum. Only real
    samples have a momentum transform here: for complex ones it raises
    ValueError.

    The norm, the half spectrum's row transform and condition_on_position
    read the samples through _rows, a block of rows at a time: a view of
    values here, a product of factors for the pair build_epr_state
    returns, whose values are built only when read.
    """

    values: np.ndarray
    grid: UniformGrid2D

    def __post_init__(self) -> None:
        self._own(_owned_copy(self.values))
        self._check_norm(self.norm)

    @classmethod
    def _adopt(cls, values: np.ndarray, grid: UniformGrid2D) -> GridFunction:
        """Wrap values, a float or complex array no caller holds, without
        the constructor's copy or norm check."""
        psi = object.__new__(cls)
        object.__setattr__(psi, "grid", grid)
        psi._own(values)
        return psi

    def _own(self, values: np.ndarray) -> None:
        _check_samples(values, self.grid)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def _check_norm(norm: float) -> None:
        # Written so that a NaN norm fails too.
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(
                f"discrete L2 norm must be 1 within {NORM_ATOL:g}, got {norm!r}"
            )

    @classmethod
    def normalized(cls, values: np.ndarray, grid: UniformGrid2D) -> GridFunction:
        """A copy of values divided by their norm."""
        return cls._normalize_owned(_owned_copy(values), grid)

    @classmethod
    def _normalize_owned(cls, values: np.ndarray, grid: UniformGrid2D) -> GridFunction:
        """values, a float or complex array no caller holds, divided by
        their norm in place: one norm pass, one division.

        The quotient has unit norm by construction, so it is adopted
        without a second norm pass or a copy. The grid and shape are
        checked before the norm pass.
        """
        _check_samples(values, grid)
        values /= _divisor(_l2_norm(values.__getitem__, grid))
        return cls._adopt(values, grid)

    def _rows(self, rows: slice) -> np.ndarray:
        """The samples of a slice of rows."""
        return self.values[rows]

    @cached_property
    def norm(self) -> float:
        return _l2_norm(self._rows, self.grid)

    @property
    def _momentum_grid(self) -> UniformGrid2D:
        """The centered momentum grid, spacing 2 pi / (points h)."""
        return UniformGrid2D(
            length=2.0 * np.pi / self.grid.spacing, points=self.grid.points
        )

    @cached_property
    def _half_spectrum(self) -> np.ndarray:
        """The samples' 2D transform times h^2 / 2 pi, computed once:
        columns k2 = 0 .. points//2 in FFT order, before the phase and the
        shift. A row rfft of each row block written into its rows, then a
        column fft written over its own input: the two 1D transforms of
        np.fft.rfft2, in one buffer."""
        if np.iscomplexobj(self._rows(slice(0, 0))):
            raise ValueError(
                "the momentum transform needs real position samples, got complex"
            )
        n = self.grid.points
        half = np.empty((n, n // 2 + 1), dtype=complex)
        # Each block is dropped as soon as it is transformed.
        for rows in _row_blocks(n):
            np.fft.rfft(self._rows(rows), axis=1, out=half[rows])
        np.fft.fft(half, axis=0, out=half)
        half *= self.grid.spacing**2 / (2.0 * np.pi)
        half.setflags(write=False)
        return half

    @cached_property
    def momentum_norm(self) -> float:
        """Discrete L2 norm of the momentum representation, read from the
        half spectrum with no temporary.

        Columns 1 .. stand for themselves and their mirrors -k2 and weigh
        2; the zero column and, for an even point count, the Nyquist
        column are their own mirrors and weigh 1. So the squared sum
        runs once over the whole half spectrum and once more over the
        weight-2 columns, a unit-stride view of it.
        """
        n = self.grid.points
        half = self._half_spectrum
        total = _squared_sum(half) + _squared_sum(half[:, 1 : (n + 1) // 2])
        return float(np.sqrt(total * self._momentum_grid.spacing**2))

    def _momentum_rows(self, rows) -> np.ndarray:
        """Rows of momentum_representation(self).values, restored from
        the half spectrum; rows is a centered-grid row index or an array
        of them. Parseval is checked, not assumed, first."""
        self._check_norm(self.momentum_norm)
        half = self._half_spectrum
        n = self.grid.points
        m = half.shape[1]
        # The FFT-order row of each centered row, as fftshift maps them.
        k = (np.asarray(rows) - n // 2) % n
        restored = np.empty(k.shape + (n,), dtype=complex)
        restored[..., :m] = half[k]
        # A real function's transform has G[k1, k2] = conj(G[-k1, -k2]).
        restored[..., m:] = np.conj(half[-k % n, n - m : 0 : -1])
        # Phase factor re-anchors the FFT's index origin to the centered
        # coordinate x = (i - n//2) h along each axis.
        phase = np.exp(1j * self.grid.axis.momenta * (n // 2) * self.grid.spacing)
        restored *= phase[k][..., None] * phase
        return np.fft.fftshift(restored, axes=-1)

    @cached_property
    def _momentum(self) -> GridFunction:
        """What momentum_representation returns, expanded once."""
        rows = self._momentum_rows(np.arange(self.grid.points))
        return GridFunction._adopt(rows, self._momentum_grid)


class _FactoredPair(GridFunction):
    """The pair state held as its two factors: sample [i, j] is
    toeplitz[i, j] * hankel[i, j] / raw_norm, formed a block of rows
    at a time where it is read. values is built, read-only, on first
    read and kept."""

    def __init__(self, relative: np.ndarray, center: np.ndarray, grid: UniformGrid2D):
        # relative[k] at i - j = n - 1 - k, center[k] at i + j = k.
        _check_grid(grid)
        n = grid.points
        windows = np.lib.stride_tricks.sliding_window_view
        # windows(v, n)[i, j] = v[i + j], with a unit stride along each
        # row; with its rows reversed, windows(relative, n) reads
        # relative[n - 1 - i + j].
        for name, value in (
            ("grid", grid),
            ("relative", relative),
            ("center", center),
            ("toeplitz", windows(relative, n)[::-1]),
            ("hankel", windows(center, n)),
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "raw_norm", _divisor(_l2_norm(self._raw_rows, grid)))

    def _raw_rows(self, rows: slice) -> np.ndarray:
        return self.toeplitz[rows] * self.hankel[rows]

    def _rows(self, rows: slice) -> np.ndarray:
        block = self._raw_rows(rows)
        block /= self.raw_norm
        return block

    @cached_property
    def values(self) -> np.ndarray:
        values = self._rows(slice(None))
        values.setflags(write=False)
        return values


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
        # The state divides by sigma^2 (and by Lambda^2 >= sigma^2, as the
        # extent bound below gives), so sigma^2 must be a normal float.
        if self.sigma**2 < sys.float_info.min:
            raise ValueError(
                f"sigma = {self.sigma:g} is too small: its square underflows"
            )
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

    With x_i = (i - n//2) h, x_I - x_II depends on i - j and x_I + x_II
    on i + j, so each factor is evaluated at its 2n - 1 values. The
    state keeps those two arrays, a Toeplitz and a Hankel view of them
    and the norm of their product, found in one pass over blocks of
    rows; no n x n array is formed. Each row is the product of the two
    views' rows divided by that norm, formed where it is read.
    """
    n = cfg.grid.points
    h = cfg.grid.spacing
    steps = np.arange(2 * n - 1)
    relative = np.exp(
        -((((n - 1) - steps) * h + cfg.x0) ** 2) / (4.0 * cfg.sigma**2)
    )
    center = np.exp(
        -(((steps - 2 * (n // 2)) * h / 2.0) ** 2) / (4.0 * cfg.envelope_width**2)
    )
    return _FactoredPair(relative, center, cfg.grid)


def momentum_representation(psi: GridFunction) -> GridFunction:
    """Unitary 2D discrete Fourier transform onto the momentum grid.

    The momentum grid has spacing 2 pi / (n h) and follows the same
    centered convention as the position grid; discrete Parseval holds
    exactly, so the result passes the unit-norm validation untouched.
    psi must be real. The full complex grid is expanded from psi's kept
    half spectrum on the first call and kept on psi: every caller
    reads the same read-only samples. No epr document needs it;
    condition_on_momentum and GridFunction.momentum_norm read the half
    spectrum directly.
    """
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
    i = _nearest_interior_index(psi.grid, x, "x")
    coords = psi.grid.coordinates
    return Distribution1D(
        coordinates=coords,
        probabilities=np.abs(psi._rows(slice(i, i + 1))[0]) ** 2,
        sliced_at=float(coords[i]),
    )


def condition_on_momentum(psi: GridFunction, p: float) -> Distribution1D:
    """Distribution of p_II after particle I's momentum is found to be p.

    Slices the momentum representation at the momentum gridline nearest
    to p and renormalizes; only that row is restored from psi's half
    spectrum.
    """
    nyquist = np.pi / psi.grid.spacing
    if not abs(p) < nyquist:
        raise ValueError(
            f"p = {p:g} is at or beyond the grid Nyquist bound {nyquist:g}"
        )
    p_grid = psi._momentum_grid
    i = _nearest_interior_index(p_grid, p, "p")
    coords = p_grid.coordinates
    return Distribution1D(
        coordinates=coords,
        probabilities=np.abs(psi._momentum_rows(i)) ** 2,
        sliced_at=float(coords[i]),
    )


def relative_coordinate_marginal(
    psi: GridFunction, offset: float = 0.0
) -> Distribution1D:
    """Marginal distribution of x_I - x_II + offset.

    Sums |Psi|^2 along the diagonals of constant coordinate difference.
    """
    n = psi.grid.points
    h = psi.grid.spacing
    density = np.abs(psi.values) ** 2
    i = np.arange(n)
    diag_index = (i[:, None] - i[None, :] + n - 1).ravel()
    sums = np.bincount(diag_index, weights=density.ravel(), minlength=2 * n - 1)
    differences = np.arange(-(n - 1), n) * h + offset
    return Distribution1D(coordinates=differences, probabilities=sums)
