"""Uniform grids for discretized continuous-variable calculations.

Coordinates follow the FFT-friendly convention x_i = (i - points//2) * h
with h = length / points, so refining by doubling the point count halves
the spacing exactly and the discrete Fourier transform maps cleanly onto
the reciprocal grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UniformGrid1D", "UniformGrid2D"]


@dataclass(frozen=True)
class UniformGrid1D:
    """Uniform 1D grid of given total length centered near zero."""

    length: float
    points: int

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError("grid length must be positive")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def coordinates(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(self.points) - self.points // 2) * h

    @property
    def momenta(self) -> np.ndarray:
        """Reciprocal-grid momenta in FFT output order (k = 2 pi f)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def refined(self) -> UniformGrid1D:
        """Same length with twice the points: half the spacing."""
        return UniformGrid1D(self.length, 2 * self.points)


@dataclass(frozen=True)
class UniformGrid2D:
    """Square 2D grid: the same 1D geometry along each axis."""

    length: float
    points: int

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError("grid length must be positive")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @property
    def axis(self) -> UniformGrid1D:
        return UniformGrid1D(self.length, self.points)

    @property
    def spacing(self) -> float:
        return self.axis.spacing

    @property
    def coordinates(self) -> np.ndarray:
        return self.axis.coordinates
