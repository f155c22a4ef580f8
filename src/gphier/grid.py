"""Periodic torus discretization and Fourier-multiplier weights.

The torus [0, L)^d is sampled on M points per axis (spacing h = L/M).
Discrete wavenumbers use the symmetric alias m~ in (-M/2, M/2], so the
Nyquist mode M/2 carries the positive wavenumber +pi*M/L.  All transforms
are unitary (1/sqrt(M) per axis each way), which makes Parseval exact and
keeps the norm code free of stray factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, L)^d with M points per axis."""

    d: int
    M: int
    L: float
    h: float
    # derived from (d, M, L); excluded from equality/hash
    wavenumbers: np.ndarray = field(compare=False)

    @property
    def points(self) -> np.ndarray:
        """Grid coordinates 0, h, ..., L-h along one axis."""
        return self.h * np.arange(self.M)

    def axis_count(self, k: int) -> int:
        """Number of tensor axes of a level-k kernel (unprimed + primed)."""
        return 2 * k * self.d


def make_grid(d: int, M: int, L: float) -> TorusGrid:
    """Build a torus grid; rejects odd M, M < 4, nonpositive or infinite L, and
    an L so small that the wavenumbers 2*pi*m/L are not finite."""
    if d < 1:
        raise ValueError(f"spatial dimension must be >= 1, got d={d}")
    if M < 4:
        raise ValueError(f"grid needs M >= 4 points per axis, got M={M}")
    if M % 2 != 0:
        raise ValueError(f"grid size M must be even, got M={M}")
    if not (L > 0 and np.isfinite(L)):
        raise ValueError(f"period length must be positive and finite, got L={L}")
    # symmetric alias in (-M/2, M/2]; fftfreq puts the Nyquist mode at -M/2
    alias = np.fft.fftfreq(M, d=1.0 / M)
    alias[M // 2] = M // 2
    with np.errstate(over="ignore"):
        p = 2.0 * np.pi * alias / L
    if not np.all(np.isfinite(p)):
        raise ValueError(f"period length L={L} gives non-finite wavenumbers 2*pi*m/L")
    p.setflags(write=False)
    return TorusGrid(d=d, M=M, L=float(L), h=L / M, wavenumbers=p)


def transform(field: np.ndarray, axes, direction: str, M: int | None = None) -> np.ndarray:
    """Unitary DFT of `field` along `axes` ('forward' or 'inverse').

    Forward maps point samples to mode coefficients in standard DFT
    storage order; inverse(forward(x)) == x to machine precision.
    """
    axes = tuple(axes)
    if M is not None:
        for ax in axes:
            if field.shape[ax] != M:
                raise ValueError(
                    f"axis {ax} has length {field.shape[ax]}, expected grid size {M}"
                )
    if direction == "forward":
        return np.fft.fftn(field, axes=axes, norm="ortho")
    if direction == "inverse":
        return np.fft.ifftn(field, axes=axes, norm="ortho")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def sobolev_weights(grid: TorusGrid, alpha: float) -> np.ndarray:
    """Per-mode Bessel weights (1 + |p|^2)^(alpha/2) for one tensor axis.

    Applied independently per axis; for d >= 2 this realizes the
    anisotropic product weight over the d component axes of each variable
    (identical to the isotropic weight at d=1).
    """
    if alpha < 0:
        raise ValueError(f"regularity alpha must be >= 0, got {alpha}")
    return (1.0 + grid.wavenumbers**2) ** (alpha / 2.0)


def phase_weights(grid: TorusGrid, t: float) -> np.ndarray:
    """Free-propagator phases exp(-i t p^2) for one unprimed axis.

    Primed axes carry the conjugate phases; the product over all axes of a
    level-k kernel realizes U^(k)(t) = exp(i t (sum_j Delta_{x_j} - Delta_{x'_j})).
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return np.exp(-1j * t * grid.wavenumbers**2)
