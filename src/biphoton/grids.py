"""Square transverse grids, midpoint quadrature and the 2D Fourier transform.

All physics modules share the same discretization: an n-by-n Cartesian grid,
symmetric about the origin, with a half-cell offset so that no sample sits at
zero and the sample set is closed under y -> -y (the beamsplitter reflection
maps grid points to grid points exactly).

Mode norms are taken on the values scaled by the power of two 2^-e that
brings the largest real or imaginary part into [1/2, 1), so no square
over- or underflows.  Inside the fast range, where every part p has
|p| >= 2^(max(e, 0) - 511) and the norm is a finite, normal float, no
rounding depends on that scale, and the unscaled sum gives the same bits
without the scaled copy (see `_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

_TINY = float(np.finfo(float).tiny)  # the smallest normal float, 2^-1022


class Representation(Enum):
    MOMENTUM = "momentum"
    POSITION = "position"


@dataclass(frozen=True)
class Grid:
    """Uniform square sampling lattice with physical half-width.

    Samples along each axis are (i - (n-1)/2) * spacing for i in 0..n-1,
    i.e. offset by half a cell from the origin.  Quadrature is the midpoint
    rule with weight spacing**2 per cell.
    """

    n: int
    half_width: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @cached_property
    def axis(self) -> np.ndarray:
        return _read_only((np.arange(self.n) - (self.n - 1) / 2.0) * self.spacing)[0]

    @property
    def weight(self) -> float:
        return self.spacing * self.spacing  # inf on overflow, where ** raises

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.axis, self.axis, indexing="ij")

    def conjugate(self) -> "Grid":
        # Fourier-conjugate grid: spacing_out = pi / half_width_in per axis,
        # so that spacing_in * spacing_out = 2 pi / n.  Involutive.
        return Grid(self.n, self.n * np.pi / (2.0 * self.half_width))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays read-only in place and return them: for arrays just built,
    which a cache hands to every caller or an amplitude takes uncopied."""
    for values in arrays:
        values.setflags(write=False)
    return arrays


def make_grid(n: int, half_width: float) -> Grid:
    """Build a reflection-closed grid; n must be even and >= 8, and the
    half-width positive with a finite, normal cell weight, so that 1/weight,
    the squared sum of a unit-norm factor, and every Gram entry are finite."""
    if n % 2 != 0 or n < 8:
        raise ValueError(f"grid size must be even and >= 8, got {n}")
    grid = Grid(n, float(half_width))
    if not (half_width > 0 and _TINY <= grid.weight < math.inf):
        raise ValueError(f"half_width must be finite and positive and give a finite, "
                         f"normal cell weight (2 half_width / n)^2, got {half_width} "
                         f"for n = {n}")
    return grid


@dataclass(frozen=True, eq=False)
class TransverseMode:
    """Complex single-photon amplitude on a 2D grid, values indexed [ix, iy]."""

    values: np.ndarray
    grid: Grid
    representation: Representation

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "values", v)


def _check_compatible(a: TransverseMode, b: TransverseMode) -> None:
    if a.grid is not b.grid and a.grid != b.grid:
        raise ValueError("modes live on different grids")
    if a.representation is not b.representation:
        raise ValueError("mixed momentum/position arithmetic is not defined")


def inner_product_2d(a: TransverseMode, b: TransverseMode) -> complex:
    """Midpoint-rule L2 inner product, conjugate-linear in the first slot."""
    _check_compatible(a, b)
    return complex(np.vdot(a.values, b.values) * a.grid.weight)


def _norms(a: TransverseMode) -> tuple[float, np.ndarray | None, float]:
    """(full, scaled, nrm): a's norm on the grid, inf if it exceeds the float
    range; then, unless the fast range below gave `full`, a's values times 2^-e
    for the exact power of two that brings the largest real or imaginary part
    into [1/2, 1), so no square over- or underflows, and their norm on the
    grid, of which `full` is the 2^e multiple.  Raises for non-finite values.

    Fast range: if every part p has |p| >= 2^(max(e, 0) - 511) (so none is
    zero), no square, and so no partial sum, of the unscaled or the scaled
    sum of squares is subnormal; if the unscaled sum is finite and `full` a
    normal float as well, scaling by 2^-e changes no rounding, so the
    unscaled sum gives `full` bit for bit and the scaled copy is not made
    (None, nan)."""
    parts = np.ascontiguousarray(a.values).view(float)
    mags = np.abs(parts.ravel())
    peak = float(np.maximum.reduce(mags))  # NaN if any part is
    if not math.isfinite(peak):
        raise ValueError(f"mode values must be finite, got a largest part of {peak}")
    e = math.frexp(peak)[1]
    # The spacing, not the weight, outside the root: on a very coarse or fine
    # grid the weight times sum |v|^2 overflows or underflows.
    if np.minimum.reduce(mags) >= math.ldexp(1.0, max(e, 0) - 511):
        values = parts.view(complex)
        full = math.sqrt(np.vdot(values, values).real) * a.grid.spacing
        if _TINY <= full < math.inf:
            return full, None, math.nan
    scaled = np.ldexp(parts, -e).view(complex)
    nrm = math.sqrt(np.vdot(scaled, scaled).real) * a.grid.spacing
    try:
        return math.ldexp(nrm, e), scaled, nrm
    except OverflowError:
        return math.inf, scaled, nrm


def mode_norm(a: TransverseMode) -> float:
    """The L2 norm on the grid; inf if it exceeds the float range."""
    return _norms(a)[0]


def normalize_mode(a: TransverseMode) -> TransverseMode:
    full, scaled, nrm = _norms(a)
    # The values over their own norm where it is a normal float, so subnormal
    # parts are rounded once; the scaled values over theirs elsewhere.
    if _TINY <= full < math.inf:
        return TransverseMode(a.values / full, a.grid, a.representation)
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero mode")
    return TransverseMode(scaled / nrm, a.grid, a.representation)


def reflect_y(a: TransverseMode) -> TransverseMode:
    """y -> -y reflection; exact on the half-offset grid (index reversal)."""
    return TransverseMode(a.values[:, ::-1], a.grid, a.representation)


def fourier_2d(mode: TransverseMode) -> TransverseMode:
    """Unitary 2D Fourier transform into the other representation: momentum
    to position with the exp(+i x.q)/(2 pi) kernel, position to momentum with
    its adjoint.  The output lives on the conjugate grid, and
    fourier_2d(fourier_2d(f)) == f up to roundoff."""
    sign = +1 if mode.representation is Representation.MOMENTUM else -1
    k = fourier_kernel_1d(mode.grid, sign)
    out_rep = Representation.POSITION if sign > 0 else Representation.MOMENTUM
    return TransverseMode(k @ mode.values @ k.T, mode.grid.conjugate(), out_rep)


def fourier_kernel_1d(grid_in: Grid, sign: int = +1) -> np.ndarray:
    """The per-axis transform matrix onto the conjugate grid, shared with the
    two-photon factor-wise transform: out_j = sum_k kernel[j, k] in_k, with
    the continuum kernel exp(sign i x q) / sqrt(2 pi) and midpoint weights."""
    phase = sign * 1j * np.outer(grid_in.conjugate().axis, grid_in.axis)
    return (grid_in.spacing / np.sqrt(2.0 * np.pi)) * np.exp(phase)
