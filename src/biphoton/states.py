"""Factories for the physical states: OAM rings and Bell pairs, Gaussian and
Hermite-Gaussian pump modes, SPDC biphotons, and the thin-crystal Gaussian
state after propagation.

Conventions:
  * Gaussian pump, momentum space: v(q) ~ exp(-|q|^2 w0^2 / 4), whose
    position-space partner is exp(-|x|^2 / w0^2).
  * HG_mn follows the same scaling, H_m(qx w0/sqrt2) H_n(qy w0/sqrt2) times
    the Gaussian in momentum space (m along x, n along y); the x- and
    y-parities are (-1)^m and (-1)^n, exact on the reflection-closed grid.
  * OAM ring |l>: q^|l| exp(-q^2 w0^2/4) e^{i l theta} (Laguerre-Gauss p=0
    radial profile; the interference results do not depend on this choice).
All outputs are normalized on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import TwoPhotonAmplitude, _AxisFactors, from_modes, normalize
from .errors import TruncationError
from .grids import Grid, Representation, TransverseMode, normalize_mode

_MAX_DENSE_SPDC_N = 48


def _hermite(k: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_k(x) by the three-term recurrence
    H_0 = 1, H_1 = 2x, H_{j+1} = 2x H_j - 2j H_{j-1}."""
    if k < 0:
        raise ValueError(f"Hermite order must be non-negative, got {k}")
    if k == 0:
        return np.ones_like(x)
    two_x = 2.0 * x
    prev, cur = np.ones_like(x), two_x
    for j in range(1, k):
        prev, cur = cur, two_x * cur - 2.0 * j * prev
    return cur


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def gaussian_g00(w0: float, grid: Grid,
                 representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """Fundamental Gaussian mode, normalized on the grid."""
    return hermite_gaussian(0, 0, w0, grid, representation)


def _check_resolution(w0: float, grid: Grid, representation: Representation) -> None:
    # Require at least 4 samples across the 1/e^2 intensity width.
    width = 4.0 / w0 if representation is Representation.MOMENTUM else 2.0 * w0
    if grid.spacing * 4.0 > width:
        raise ValueError(
            f"grid spacing {grid.spacing:g} does not resolve a mode of waist {w0:g}")


def hermite_gaussian(m: int, n: int, w0: float, grid: Grid,
                     representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """HG_mn mode with m along x and n along y; y-parity is (-1)^n."""
    if m < 0 or n < 0:
        raise ValueError("mode indices must be non-negative")
    _check_positive("waist", w0)
    _check_resolution(w0, grid, representation)
    q = grid.axis  # the mode separates: H_m(sx) e(qx) times H_n(sy) e(qy)
    if representation is Representation.MOMENTUM:
        s, env = q * w0 / np.sqrt(2.0), np.exp(-q ** 2 * w0 ** 2 / 4.0)
    else:
        s, env = np.sqrt(2.0) * q / w0, np.exp(-q ** 2 / w0 ** 2)
    values = np.outer(_hermite(m, s) * env, _hermite(n, s) * env)
    return normalize_mode(TransverseMode(values, grid, representation))


def oam_ring(l: int, w0: float, grid: Grid,
             representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """Ring mode R(q) e^{i l theta}; y-reflection maps it to the -l mode."""
    _check_positive("waist", w0)
    qx, qy = grid.meshgrid()
    q = np.hypot(qx, qy)
    theta = np.arctan2(qy, qx)
    radial = q ** abs(l) * np.exp(-q ** 2 * w0 ** 2 / 4.0)
    return normalize_mode(
        TransverseMode(radial * np.exp(1j * l * theta), grid, representation))


_BELL_KINDS = {
    "psi-plus": ("psi", +1.0),
    "psi-minus": ("psi", -1.0),
    "phi-plus": ("phi", +1.0),
    "phi-minus": ("phi", -1.0),
}


def bell_state(kind: str, l: int, w0: float, grid: Grid) -> TwoPhotonAmplitude:
    """OAM Bell state: |Psi+-> = (|l,l> +- |-l,-l>)/sqrt2,
    |Phi+-> = (|l,-l> +- |-l,l>)/sqrt2."""
    if kind not in _BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; choose from {sorted(_BELL_KINDS)}")
    if l == 0:
        raise ValueError("Bell states are degenerate for l = 0")
    family, sign = _BELL_KINDS[kind]
    plus = oam_ring(l, w0, grid)
    minus = oam_ring(-l, w0, grid)
    if family == "psi":
        terms = [(1.0, plus, plus), (sign, minus, minus)]
    else:
        terms = [(1.0, plus, minus), (sign, minus, plus)]
    return normalize(from_modes(terms))


def product_state(f: TransverseMode, g: TransverseMode) -> TwoPhotonAmplitude:
    """Non-entangled pair Phi(q1, q2) = f(q1) g(q2), normalized."""
    return normalize(from_modes([(1.0, f, g)]))


@dataclass(frozen=True)
class PumpMode:
    """Closed-form pump angular spectrum, evaluated analytically at q1 + q2."""

    kind: str  # "gaussian" or "hermite"
    waist: float
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "hermite"):
            raise ValueError(f"unknown pump kind {self.kind!r}")
        _check_positive("waist", self.waist)
        if self.m < 0 or self.n < 0:
            raise ValueError("mode indices must be non-negative")
        if self.kind == "gaussian" and (self.m or self.n):
            raise ValueError(f"a gaussian pump takes no mode indices, got {self.m},{self.n}; "
                             "use kind 'hermite'")

    def evaluate(self, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        env = np.exp(-(qx ** 2 + qy ** 2) * self.waist ** 2 / 4.0)
        if self.kind == "gaussian":
            return env
        s = self.waist / np.sqrt(2.0)
        return _hermite(self.m, qx * s) * _hermite(self.n, qy * s) * env

    @property
    def x_parity(self) -> int:
        return 1 if self.kind == "gaussian" else (-1) ** self.m

    @property
    def y_parity(self) -> int:
        return 1 if self.kind == "gaussian" else (-1) ** self.n


@dataclass(frozen=True)
class SpdcParams:
    crystal_length: float
    pump_wavenumber: float
    pump: PumpMode

    def __post_init__(self):
        _check_positive("crystal_length", self.crystal_length)
        _check_positive("pump_wavenumber", self.pump_wavenumber)


def _truncate(weights: np.ndarray, grid: Grid, rank_tol: float,
              max_rank: int | None) -> tuple[np.ndarray, float]:
    """Normalized leading coefficients of descending singular weights, kept
    until the dropped relative norm is below rank_tol, and that error.  Both
    Grams of singular-vector factors are grid.weight I, so the norm is closed-form."""
    squares = weights ** 2
    total = float(np.sum(squares))
    # tail[k]: the squared norm dropped when k + 1 weights are kept, summed from
    # the smallest up (total minus a prefix sum loses it to cancellation).
    tail = np.append(np.cumsum(squares[::-1])[::-1][1:], 0.0)
    rank = min(int(np.searchsorted(-tail, -rank_tol ** 2 * total) + 1), weights.size)
    if max_rank is not None and rank > max_rank:
        raise TruncationError(
            f"rank {rank} needed for tolerance {rank_tol:g}, cap is {max_rank}; "
            f"use a smaller grid half-width or loosen the tolerance")
    kept = weights[:rank]
    return ((kept / (grid.weight * np.linalg.norm(kept))).astype(complex),
            float(np.sqrt(tail[rank - 1] / total)))


def _sinc(x: np.ndarray) -> np.ndarray:
    return np.sinc(x / np.pi)  # sin(x)/x with sinc(0) = 1


def _unfold(quadrant: np.ndarray, x_sign: np.ndarray, y_sign: np.ndarray) -> np.ndarray:
    """(R, n, n) factors from their (R, n/2, n/2) parity-basis vectors on the
    positive quadrant: factor r is even (+1) or odd (-1) in x and in y as
    x_sign[r] and y_sign[r] say, so each mirrored quadrant is the positive
    one reversed times those signs.  The basis vector of one axis is
    (e_q +- e_-q)/sqrt2, hence the 1/2 for two axes."""
    half = quadrant * 0.5
    half = np.concatenate([x_sign[:, None, None] * half[:, ::-1, :], half], axis=1)
    return np.concatenate([y_sign[:, None, None] * half[:, :, ::-1], half], axis=2)


def spdc_state(params: SpdcParams, grid: Grid, *,
               rank_tol: float = 1e-6, max_rank: int | None = None) -> TwoPhotonAmplitude:
    """Down-converted pair v(q1+q2) sinc(L |q1-q2|^2 / (4 k_p)), normalized,
    rank-compressed across the photon split.

    The half-offset grid is closed under x -> -x and y -> -y, and negating
    both photons' x components multiplies the pair by the pump's x-parity
    p_x (y likewise).  In the per-axis even/odd basis (f(q) +- f(-q))/sqrt2
    on the positive half-axis, photon 1's parity sector (a, b) therefore
    couples only to photon 2's sector (a p_x, b p_y), and the (n^2, n^2)
    unfolding splits into four (n^2/4, n^2/4) blocks.  Each block is a
    signed sum of the pair sampled with photon 1 on the positive quadrant
    and photon 2 on each of the four quadrants (n^4/4 samples) and takes one
    SVD.  The singular values of all four blocks are those of the unfolding;
    they are sorted together (stable) and truncated, and each kept pair of
    singular vectors unfolds onto the full grid with its sector's signs, so
    every factor is real and exactly even or odd in each axis.  The achieved
    relative norm error of the truncation is stored on the returned
    amplitude as `truncation_error`.
    """
    n = grid.n
    if n > _MAX_DENSE_SPDC_N:
        raise ValueError(
            f"spdc_state takes dense SVDs of four (n^2/4, n^2/4) parity blocks; "
            f"n = {n} exceeds the supported maximum {_MAX_DENSE_SPDC_N}")
    h = n // 2
    p = grid.axis[h:]  # the positive half-axis; grid.axis[h - 1 - i] = -p[i]
    signs = np.array([1.0, -1.0])
    # Per axis, [s, i, k] for photon 1 at p_i and photon 2 at s p_k.
    sums = p[None, :, None] + signs[:, None, None] * p[None, None, :]
    diffs_sq = (p[None, :, None] - signs[:, None, None] * p[None, None, :]) ** 2
    on_x = (slice(None), None, slice(None), None, slice(None), None)
    on_y = (None, slice(None), None, slice(None), None, slice(None))
    # samples[sx, sy, i, j, k, l] = Phi((p_i, p_j), (sx p_k, sy p_l))
    samples = params.pump.evaluate(sums[on_x], sums[on_y]) * _sinc(
        params.crystal_length * (diffs_sq[on_x] + diffs_sq[on_y])
        / (4.0 * params.pump_wavenumber))
    # Photon 2's even (index 0) and odd (1) parts along x, then along y.
    by_x = np.stack([samples[0] + samples[1], samples[0] - samples[1]])
    blocks = np.stack([by_x[:, 0] + by_x[:, 1], by_x[:, 0] - by_x[:, 1]], axis=1)
    u, sv, vh = np.linalg.svd(blocks.reshape(4, h * h, h * h))
    order = np.argsort(-sv.ravel(), kind="stable")
    coeffs, err = _truncate(sv.ravel()[order], grid, rank_tol, max_rank)
    block, k = np.divmod(order[:coeffs.size], h * h)
    x2, y2 = signs[block // 2], signs[block % 2]  # photon 2's sector
    photon1 = _unfold(u[block, :, k].reshape(-1, h, h),
                      params.pump.x_parity * x2, params.pump.y_parity * y2)
    photon2 = _unfold(vh[block, k].reshape(-1, h, h), x2, y2)
    return TwoPhotonAmplitude(coeffs, photon1, photon2, grid, Representation.MOMENTUM,
                              truncation_error=err)


@dataclass(frozen=True)
class GaussianBeamParams:
    """Gaussian-beam propagation parameters for the thin-crystal biphoton."""

    waist: float
    z: float
    pump_wavenumber: float

    def __post_init__(self):
        _check_positive("waist", self.waist)
        _check_positive("pump_wavenumber", self.pump_wavenumber)
        if not (math.isfinite(self.z) and self.z >= 0):
            raise ValueError(f"z must be finite and non-negative, got {self.z}")

    @property
    def rayleigh_length(self) -> float:
        return self.pump_wavenumber * self.waist ** 2 / 2.0

    @property
    def spot_size(self) -> float:
        return self.waist * np.sqrt(1.0 + (self.z / self.rayleigh_length) ** 2)

    @property
    def curvature_radius(self) -> float:
        if self.z == 0.0:
            return np.inf
        return (self.z ** 2 + self.rayleigh_length ** 2) / self.z


def thin_crystal_gaussian(params: GaussianBeamParams, grid: Grid, *,
                          include_phase: bool = True, rank_tol: float = 1e-6,
                          max_rank: int | None = None) -> TwoPhotonAmplitude:
    """Position-space biphoton from a thin crystal pumped by a Gaussian:

        Psi ~ exp{-|x1+x2|^2/(4 w^2(z))
               + i (k_p/4) [z0^2 |x1-x2|^2 / (2 z^2 R(z)) + (|x1|^2+|x2|^2)/R(z)]}

    The amplitude separates per Cartesian axis, so the photon-split
    factorization is built from a single per-axis SVD psi = u s vh: photon
    1's term r is u[:, kx_r] (x) u[:, ky_r] and photon 2's vh[kx_r] (x) vh[ky_r].
    The amplitude holds the factors in that per-axis form (the m <= n
    singular vectors in use and the maps kx, ky), so its Grams contract per
    axis; the (rank, n, n) arrays photon1/photon2 are built on first read.
    Any rank is taken unless `max_rank` is given: the unweighted report
    contracts an m x m coefficient core, and only reading the arrays or a
    weighted Gram (the generic interferometer path) needs rank <= 4096.
    The coefficient k_p z0^2 / (8 z (z^2 + z0^2)) of the |x1-x2|^2 chirp
    diverges as z -> 0+, and the rank grows with it; z = 0 itself is taken
    without phase.  P_c is unaffected: the phase cancels in J.  The achieved
    relative truncation error is stored on the result as `truncation_error`.
    """
    w = params.spot_size
    ax = grid.axis
    s = ax[:, None]
    t = ax[None, :]
    exponent = -((s + t) ** 2) / (4.0 * w ** 2)
    if include_phase and params.z > 0.0:
        kp = params.pump_wavenumber
        z0 = params.rayleigh_length
        r = params.curvature_radius
        exponent = exponent + 1j * (kp / 4.0) * (
            z0 ** 2 * (s - t) ** 2 / (2.0 * params.z ** 2 * r)
            + (s ** 2 + t ** 2) / r)
    psi_axis = np.exp(exponent)
    u, sv, vh = np.linalg.svd(psi_axis)
    # Pair weights sigma_k sigma_k' over the two axes, truncated together.
    pair_w = np.outer(sv, sv).ravel()
    order = np.argsort(pair_w)[::-1]
    coeffs, err = _truncate(pair_w[order], grid, rank_tol, max_rank)
    kx, ky = np.unravel_index(order[:coeffs.size], (sv.size, sv.size))
    used, index = np.unique(np.concatenate([kx, ky]), return_inverse=True)
    ix, iy = index[:coeffs.size], index[coeffs.size:]
    u_used, vh_used = np.ascontiguousarray(u[:, used].T), vh[used]
    for arr in (u_used, vh_used, ix, iy):
        arr.setflags(write=False)
    axes = (_AxisFactors(u_used, u_used, ix, iy), _AxisFactors(vh_used, vh_used, ix, iy))
    return TwoPhotonAmplitude(coeffs, None, None, grid, Representation.POSITION,
                              truncation_error=err, _axes=axes)
