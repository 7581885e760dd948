"""Factories for the physical states: OAM rings and Bell pairs, Gaussian and
Hermite-Gaussian pump modes, SPDC biphotons, and the thin-crystal Gaussian
state after propagation.

Conventions:
  * Gaussian pump, momentum space: v(q) ~ exp(-|q|^2 w0^2 / 4), whose
    position-space partner is exp(-|x|^2 / w0^2).
  * HG_mn follows the same scaling, H_m(qx w0/sqrt2) H_n(qy w0/sqrt2) times
    the Gaussian in momentum space (m along x, n along y); the x- and
    y-parities are (-1)^m and (-1)^n, exact on the reflection-closed grid.
  * OAM ring |l>: (q w0)^|l| exp(-q^2 w0^2/4) e^{i l theta} (Laguerre-Gauss
    p=0 radial profile; the interference results do not depend on this choice).
  * A position-space mode of waist w0 is the Fourier partner of the momentum
    mode: the momentum profile at width 2/w0 in place of w0, so the Gaussian
    is exp(-|x|^2 / w0^2) and the ring (2 r / w0)^|l| exp(-r^2 / w0^2).
All outputs are normalized on the grid.  One cache, _MODES, keeps the
normalized modes that hermite_gaussian (and so gaussian_g00) and oam_ring
return, up to _MODE_CACHE_BYTES of values, least recently used out first.
Factory modes are therefore shared and read-only: copy the values before
writing to them.
"""

from __future__ import annotations

import math
import operator
import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass

import numpy as np

from .amplitudes import (TwoPhotonAmplitude, _AxisFactors, _SectorFactors, from_modes,
                         normalize)
from .grids import Grid, Representation, TransverseMode, _read_only, normalize_mode

_MAX_DENSE_SPDC_N = 48
# A per-axis table [s, i, k] broadcast over the SPDC samples [sx, sy, i, j, k, l].
_ON_X = (slice(None), None, slice(None), None, slice(None), None)
_ON_Y = (None, slice(None), None, slice(None), None, slice(None))
_MODE_CACHE_BYTES = 32 * 2 ** 20  # a mode holds 16 n^2 bytes: 32 modes at n = 256


class _ModeCache:
    """Factory modes by key, read-only and shared by every caller.  Holds at
    most `budget` bytes of values, least recently used out first; a mode
    larger than the budget is returned, never kept.  A build that raises
    keeps nothing.  Builds run under the lock, so each key is built once."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._modes: dict[Hashable, TransverseMode] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], TransverseMode]) -> TransverseMode:
        with self._lock:
            mode = self._modes.pop(key, None)  # put back last: the most recently used
            if mode is None:
                mode = build()
                _read_only(mode.values)
                if mode.values.nbytes > self.budget:
                    return mode
                self.nbytes += mode.values.nbytes
                while self.nbytes > self.budget:  # the dict iterates oldest first
                    self.nbytes -= self._modes.pop(next(iter(self._modes))).values.nbytes
            self._modes[key] = mode
            return mode

    def clear(self) -> None:
        with self._lock:
            self._modes.clear()
            self.nbytes = 0


_MODES = _ModeCache(_MODE_CACHE_BYTES)


def _hg_profile(k: int, q: np.ndarray, w: float) -> np.ndarray:
    """The 1-D Hermite-Gaussian profile H_k(s) exp(-q^2 w^2/4), s = q w/sqrt2,
    of width parameter w, shared by the modes and the pump.  The physicists'
    Hermite polynomial comes from H_0 = 1, H_{j+1} = 2s H_j - 2j H_{j-1}."""
    two_s = q * (math.sqrt(2.0) * w)
    prev, cur = 0.0, 1.0
    for j in range(k):
        prev, cur = cur, two_s * cur - 2.0 * j * prev
    return cur * np.exp(q * q * (-w * w / 4.0))


def _mode_index(k) -> int:
    """k as a Python int: an int or NumPy integer, never a float such as 1.0,
    which would hash as a cache key equal to 1 but fail in a fresh build."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"mode indices must be integers, got {k}") from None


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _width(w0: float, representation: Representation) -> float:
    """The momentum profile's width parameter for waist w0: w0 itself, or
    2/w0 for its position-space Fourier partner."""
    _check_positive("waist", w0)
    return float(w0 if representation is Representation.MOMENTUM else 2.0 / w0)  # a cache key


def gaussian_g00(w0: float, grid: Grid,
                 representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """Fundamental Gaussian mode, normalized on the grid."""
    return hermite_gaussian(0, 0, w0, grid, representation)


def hermite_gaussian(m: int, n: int, w0: float, grid: Grid,
                     representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """HG_mn mode with m along x and n along y; y-parity is (-1)^n.  The mode
    is cached and shared, its values read-only: copy them before writing."""
    m, n = _mode_index(m), _mode_index(n)
    if m < 0 or n < 0:
        raise ValueError("mode indices must be non-negative")
    w = _width(w0, representation)

    def build() -> TransverseMode:
        # The guard reads only the key's grid and width, so a hit passed it.
        if grid.spacing * 4.0 > 4.0 / w:  # 4 samples across the 1/e^2 intensity width
            raise ValueError(
                f"grid spacing {grid.spacing:g} does not resolve a mode of waist {w0:g}")
        # A high order overflows the Hermite recurrence, or the outer product
        # of two finite rows.
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _hg_profile(m, grid.axis, w), _hg_profile(n, grid.axis, w)
            peak = np.abs(rows[0]).max() * np.abs(rows[1]).max()
        if not math.isfinite(peak):
            raise ValueError(f"HG_{m},{n} overflows the float range for w0 = {w0} and "
                             f"half_width = {grid.half_width}")
        return normalize_mode(TransverseMode(np.outer(*rows), grid, representation))

    return _MODES.get(("hg", m, n, w, grid.n, grid.half_width, representation.value), build)


def oam_ring(l: int, w0: float, grid: Grid,
             representation: Representation = Representation.MOMENTUM) -> TransverseMode:
    """Ring mode R e^{i l theta}, R as the module docstring gives it in each
    representation; y-reflection maps it to the -l mode.  The mode is cached
    and shared, its values read-only: copy them before writing."""
    l = _mode_index(l)
    w = _width(w0, representation)

    def build() -> TransverseMode:
        qx, qy = grid.meshgrid()
        q = np.hypot(qx, qy)  # > 0: the half-cell offset puts no sample at 0
        # In units of the width, so no tiny or huge w0 alone over- or
        # underflows; a large l or half-width can, and leaves no finite,
        # positive peak.
        with np.errstate(over="ignore", invalid="ignore"):
            s = q * w
            radial = s ** abs(l) * np.exp(s * s * -0.25)
        peak = radial.max()
        if not (math.isfinite(peak) and peak > 0.0):
            raise ValueError(f"the OAM ring profile has no finite, positive peak for l = {l}, "
                             f"w0 = {w0} and half_width = {grid.half_width}")
        # Exact scaling by a power of two, the peak into [1/2, 1): no product
        # with the winding underflows.
        radial = np.ldexp(radial, -np.frexp(peak)[1])
        # e^{i l theta} as a power of the unit phasor (qx + i qy)/q: a few
        # products per sample, not a complex exp.
        winding = ((qx + 1j * qy) / q) ** abs(l)
        if l < 0:
            winding = winding.conj()
        return normalize_mode(TransverseMode(radial * winding, grid, representation))

    return _MODES.get(("oam", l, w, grid.n, grid.half_width, representation.value), build)


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
        object.__setattr__(self, "m", _mode_index(self.m))
        object.__setattr__(self, "n", _mode_index(self.n))
        if self.m < 0 or self.n < 0:
            raise ValueError("mode indices must be non-negative")
        if self.kind == "gaussian" and (self.m or self.n):
            raise ValueError(f"a gaussian pump takes no mode indices, got {self.m},{self.n}; "
                             "use kind 'hermite'")

    def evaluate(self, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        # A gaussian pump has m = n = 0, and H_0 = 1.
        return _hg_profile(self.m, qx, self.waist) * _hg_profile(self.n, qy, self.waist)

    @property
    def x_parity(self) -> int:
        return (-1) ** self.m

    @property
    def y_parity(self) -> int:
        return (-1) ** self.n


@dataclass(frozen=True)
class SpdcParams:
    crystal_length: float
    pump_wavenumber: float
    pump: PumpMode

    def __post_init__(self):
        _check_positive("crystal_length", self.crystal_length)
        _check_positive("pump_wavenumber", self.pump_wavenumber)


def _truncate(weights: np.ndarray, rank_tol: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Sort singular weights, given in any order, descending (stable: ties keep
    index order) and keep them until the dropped relative norm is below
    rank_tol.  Returns the kept weights normalized, the coefficients of factors
    of unit quadrature norm, that error and the kept indices into `weights`."""
    order = np.argsort(-weights, kind="stable")
    # Exact scaling by a power of two, the largest into [1/2, 1): no square overflows.
    scaled = np.ldexp(weights[order], -np.frexp(weights[order[0]])[1])
    total = float(np.sum(scaled ** 2))
    rank, dropped = _cut(scaled, 0.0, rank_tol ** 2 * total)
    return *_kept(scaled, rank, dropped, total), order[:rank]


def _cut(scaled: np.ndarray, outside: float, floor: float) -> tuple[int, float]:
    """How many of the descending `scaled` weights to keep, the fewest that
    drop a squared norm of at most `floor`, and the squared norm they drop:
    the squares after them, summed from the smallest up (total minus a
    prefix sum loses it to cancellation), plus `outside`, that of the
    weights not in `scaled`."""
    squares = scaled ** 2
    # tail[k]: the squared norm dropped when k + 1 weights are kept
    tail = np.append(np.cumsum(squares[::-1])[::-1][1:], 0.0) + outside
    rank = min(int(np.searchsorted(-tail, -floor) + 1), scaled.size)
    return rank, tail[rank - 1]


def _kept(scaled: np.ndarray, rank: int, dropped: float,
          total: float) -> tuple[np.ndarray, float]:
    """The first `rank` weights normalized, as coefficients, and the relative
    error sqrt(dropped / total); ValueError if that is not finite."""
    err = float(np.sqrt(dropped / total))
    if not math.isfinite(err):
        raise ValueError(f"singular weights must be finite, got a truncation error of {err}")
    kept = scaled[:rank]
    return (kept / np.linalg.norm(kept)).astype(complex), err


def _phase_matching(a: np.ndarray) -> np.ndarray:
    """sinc(a_x + a_y) = sin(a_x + a_y) / (a_x + a_y) over the SPDC samples
    [sx, sy, i, j, k, l], from the per-axis table a[s, i, k] >= 0 of
    L (p_i - s p_k)^2 / (4 k_p): the sine of the sum from the sines and
    cosines of the n^2/2 table entries, not of the n^4/4 samples.  Exactly 1
    where a_x + a_y = 0, as at q1 = q2.  Built in place: besides the result,
    one sample-sized array and a boolean mask."""
    sin_a, cos_a = np.sin(a), np.cos(a)
    sinc = sin_a[_ON_X] * cos_a[_ON_Y]
    scratch = cos_a[_ON_X] * sin_a[_ON_Y]
    sinc += scratch
    np.add(a[_ON_X], a[_ON_Y], out=scratch)
    sinc /= scratch
    sinc[scratch == 0.0] = 1.0  # sin 0 / 0
    return sinc


def spdc_state(params: SpdcParams, grid: Grid, *, rank_tol: float = 1e-6) -> TwoPhotonAmplitude:
    """Down-converted pair v(q1+q2) sinc(L |q1-q2|^2 / (4 k_p)), normalized,
    rank-compressed across the photon split.

    The half-offset grid is closed under x -> -x and y -> -y, and negating
    both photons' x components multiplies the pair by the pump's x-parity
    p_x (y likewise).  In the per-axis even/odd basis (f(q) +- f(-q))/sqrt2
    on the positive half-axis, photon 1's parity sector (a, b) therefore
    couples only to photon 2's sector (a p_x, b p_y), and the (n^2, n^2)
    unfolding splits into four (n^2/4, n^2/4) blocks, each a signed sum of
    the pair sampled with photon 1 on the positive quadrant and photon 2 on
    each of the four quadrants (n^4/4 samples).  The sinc argument is a sum
    of an x term and a y term, so the samples' sinc comes from per-axis
    sine and cosine tables (_phase_matching), built in place, and is then
    multiplied by the pump.  The pair is
    exchange-symmetric, so the block of sector (a, b) is the transpose of
    the block of sector (a p_x, b p_y):
      * for a pump with an odd parity the sectors pair up, and one batched
        SVD of two blocks gives all four, the partner's factors being the
        same pair with U and V swapped;
      * for an even-even pump every block is symmetric and takes a batched
        `eigh`, B = V diag(lam) V^T, with the factors V sign(lam) and V.
    The singular values of the four blocks (|lam| for `eigh`) are those of
    the unfolding, truncated together.  The amplitude keeps each kept pair of
    vectors on the positive quadrant, over the spacing for unit quadrature
    norm, with its sector's signs (_SectorFactors): every factor is real and
    exactly even or odd along each axis, and its Grams contract per sector.  The
    achieved relative norm error of the truncation is stored on the
    returned amplitude as `truncation_error`.
    """
    n = grid.n
    if n > _MAX_DENSE_SPDC_N:
        raise ValueError(
            f"spdc_state takes dense factorizations of (n^2/4, n^2/4) parity blocks; "
            f"n = {n} exceeds the supported maximum {_MAX_DENSE_SPDC_N}")
    h = n // 2
    p = grid.axis[h:]  # the positive half-axis; grid.axis[h - 1 - i] = -p[i]
    signs = np.array([1.0, -1.0])
    # samples[sx, sy, i, j, k, l] = Phi((p_i, p_j), (sx p_k, sy p_l))
    # An extreme crystal length, pump wavenumber, pump order or half-width
    # overflows the sinc argument or the Hermite recurrence: a non-finite
    # sample, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per axis, [s, i, k] for photon 1 at p_i and photon 2 at s p_k.
        sums = p[None, :, None] + signs[:, None, None] * p[None, None, :]
        diffs_sq = (p[None, :, None] - signs[:, None, None] * p[None, None, :]) ** 2
        samples = _phase_matching(
            params.crystal_length * diffs_sq / (4.0 * params.pump_wavenumber))
        samples *= params.pump.evaluate(sums[_ON_X], sums[_ON_Y])
    peak = np.maximum(samples.max(), -samples.min())  # NaN if any sample is
    if not math.isfinite(peak):
        raise ValueError(f"the SPDC amplitude is not finite for pump = {params.pump}, "
                         f"crystal_length = {params.crystal_length}, "
                         f"pump_wavenumber = {params.pump_wavenumber} and "
                         f"half_width = {grid.half_width}")
    if peak == 0.0:
        raise ValueError(f"the SPDC amplitude vanishes on the grid of half_width = "
                         f"{grid.half_width} for pump = {params.pump}")
    # Exact scaling by a power of two, the peak into [1/2, 1): no block sum
    # or singular weight overflows.
    np.ldexp(samples, -np.frexp(peak)[1], out=samples)
    # partner[b]: the block whose photon-2 sector is block b's photon-1
    # sector; its block is block b's transpose.  One block of each pair is
    # factored: free[which[b]] is block b or its partner.
    sector = np.arange(4)
    partner = sector ^ (2 * (params.pump.x_parity < 0) + (params.pump.y_parity < 0))
    free, which = np.unique(np.minimum(sector, partner), return_inverse=True)
    # Photon 2's even (index 0) and odd (1) parts along x, then along y:
    # block b is the block of photon 2's sector (signs[b // 2], signs[b % 2]).
    # Only the blocks in `free` are formed.
    parts = (np.add, np.subtract)
    blocks = np.empty((free.size, h * h, h * h), samples.dtype)
    for out, b in zip(blocks, free):
        along_x = [parts[b // 2](samples[0, sy], samples[1, sy]) for sy in (0, 1)]
        parts[b % 2](*along_x, out=out.reshape(h, h, h, h))
    del samples, along_x  # not held through the factorization
    if free.size < sector.size:  # the blocks pair up
        u, sv, vh = np.linalg.svd(blocks)
    else:  # every block is symmetric
        lam, v = np.linalg.eigh(blocks)
        sv = np.abs(lam)
        u, vh = v * np.where(lam < 0.0, -1.0, 1.0)[:, None, :], np.swapaxes(v, 1, 2)
    sv = sv[which].ravel()  # every block's weights, the partners' repeated
    coeffs, err, kept = _truncate(sv, rank_tol)
    block, k = np.divmod(kept, h * h)
    left, right = u[which[block], :, k] / grid.spacing, vh[which[block], k] / grid.spacing
    transposed = (partner < sector)[block, None]  # U and V swap for the partner
    photon1 = np.where(transposed, right, left)
    photon2 = np.where(transposed, left, right)
    x2, y2 = signs[block // 2], signs[block % 2]  # photon 2's sector
    form = (_SectorFactors(photon1, params.pump.x_parity * x2, params.pump.y_parity * y2),
            _SectorFactors(photon2, x2, y2))
    return TwoPhotonAmplitude(coeffs, None, None, grid, Representation.MOMENTUM,
                              truncation_error=err, _form=form)


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
        _check_positive("rayleigh_length", self.rayleigh_length)
        _check_positive("spot_size", self.spot_size)

    # Squares are products: a float ** that overflows raises instead of giving inf.
    @property
    def rayleigh_length(self) -> float:
        return self.pump_wavenumber * (self.waist * self.waist) / 2.0

    @property
    def spot_size(self) -> float:
        ratio = self.z / self.rayleigh_length
        return self.waist * math.sqrt(1.0 + ratio * ratio)

    @property
    def curvature_radius(self) -> float:
        if self.z == 0.0:
            return np.inf
        z0 = self.rayleigh_length
        return (self.z * self.z + z0 * z0) / self.z


def _truncate_pairs(sv: np.ndarray, rank_tol: float) -> tuple[np.ndarray, float, np.ndarray,
                                                               np.ndarray]:
    """`_truncate(np.outer(sv, sv).ravel(), rank_tol)` for descending singular
    values sv, its kept indices as the pairs (ix, iy), without sorting all
    n^2 pair weights.  As sv is descending, the kept pairs form a staircase:
    row i keeps j < c_i, c_i not increasing.  So they lie in the leading
    b x b block once a cut found there keeps a pair that outweighs sv_0 sv_b,
    the heaviest pair outside it; b doubles from 32 until one does, or is n.
    The block's b^2 weights are sorted as `_truncate` sorts them, and the
    pairs outside it are dropped whole: row i drops sv_i^2 S(b) for i < b
    and sv_i^2 S(0) for i >= b, where S(c) is the sum of sv_j^2 over j >= c,
    taken from the smallest up."""
    n = sv.size
    shift = -np.frexp(sv[0] * sv[0])[1]  # as _truncate scales the largest weight
    # The scaled squares per axis: r_i r_j is pair (i, j)'s scaled square.
    r = np.ldexp(sv, shift) * sv
    prefix, suffix = np.cumsum(r), np.append(np.cumsum(r[::-1])[::-1], 0.0)  # suffix[c] = S(c)
    total = suffix[0] * suffix[0]
    floor = rank_tol ** 2 * total
    b = min(n, 32)
    while True:
        weights = np.outer(sv[:b], sv[:b]).ravel()
        order = np.argsort(-weights, kind="stable")
        scaled = np.ldexp(weights[order], shift)
        rank, dropped = _cut(scaled, suffix[b] * (2.0 * prefix[b - 1] + suffix[b]), floor)
        if b == n or (dropped <= floor and sv[0] * sv[b] < weights[order[rank - 1]]):
            break
        b = min(2 * b, n)
    return *_kept(scaled, rank, dropped, total), *np.divmod(order[:rank], b)


def _parity_svd(upper: np.ndarray,
                mirror: np.ndarray) -> tuple[np.ndarray, Callable[[int], tuple[np.ndarray, ...]]]:
    """The SVD of an (n, n) matrix psi, n even, with psi[::-1, ::-1] == psi,
    from its rows on the positive half, upper = psi[h:, h:] and mirror =
    psi[h:, h-1::-1] for h = n/2, by two (h, h) SVDs: its singular values,
    descending, and `leading(m)`, the first m left and right singular
    vectors as (m, n) rows.  The reflection e_i <-> e_{n-1-i} commutes with
    psi, so in the basis (e_i +- e_{n-1-i})/sqrt2 psi splits into an even
    block upper + mirror and an odd block upper - mirror.  The singular
    values of both, merged descending (stable: ties put the even block
    first), are psi's; each singular vector v of a block unfolds to
    [+-v[::-1], v] / sqrt2 on the full axis, so every vector is exactly even
    or odd.  Only the m asked for are unfolded."""
    h = upper.shape[0]
    u, sv, vh = np.linalg.svd(np.stack([upper + mirror, upper - mirror]))
    order = np.argsort(-sv, axis=None, kind="stable")

    def leading(m: int) -> tuple[np.ndarray, ...]:
        parity, k = np.divmod(order[:m], h)
        sign = np.array([1.0, -1.0])[parity, None]
        # (m, n/2) rows over sqrt2 before the mirror half is copied.
        halves = u[parity, :, k] / math.sqrt(2.0), vh[parity, k] / math.sqrt(2.0)
        return tuple(np.concatenate([sign * v[:, ::-1], v], axis=1) for v in halves)

    return sv.ravel()[order], leading


def thin_crystal_gaussian(params: GaussianBeamParams, grid: Grid, *,
                          include_phase: bool = True, rank_tol: float = 1e-6) -> TwoPhotonAmplitude:
    """Position-space biphoton from a thin crystal pumped by a Gaussian:

        Psi ~ exp{-|x1+x2|^2/(4 w^2(z))
               + i (k_p/4) [z0^2 |x1-x2|^2 / (2 z^2 R(z)) + (|x1|^2+|x2|^2)/R(z)]}

    The amplitude separates per Cartesian axis, so the photon-split
    factorization is built from the per-axis SVD psi = u s vh: photon 1's
    term r is u[:, kx_r] (x) u[:, ky_r] and photon 2's vh[kx_r] (x) vh[ky_r].
    On the half-offset grid psi(-s, -t) = psi(s, t) exactly, so that SVD
    is two half-size SVDs, one per reflection parity (_parity_svd), and every
    per-axis vector is exactly even or odd.
    The amplitude holds the factors in that per-axis form (the leading m <= n
    singular vectors and the maps kx, ky), so its Grams contract per
    axis; the (rank, n, n) arrays photon1/photon2 are built on first read.
    Any rank is taken: the unweighted report contracts an m x m coefficient
    core, and only reading the arrays or a weighted Gram (the generic
    interferometer path) needs rank <= 4096.
    The coefficient k_p z0^2 / (8 z (z^2 + z0^2)) of the |x1-x2|^2 chirp
    diverges as z -> 0+, and the rank grows with it; z = 0 itself is taken
    without phase.  P_c is unaffected: the phase cancels in J.  The achieved
    relative truncation error is stored on the result as `truncation_error`.
    """
    w = params.spot_size
    h = grid.n // 2
    p = grid.axis[h:]  # the positive half axis: grid.axis[h - 1 - j] = -p[j] exactly
    s = p[:, None]
    kp, z0, r = params.pump_wavenumber, params.rayleigh_length, params.curvature_radius

    def rows(t: np.ndarray) -> np.ndarray:
        """psi on the rows x_i = p_i and the columns t."""
        exponent = -((s + t) ** 2) / (4.0 * (w * w))
        if include_phase and params.z > 0.0:
            exponent = exponent + 1j * (kp / 4.0) * (
                z0 * z0 * (s - t) ** 2 / (2.0 * (params.z * params.z) * r)
                + (s ** 2 + t ** 2) / r)
        return np.exp(exponent)

    # An extreme z or k_p overflows the chirp, or a tiny z divides it by
    # zero; either shows as a non-finite psi, reported below.  The two
    # column halves are psi[h:, h:] and psi[h:, h-1::-1], bit for bit:
    # psi(-s, -t) = psi(s, t) gives the rows at x < 0.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        upper, mirror = rows(p[None, :]), rows(-p[None, :])
    if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(mirror))):
        raise ValueError(f"the thin-crystal amplitude is not finite for z = {params.z} and "
                         f"pump_wavenumber = {params.pump_wavenumber}")
    sv, leading = _parity_svd(upper, mirror)
    del upper, mirror  # not held through the truncation
    # Pair weights sigma_k sigma_k' over the two axes, truncated together.
    coeffs, err, ix, iy = _truncate_pairs(sv, rank_tol)
    # (0, k) outweighs any pair holding an index above k and sorts first among
    # equals: the leading m vectors are in use, scaled to unit quadrature norm.
    m, root = max(ix.max(), iy.max()) + 1, math.sqrt(grid.spacing)
    u_used, vh_used = (v / root for v in leading(m))
    axes = (_AxisFactors(u_used, u_used, ix, iy), _AxisFactors(vh_used, vh_used, ix, iy))
    return TwoPhotonAmplitude(coeffs, None, None, grid, Representation.POSITION,
                              truncation_error=err, _form=axes)
