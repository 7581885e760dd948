"""Two-photon amplitude algebra in low-rank product-sum form.

An amplitude Phi(r1, r2) is stored as sum_r c_r f_r(r1) g_r(r2) over a shared
grid.  Real factor arrays stay real (float64; others are complex128), so
the Grams of real factors, such as the SPDC state's, are real products.
The exchange-reflection involution sigma (swap photons, flip both
y components) acts term-wise.  The norm, the overlap <sigma Phi, Phi> that
controls the beamsplitter coincidence rate and the symmetry weights follow
from two self-Grams and one sigma cross-Gram of the factors.

A factory may hand over the factors per axis, f_r = x_{ix[r]} (x) y_{iy[r]}
built from a few 1-D vectors (the thin-crystal state does).  The amplitude
then keeps that form: its Grams contract per axis, and the (rank, n, n)
arrays `photon1`/`photon2` are built only when first read, and only up to
rank 4096 (_MAX_EXPANDED_RANK), as are rank x rank Grams.  Replacing a
factor array drops the form.  When both photons share one index map and
no weight is given, the coefficients scatter into an m_x x m_y core
C[ix_r, iy_r] += c_r, and the norm and J are quadratic forms of C in the
m x m per-axis Grams: O(m^3) work, against R^2 = m^4 for the rank x rank
Grams.

A dense 4D form is kept for small grids purely as a brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import TruncationError
from .grids import Grid, Representation, TransverseMode, fourier_kernel_1d

_DENSE_MAX_N = 32
# Per-axis factors of a larger rank are never expanded into (rank, n, n)
# arrays or rank x rank Grams; the core contraction takes any rank.
_MAX_EXPANDED_RANK = 4096
_PHOTONS = ("photon1", "photon2")


@dataclass(frozen=True, eq=False)
class _AxisFactors:
    """One photon's factors held per axis: term r is the outer product
    x[ix[r]] (x) y[iy[r]] of rows of x (mx, n) and y (my, n)."""

    x: np.ndarray
    y: np.ndarray
    ix: np.ndarray
    iy: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        """The (rank, n, n) factor array, built on first read; read-only."""
        self.check_expandable("(rank, n, n) factor arrays")
        values = self.x[self.ix][:, :, None] * self.y[self.iy][:, None, :]
        values.setflags(write=False)
        return values

    def holds(self, values: np.ndarray | None) -> bool:
        """Whether `values` stands for these factors: not given, or the very
        array built from them."""
        return values is None or values is self.__dict__.get("values")

    def check_expandable(self, what: str) -> None:
        """TruncationError if the rank is too large to build `what` from."""
        if self.ix.size > _MAX_EXPANDED_RANK:
            raise TruncationError(
                f"rank {self.ix.size} is above the cap of {_MAX_EXPANDED_RANK} for "
                f"{what}; use a smaller grid half-width or loosen the tolerance")

    def reflect_y(self) -> _AxisFactors:
        return _AxisFactors(self.x, self.y[:, ::-1], self.ix, self.iy)


@dataclass(frozen=True, eq=False)
class TwoPhotonAmplitude:
    """Low-rank two-photon amplitude: coeffs (R,), factors (R, n, n).

    The coefficients are complex; a factor array is float64 if it is given
    real and complex128 otherwise.  A factory may pass photon1 = photon2 =
    None with the per-axis factors in `_axes`; the arrays are then built
    when first read.
    """

    coeffs: np.ndarray
    photon1: np.ndarray | None
    photon2: np.ndarray | None
    grid: Grid
    representation: Representation
    truncation_error: float | None = field(default=None, compare=False)
    _axes: tuple[_AxisFactors, _AxisFactors] | None = field(default=None, repr=False,
                                                             compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)
        n = self.grid.n
        given = (self.photon1, self.photon2)
        axes = self._axes
        if axes is not None and all(map(_AxisFactors.holds, axes, given)):
            if any(a.ix.size != c.size or a.iy.size != c.size
                   or a.x.shape[1] != n or a.y.shape[1] != n for a in axes):
                raise ValueError("factor arrays must have shape (rank, n, n)")
            for name in _PHOTONS:  # served from _axes by __getattr__
                object.__delattr__(self, name)
            return
        if axes is not None:  # a replaced factor: the per-axis form is stale
            given = tuple(a.values if v is None else v for a, v in zip(axes, given))
            object.__setattr__(self, "_axes", None)
        for name, values in zip(_PHOTONS, given):
            if values is None:
                raise ValueError("factor arrays must have shape (rank, n, n)")
            values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
            if values.shape != (c.size, n, n):
                raise ValueError("factor arrays must have shape (rank, n, n)")
            object.__setattr__(self, name, values)

    def __getattr__(self, name):
        # Only reached for photon1/photon2 of a per-axis amplitude.
        axes = self.__dict__.get("_axes")
        if axes is None or name not in _PHOTONS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return axes[_PHOTONS.index(name)].values

    @property
    def rank(self) -> int:
        return self.coeffs.size


def _factors(amp: TwoPhotonAmplitude):
    """Photon 1's and photon 2's factors: per axis if held so, else arrays."""
    return amp._axes if amp._axes is not None else (amp.photon1, amp.photon2)


def _with_factors(amp: TwoPhotonAmplitude, f, g, **changes) -> TwoPhotonAmplitude:
    """amp with factors f, g in the form `_factors` returns, and other changes."""
    if isinstance(f, _AxisFactors):
        return replace(amp, photon1=None, photon2=None, _axes=(f, g), **changes)
    return replace(amp, photon1=f, photon2=g, _axes=None, **changes)


def _reflect_y(factors):
    return factors.reflect_y() if isinstance(factors, _AxisFactors) else factors[:, :, ::-1]


@dataclass(frozen=True, eq=False)
class DenseAmplitude:
    """Brute-force 4D amplitude indexed (x1, y1, x2, y2); small grids only."""

    values: np.ndarray
    grid: Grid
    representation: Representation

    def __post_init__(self):
        n = self.grid.n
        if n > _DENSE_MAX_N:
            raise ValueError(f"dense form limited to n <= {_DENSE_MAX_N}, got {n}")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (n, n, n, n):
            raise ValueError("dense values must have shape (n, n, n, n)")
        object.__setattr__(self, "values", v)


def from_modes(terms: list[tuple[complex, TransverseMode, TransverseMode]]) -> TwoPhotonAmplitude:
    """Assemble an (unnormalized) amplitude from (coefficient, f, g) terms."""
    if not terms:
        raise ValueError("need at least one product term")
    _, f0, g0 = terms[0]
    for _, f, g in terms:
        if f.grid != f0.grid or g.grid != f0.grid:
            raise ValueError("all factors must share one grid")
        if f.representation is not f0.representation or g.representation is not f0.representation:
            raise ValueError("all factors must share one representation")
    coeffs = np.array([c for c, _, _ in terms], dtype=complex)
    photon1 = np.stack([f.values for _, f, _ in terms])
    photon2 = np.stack([g.values for _, _, g in terms])
    return TwoPhotonAmplitude(coeffs, photon1, photon2, f0.grid, f0.representation)


def _gram(a, b=None, weight: float = 1.0, pointwise: np.ndarray | None = None) -> np.ndarray:
    """G[r, s] = <a_r, pointwise b_s> with midpoint weights; b defaults to a.
    Factors held per axis on both sides contract per axis (_axis_gram)."""
    b = a if b is None else b
    with np.errstate(invalid="ignore", over="ignore"):  # callers check finiteness
        if isinstance(a, _AxisFactors):
            return _axis_gram(a, b, weight, pointwise)
        if pointwise is not None:
            b = b * pointwise
        return (np.conj(a).reshape(a.shape[0], -1) @ b.reshape(b.shape[0], -1).T) * weight


def _axis_gram(a: _AxisFactors, b: _AxisFactors, weight: float,
               pointwise: np.ndarray | None) -> np.ndarray:
    """The Gram of per-axis factors for a real 2-D weight W.  With
    A[(p, q), i] = conj(a.x[p, i]) b.x[q, i], B likewise on y and
    K = A W B^T, G[r, s] = K[(a.ix[r], b.ix[s]), (a.iy[r], b.iy[s])], read by
    one flat gather: m^2 n^2 + m^4 n work for m vectors per axis, against
    R^2 n^2 for the (R, n, n) arrays.  Without W the integral separates, and
    G is the product of the two axes' m x m Grams."""
    for factors in (a, b):
        factors.check_expandable("rank x rank Grams")
    if pointwise is None:
        gx, gy = _axis_grams(a, b, weight)
        return (np.take(np.take(gx, a.ix, axis=0), b.ix, axis=1)
                * np.take(np.take(gy, a.iy, axis=0), b.iy, axis=1))
    n = a.x.shape[1]
    ax = (np.conj(a.x)[:, None, :] * b.x[None, :, :]).reshape(-1, n)
    ay = (np.conj(a.y)[:, None, :] * b.y[None, :, :]).reshape(-1, n)
    # A W as one real product: W is real, so Re and Im rows go through it apart.
    aw = np.concatenate([ax.real, ax.imag]) @ (pointwise * weight)
    k = (aw[:ax.shape[0]] + 1j * aw[ax.shape[0]:]) @ ay.T
    cols = k.shape[1]
    rows = a.ix * (b.x.shape[0] * cols) + a.iy * b.y.shape[0]
    return np.take(k.ravel(), rows[:, None] + (b.ix * cols + b.iy)[None, :])


def _axis_grams(a: _AxisFactors, b: _AxisFactors, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-axis m x m Grams weight <a.x_p, b.x_q> and <a.y_p, b.y_q>."""
    return (np.conj(a.x) @ b.x.T) * weight, np.conj(a.y) @ b.y.T


def _core(amp: TwoPhotonAmplitude) -> np.ndarray | None:
    """The coefficient core C[p, q] = sum of c_r over ix_r = p, iy_r = q if
    both photons hold their factors per axis on one index map, else None."""
    if amp._axes is None:
        return None
    f, g = amp._axes
    if (f.x.shape != g.x.shape or f.y.shape != g.y.shape
            or not (np.array_equal(f.ix, g.ix) and np.array_equal(f.iy, g.iy))):
        return None
    core = np.zeros((f.x.shape[0], f.y.shape[0]), dtype=complex)
    np.add.at(core, (f.ix, f.iy), amp.coeffs)
    return core


def _core_form(core: np.ndarray, ax: np.ndarray, bx: np.ndarray,
               ay: np.ndarray, by: np.ndarray) -> complex:
    """<C, Hx C Hy^T> for Hx = ax o bx and Hy = ay o by: the form
    sum_rs conj(c_r) Hx[ix_r, ix_s] Hy[iy_r, iy_s] c_s in O(m^3)."""
    with np.errstate(invalid="ignore", over="ignore"):  # callers check finiteness
        return complex(np.vdot(core, (ax * bx) @ core @ (ay * by).T))


def _core_norm(core: np.ndarray, f: _AxisFactors, g: _AxisFactors, weight: float) -> float:
    """||Phi||^2 = c^H (G1 o G2) c with (G1 o G2)[r, s] = Hx[ix_r, ix_s] Hy[iy_r, iy_s]
    for the per-axis Hx = Gx1 o Gx2 and Hy = Gy1 o Gy2."""
    (x1, y1), (x2, y2) = _axis_grams(f, f, weight), _axis_grams(g, g, weight)
    return _core_form(core, x1, x2, y1, y2).real


def _times(*weights: np.ndarray | None) -> np.ndarray | None:
    """The product of the pointwise weights given; None (weight 1) if none is."""
    given = [w for w in weights if w is not None]
    return math.prod(given) if given else None


def _sigma_grams(amp: TwoPhotonAmplitude, envelope: np.ndarray | None = None,
                 mask: np.ndarray | None = None) -> tuple[float, float, float]:
    """(||Phi||^2, ||Phi'||^2, J' = <sigma Phi', Phi'>) for Phi = amp with
    both photons multiplied by the real `mask` and Phi' = Phi with the real
    `envelope` on photon 1 (either is 1 when None).  They come from the
    self-Grams G1 = <f_r, f_s>, G2 = <g_r, g_s> and the cross-Gram
    X = <Pi_y g_r, f_s> of those factors, each a Gram of amp's factors with a
    pointwise weight: ||Phi||^2 = c^H (G1 o G2) c and J = c^H (X o X^H) c, as
    the photon-2 Gram of sigma Phi is X^H.  G2 serves both norms.  Without
    weights, an amplitude with a coefficient core (`_core`) takes the per-axis
    m x m Grams instead: J = <C, Kx C Ky^T> with Kx = Xx o Xx^H for the
    per-axis cross-Gram Xx, and Ky likewise."""
    core = _core(amp) if envelope is None and mask is None else None
    if core is None:
        nsq, nsq_env, j = _factor_grams(amp, envelope, mask)
    else:
        w = amp.grid.weight
        f, g = amp._axes
        nsq = nsq_env = _core_norm(core, f, g, w)
        xx, xy = _axis_grams(_reflect_y(g), f, w)
        j = _core_form(core, xx, xx.conj().T, xy, xy.conj().T)
    if not all(map(math.isfinite, (nsq, nsq_env, j.real, j.imag))):
        raise ValueError(f"non-finite amplitude: ||Phi||^2 = {nsq}, J = {j}")
    if abs(j.imag) > 1e-10 * nsq_env:  # J' / ||Phi'||^2 must be real
        raise ValueError(f"sigma overlap has imaginary part {j.imag}")
    return nsq, nsq_env, j.real


def _factor_grams(amp: TwoPhotonAmplitude, envelope: np.ndarray | None,
                  mask: np.ndarray | None) -> tuple[float, float, complex]:
    """`_sigma_grams`' three values from the rank x rank Grams, J complex."""
    c, w = amp.coeffs, amp.grid.weight
    f, g = _factors(amp)
    self_weight = _times(mask, mask)
    g2 = _gram(g, weight=w, pointwise=self_weight)
    nsq = _norm(c, _gram(f, weight=w, pointwise=self_weight), g2)
    photon1_weight = _times(envelope, mask)
    if envelope is None:
        nsq_env = nsq
    else:
        nsq_env = _norm(c, _gram(f, weight=w, pointwise=photon1_weight ** 2), g2)
    reflected_mask = None if mask is None else mask[:, ::-1]
    x = _gram(_reflect_y(g), f, w, _times(reflected_mask, photon1_weight))
    return nsq, nsq_env, complex(c.conj() @ (x * x.conj().T) @ c)


def _norm(c: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> float:
    return float((c.conj() @ (g1 * g2) @ c).real)


def _normalized_overlap(amp: TwoPhotonAmplitude) -> tuple[float, float]:
    nsq, _, j = _sigma_grams(amp)
    if abs(nsq - 1.0) > 1e-6:
        raise ValueError(f"amplitude not normalized: ||Phi||^2 = {nsq}")
    return nsq, j


def norm_squared(amp: TwoPhotonAmplitude) -> float:
    w = amp.grid.weight
    f, g = _factors(amp)
    core = _core(amp)
    if core is not None:
        return _core_norm(core, f, g, w)
    return _norm(amp.coeffs, _gram(f, weight=w), _gram(g, weight=w))


def normalize(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    nsq = norm_squared(amp)
    if not (math.isfinite(nsq) and nsq > 0.0):
        raise ValueError(f"cannot normalize an amplitude of squared norm {nsq}")
    return _with_factors(amp, *_factors(amp), coeffs=amp.coeffs / np.sqrt(nsq))


def apply_sigma(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    """Exchange-reflection involution: (c, f, g) -> (c, Pi_y g, Pi_y f); a
    per-axis amplitude stays per axis."""
    f, g = _factors(amp)
    return _with_factors(amp, _reflect_y(g), _reflect_y(f))


def sigma_overlap(amp: TwoPhotonAmplitude) -> float:
    """J = <sigma Phi, Phi>, real in [-1, 1] for a normalized amplitude.

    J = 1 for sigma-symmetric amplitudes (perfect coalescence), J = -1 for
    antisymmetric ones (perfect anti-coalescence).
    """
    return _normalized_overlap(amp)[1]


def symmetry_decompose(amp: TwoPhotonAmplitude) -> tuple[float, float]:
    """Norms of the symmetric and antisymmetric parts (Phi +- sigma Phi)/2.

    As sigma is unitary, they equal (||Phi||^2 +- Re J)/2 and come from the
    same three Grams as J, without building the parts; they sum to 1 for a
    normalized input.
    """
    nsq, j = _normalized_overlap(amp)
    return max((nsq + j) / 2.0, 0.0), max((nsq - j) / 2.0, 0.0)  # roundoff


def to_dense(amp: TwoPhotonAmplitude) -> DenseAmplitude:
    if amp.grid.n > _DENSE_MAX_N:
        raise ValueError(f"grid too large for the dense oracle (n = {amp.grid.n})")
    values = np.einsum("r,rab,rcd->abcd", amp.coeffs, amp.photon1, amp.photon2)
    return DenseAmplitude(values, amp.grid, amp.representation)


def dense_sigma(amp: DenseAmplitude) -> DenseAmplitude:
    # (sigma Phi)(q1, q2) = Phi(q2x, -q2y, q1x, -q1y); index reversal is the
    # exact y negation on the half-offset grid.
    values = np.flip(amp.values.transpose(2, 3, 0, 1), axis=(1, 3))
    return DenseAmplitude(values, amp.grid, amp.representation)


def dense_norm_squared(amp: DenseAmplitude) -> float:
    return float(np.sum(np.abs(amp.values) ** 2) * amp.grid.weight ** 2)


def dense_normalize(amp: DenseAmplitude) -> DenseAmplitude:
    nsq = dense_norm_squared(amp)
    if nsq <= 0.0:
        raise ValueError("cannot normalize a zero-norm amplitude")
    return DenseAmplitude(amp.values / np.sqrt(nsq), amp.grid, amp.representation)


def dense_sigma_overlap(amp: DenseAmplitude) -> float:
    j = np.vdot(dense_sigma(amp).values, amp.values) * amp.grid.weight ** 2
    return float(j.real)


def position_representation(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    """Factor-wise Fourier transform of a momentum amplitude to position."""
    if amp.representation is not Representation.MOMENTUM:
        raise ValueError("amplitude is already in the position representation")
    k = fourier_kernel_1d(amp.grid, sign=+1)
    f1 = np.einsum("ia,rab,jb->rij", k, amp.photon1, k)
    f2 = np.einsum("ia,rab,jb->rij", k, amp.photon2, k)
    return replace(amp, photon1=f1, photon2=f2, grid=amp.grid.conjugate(),
                   representation=Representation.POSITION)


def compress(amp: TwoPhotonAmplitude, tol: float = 1e-12) -> TwoPhotonAmplitude:
    """Re-orthogonalize the product-sum and drop terms with coefficient
    magnitude below `tol`; bounds rank growth from repeated operations.

    The result's `truncation_error` is the input's (0 if unknown) plus the
    relative norm dropped here, a triangle bound on its distance from the
    state the input approximates."""
    s = amp.grid.spacing  # sqrt of the 2D quadrature weight
    a = amp.photon1.reshape(amp.rank, -1).T * s
    b = amp.photon2.reshape(amp.rank, -1).T * s
    q1, r1 = np.linalg.qr(a)
    q2, r2 = np.linalg.qr(b)
    core = r1 @ np.diag(amp.coeffs) @ r2.T
    u, sv, vh = np.linalg.svd(core)
    keep = sv > tol
    if not np.any(keep):
        keep[0] = True
    total = float(np.sum(sv ** 2))  # ||Phi||^2: q1 and q2 are orthonormal
    dropped = math.sqrt(float(np.sum(sv[~keep] ** 2)) / total) if total > 0 else 0.0
    f1 = (q1 @ u)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s
    f2 = (q2 @ vh.T)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s
    return replace(amp, coeffs=sv[keep].astype(complex), photon1=f1, photon2=f2,
                   truncation_error=(amp.truncation_error or 0.0) + dropped)
