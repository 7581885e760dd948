"""Two-photon amplitude algebra in low-rank product-sum form.

An amplitude Phi(r1, r2) is stored as sum_r c_r f_r(r1) g_r(r2) over a shared
grid.  Real factor arrays stay real (float64; others are complex128), so
the Grams of real factors, such as the SPDC state's, are real products.
The exchange-reflection involution sigma (swap photons, flip both
y components) acts term-wise.  The norm, the overlap <sigma Phi, Phi> that
controls the beamsplitter coincidence rate and the symmetry weights follow
from two self-Grams and one sigma cross-Gram of the factors.  For factor
arrays an unweighted evaluation is exactly those three `_gram` products,
under one np.errstate, with no probe for a per-axis core.

A factory may hand over the factors in a factored form and no factor
arrays; only then does the amplitude keep the form: its Grams contract in
that form, and the (rank, n, n) arrays `photon1`/`photon2` are built only
when first read.  Given factor arrays drop it; `normalize` and `apply_sigma`
pass the form on.  Two forms exist:

* per axis (_AxisFactors, the thin-crystal state): f_r = x_{ix[r]} (x) y_{iy[r]}
  built from a few 1-D vectors, each exactly even or odd under the axis
  reflection (read bit for bit when the form is built).  Its arrays are
  built only up to rank 4096 (_MAX_EXPANDED_RANK), as are rank x rank and
  weighted Grams.  When both photons share one index map and no weight is
  given, the coefficients scatter into an m_x x m_y core
  C[ix_r, iy_r] += c_r, and the norm and J are quadratic forms of C in the
  m x m per-axis Grams: O(m^3) work, against R^2 = m^4 for the rank x rank
  Grams.
* per parity sector (_SectorFactors, the SPDC state): f_r is exactly even or
  odd along each axis and is held as its (n^2/4,) vector on the positive
  quadrant with its two signs.

Every other Gram of either form goes by parity class (_class_grams).  Under
a weight W, a product of x-parity u and y-parity v sums against the part
W_(u,v) of W on the positive quadrant, so the Grams go one pair of parity
classes of terms at a time, on the half axes per axis and on the quadrant
per sector, and skip the pairs whose part is zero.  Without a weight only
W_(+,+) is non-zero, so terms of different classes are orthogonal; under
the even aperture the self-Grams likewise take only class-diagonal blocks.
The weights come as their parts (_Weights): folded from whole-grid arrays
(_grid_weights), or built on the quadrant by the caller.  One call builds
each half-axis table once and drops it after its last read (_Tables).

An amplitude is immutable: its coefficients and factors are read-only (a
writable array from the caller is copied once; `from_modes` and `normalize`
take the arrays the package made and froze itself with no check and no copy,
and derived amplitudes freeze their fresh arrays in place), so it keeps its
unweighted (||Phi||^2, J) from one evaluation: the one `normalize` made and
handed on, or else its first report call's.  Weighted Grams (the generic
interferometer path) are computed on every call.

A dense 4D form is kept for small grids purely as a brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import TruncationError
from .grids import (_TINY, Grid, Representation, TransverseMode, _check_compatible,
                    _read_only, fourier_kernel_1d)

_DENSE_MAX_N = 32
# Per-axis factors of a larger rank are never expanded into (rank, n, n)
# arrays or rank x rank Grams; the core contraction takes any rank.
_MAX_EXPANDED_RANK = 4096
_PHOTONS = ("photon1", "photon2")


@dataclass(frozen=True, eq=False)
class _AxisFactors:
    """One photon's factors held per axis: term r is the outer product
    x[ix[r]] (x) y[iy[r]] of rows of x (mx, n) and y (my, n).  Every row is
    exactly even (+1) or odd (-1) under the axis reflection i <-> n-1-i, as
    x_sign and y_sign say; a row that is neither is a ValueError."""

    x: np.ndarray
    y: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    x_sign: np.ndarray = field(init=False, repr=False)
    y_sign: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _read_only(self.x, self.y, self.ix, self.iy)
        x_sign = _parities(self.x, "x")
        object.__setattr__(self, "x_sign", x_sign)
        object.__setattr__(self, "y_sign", x_sign if self.y is self.x else _parities(self.y, "y"))

    @cached_property
    def values(self) -> np.ndarray:
        """The (rank, n, n) factor array, built on first read; read-only."""
        self.check_expandable("(rank, n, n) factor arrays")
        return _read_only(self.x[self.ix][:, :, None] * self.y[self.iy][:, None, :])[0]

    def term_signs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x_sign[self.ix], self.y_sign[self.iy]

    def fits(self, rank: int, n: int) -> bool:
        return (n % 2 == 0 and self.ix.size == rank and self.iy.size == rank
                and self.x.shape[1] == n and self.y.shape[1] == n)

    def check_expandable(self, what: str) -> None:
        """TruncationError if the rank is too large to build `what` from."""
        if self.ix.size > _MAX_EXPANDED_RANK:
            raise TruncationError(
                f"rank {self.ix.size} is above the cap of {_MAX_EXPANDED_RANK} for "
                f"{what}; use a smaller grid half-width or loosen the tolerance")

    def reflect_y(self) -> _AxisFactors:
        # Reversing a row keeps its parity bit for bit: the signs carry over unread.
        flipped = object.__new__(_AxisFactors)
        flipped.__dict__.update(x=self.x, y=self.y[:, ::-1], ix=self.ix, iy=self.iy,
                                x_sign=self.x_sign, y_sign=self.y_sign)
        return flipped


def _parities(rows: np.ndarray, axis: str) -> np.ndarray:
    """+1 for each row equal to its reverse bit for bit, -1 for each row equal
    to minus its reverse; ValueError if a row is neither."""
    mirrored = rows[:, ::-1]
    even, odd = np.all(mirrored == rows, axis=1), np.all(mirrored == -rows, axis=1)
    if not np.all(even | odd):
        raise ValueError(f"per-axis factors must be exactly even or odd: row "
                         f"{np.flatnonzero(~(even | odd))[0]} of {axis} is neither")
    return _read_only(np.where(even, 1.0, -1.0))[0]


@dataclass(frozen=True, eq=False)
class _SectorFactors:
    """One photon's factors held per parity sector: term r is even (+1) or
    odd (-1) along x and along y as x_sign[r] and y_sign[r] say, and is held
    as its vector quadrant[r] in the per-axis even/odd basis on the positive
    quadrant, n^2/4 samples flattened (see `_unfold`)."""

    quadrant: np.ndarray
    x_sign: np.ndarray
    y_sign: np.ndarray

    def __post_init__(self):
        _read_only(self.quadrant, self.x_sign, self.y_sign)

    @cached_property
    def values(self) -> np.ndarray:
        """The (rank, n, n) factor array, built on first read; read-only."""
        h = math.isqrt(self.quadrant.shape[1])
        return _read_only(_unfold(self.quadrant.reshape(-1, h, h), self.x_sign, self.y_sign))[0]

    def term_signs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x_sign, self.y_sign

    def fits(self, rank: int, n: int) -> bool:
        return (n % 2 == 0 and self.quadrant.shape == (rank, (n // 2) ** 2)
                and self.x_sign.shape == self.y_sign.shape == (rank,))

    def reflect_y(self) -> _SectorFactors:
        # Exact: the y reflection of a factor of y-parity s is s times it.
        return _SectorFactors(self.quadrant * self.y_sign[:, None], self.x_sign, self.y_sign)


def _frozen(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`.  An array that can still be
    written, itself or an array it views, is copied once; a read-only array
    over read-only memory, as the package's own producers hand over, is
    taken as it is."""
    arr = np.asarray(values, dtype=dtype)
    if isinstance(values, np.ndarray) and np.may_share_memory(arr, values):
        owner = arr
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if isinstance(owner, np.ndarray):
            arr = arr.copy()
    return _read_only(arr)[0]


def _unfold(quadrant: np.ndarray, x_sign: np.ndarray, y_sign: np.ndarray) -> np.ndarray:
    """(R, n, n) factors from their (R, n/2, n/2) parity-basis vectors on the
    positive quadrant: factor r is even (+1) or odd (-1) in x and in y as
    x_sign[r] and y_sign[r] say, so each mirrored quadrant is the positive
    one reversed times those signs.  The basis vector of one axis is
    (e_q +- e_-q)/sqrt2, hence the 1/2 for two axes."""
    half = quadrant * 0.5
    half = np.concatenate([x_sign[:, None, None] * half[:, ::-1, :], half], axis=1)
    return np.concatenate([y_sign[:, None, None] * half[:, :, ::-1], half], axis=2)


@dataclass(frozen=True, eq=False)
class TwoPhotonAmplitude:
    """Low-rank two-photon amplitude: coeffs (R,), factors (R, n, n).

    The coefficients are complex; a factor array is float64 if it is given
    real and complex128 otherwise.  Both are held read-only (see `_frozen`),
    so the unweighted Gram values are kept after their first evaluation.
    `_form` holds both photons' factors in one factored form (_AxisFactors
    or _SectorFactors) and is kept only when photon1 = photon2 = None; the
    arrays are then built when first read.  Given factor arrays drop `_form`.
    So `dataclasses.replace` on an amplitude in a factored form reads
    photon1 and photon2, builds both (R, n, n) arrays and drops the form:
    every Gram of the copy then goes by the rank x rank array products.
    """

    coeffs: np.ndarray
    photon1: np.ndarray | None
    photon2: np.ndarray | None
    grid: Grid
    representation: Representation
    truncation_error: float | None = None
    _form: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        c = np.atleast_1d(_frozen(self.coeffs, complex))
        object.__setattr__(self, "coeffs", c)
        n = self.grid.n
        form = self._form
        if form is not None and self.photon1 is None and self.photon2 is None:
            if type(form[0]) is not type(form[1]) or not all(f.fits(c.size, n) for f in form):
                raise ValueError("factor arrays must have shape (rank, n, n)")
            for name in _PHOTONS:  # served from _form by __getattr__
                object.__delattr__(self, name)
            return
        object.__setattr__(self, "_form", None)  # given factor arrays replace any form
        for name, values in zip(_PHOTONS, (self.photon1, self.photon2)):
            values = _frozen(values, complex if np.iscomplexobj(values) else float)
            if values.shape != (c.size, n, n):
                raise ValueError("factor arrays must have shape (rank, n, n)")
            object.__setattr__(self, name, values)

    def __getattr__(self, name):
        # Only reached for photon1/photon2 of an amplitude in a factored form.
        form = self.__dict__.get("_form")
        if form is None or name not in _PHOTONS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return form[_PHOTONS.index(name)].values

    @property
    def rank(self) -> int:
        return self.coeffs.size


def _factors(amp: TwoPhotonAmplitude):
    """Photon 1's and photon 2's factors: in their factored form if held so,
    else arrays."""
    return amp._form if amp._form is not None else (amp.photon1, amp.photon2)


def _built(coeffs: np.ndarray, f, g, grid: Grid, representation: Representation,
           truncation_error: float | None = None) -> TwoPhotonAmplitude:
    """An amplitude from parts the package made and froze itself, taken with
    no copy and no check: read-only complex coefficients (R,) and factor
    arrays (R, n, n), or f, g in one factored form (see `_factors`)."""
    amp = object.__new__(TwoPhotonAmplitude)
    fields = amp.__dict__
    fields.update(coeffs=coeffs, grid=grid, representation=representation,
                  truncation_error=truncation_error, _form=None)
    if isinstance(f, np.ndarray):
        fields.update(photon1=f, photon2=g)
    else:
        fields["_form"] = f, g
    return amp


def _with_factors(amp: TwoPhotonAmplitude, f, g, **changes) -> TwoPhotonAmplitude:
    """amp with factors f, g in the form `_factors` returns, and other changes.
    Coefficients and factor arrays must be fresh or read-only: they are frozen
    in place, and a factor array over memory still writable is copied."""
    if isinstance(f, np.ndarray):
        f, g = (_frozen(values, values.dtype) for values in _read_only(f, g))
    parts = {"coeffs": amp.coeffs, "grid": amp.grid, "representation": amp.representation,
             "truncation_error": amp.truncation_error, **changes}
    _read_only(parts["coeffs"])
    return _built(f=f, g=g, **parts)


def _reflect_y(factors):
    return factors[:, :, ::-1] if isinstance(factors, np.ndarray) else factors.reflect_y()


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
    f0 = terms[0][1]
    for _, f, g in terms:
        _check_compatible(f, f0)
        _check_compatible(g, f0)
    coeffs = np.array([c for c, _, _ in terms], dtype=complex)
    photon1 = np.array([f.values for _, f, _ in terms])
    photon2 = np.array([g.values for _, _, g in terms])
    return _built(*_read_only(coeffs, photon1, photon2), f0.grid, f0.representation)


def _gram(a, b=None, weight: float = 1.0, pointwise: np.ndarray | None = None) -> np.ndarray:
    """G[r, s] = <a_r, pointwise b_s> with midpoint weights for factor arrays
    a and b (R, n, n); b defaults to a.  Overflow is not trapped: the caller
    checks the values for finiteness."""
    b = a if b is None else b
    if pointwise is not None:
        b = b * pointwise
    return (np.conj(a).reshape(a.shape[0], -1) @ b.reshape(b.shape[0], -1).T) * weight


def _axis_grams(a: _AxisFactors, b: _AxisFactors, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-axis m x m Grams weight <a.x_p, b.x_q> and <a.y_p, b.y_q>."""
    return (np.conj(a.x) @ b.x.T) * weight, np.conj(a.y) @ b.y.T


def _core(amp: TwoPhotonAmplitude) -> np.ndarray | None:
    """The coefficient core C[p, q] = sum of c_r over ix_r = p, iy_r = q if
    both photons hold their factors per axis on one index map, else None."""
    f, g = _factors(amp)
    if (not isinstance(f, _AxisFactors) or f.x.shape != g.x.shape or f.y.shape != g.y.shape
            or not (np.array_equal(f.ix, g.ix) and np.array_equal(f.iy, g.iy))):
        return None
    core = np.zeros((f.x.shape[0], f.y.shape[0]), dtype=complex)
    np.add.at(core, (f.ix, f.iy), amp.coeffs)
    return core


def _core_form(core: np.ndarray, ax: np.ndarray, bx: np.ndarray,
               ay: np.ndarray, by: np.ndarray) -> complex:
    """<C, Hx C Hy^T> for Hx = ax o bx and Hy = ay o by: the form
    sum_rs conj(c_r) Hx[ix_r, ix_s] Hy[iy_r, iy_s] c_s in O(m^3)."""
    return complex(np.vdot(core, (ax * bx) @ core @ (ay * by).T))


def _times(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """The product of two pointwise weights, None (weight 1) standing for 1."""
    return b if a is None else a if b is None else a * b


def _norms_and_overlap(amp: TwoPhotonAmplitude, envelope: np.ndarray | None = None,
                       mask: np.ndarray | None = None) -> tuple[float, float, complex]:
    """(||Phi||^2, ||Phi'||^2, J' = <sigma Phi', Phi'>) for Phi = amp with
    both photons multiplied by the real `mask` and Phi' = Phi with the real
    `envelope` on photon 1 (either is 1 when None).  They come from the
    self-Grams G1 = <f_r, f_s>, G2 = <g_r, g_s> and the cross-Gram
    X = <Pi_y g_r, f_s> of those factors, each a Gram of amp's factors with a
    pointwise weight: ||Phi||^2 = c^H (G1 o G2) c and J = c^H (X o X^H) c, as
    the photon-2 Gram of sigma Phi is X^H.  G2 serves both norms.  Without
    weights, an amplitude with a coefficient core (`_core`) takes the per-axis
    m x m Grams instead: ||Phi||^2 = <C, Hx C Hy^T> with Hx = Gx1 o Gx2 for
    the per-axis self-Grams, and J = <C, Kx C Ky^T> with Kx = Xx o Xx^H for
    the per-axis cross-Gram Xx; Hy and Ky likewise.  Every other factored
    amplitude goes by parity class (`_class_grams`), unweighted ones as
    under the weight 1.  ValueError if any of the three is not finite.  The
    unweighted values are kept on the amplitude, whose factors are
    read-only, and served on later calls.  Factor arrays go straight to the
    rank x rank Grams (`_factor_grams`), with no core probe."""
    unweighted = envelope is None and mask is None
    if unweighted and "_grams" in amp.__dict__:
        return amp.__dict__["_grams"]
    f, g = _factors(amp)
    with np.errstate(invalid="ignore", over="ignore"):  # checked for finiteness below
        if isinstance(f, np.ndarray):
            values = _factor_grams(amp, envelope, mask)
        elif not unweighted or (core := _core(amp)) is None:
            values = _class_grams(amp, _grid_weights(amp.grid, envelope, mask))
        else:
            w = amp.grid.weight
            (x1, y1), (x2, y2) = _axis_grams(f, f, w), _axis_grams(g, g, w)
            nsq = _core_form(core, x1, x2, y1, y2).real
            xx, xy = _axis_grams(_reflect_y(g), f, w)
            values = nsq, nsq, _core_form(core, xx, xx.conj().T, xy, xy.conj().T)
    values = _finite(*values)
    if unweighted:
        amp.__dict__["_grams"] = values
    return values


def _finite(nsq: float, nsq_env: float, j: complex) -> tuple[float, float, complex]:
    """The three values, or ValueError if any is not finite."""
    if not all(map(math.isfinite, (nsq, nsq_env, j.real, j.imag))):
        raise ValueError(f"non-finite amplitude: squared norm {nsq}, J = {j}")
    return nsq, nsq_env, j


def _real_overlap(nsq: float, nsq_env: float, j: complex) -> tuple[float, float, float]:
    """(nsq, nsq_env, Re j): ValueError if Im j is above 1e-10 nsq_env, as
    J' / ||Phi'||^2 must be real."""
    if abs(j.imag) > 1e-10 * nsq_env:
        raise ValueError(f"sigma overlap has imaginary part {j.imag}")
    return nsq, nsq_env, j.real


def _sigma_grams(amp: TwoPhotonAmplitude, envelope: np.ndarray | None = None,
                 mask: np.ndarray | None = None) -> tuple[float, float, float]:
    """`_norms_and_overlap` with J' real (`_real_overlap`)."""
    return _real_overlap(*_norms_and_overlap(amp, envelope, mask))


def _folded_sigma_grams(amp: TwoPhotonAmplitude, weights: _Weights) -> tuple[float, float, float]:
    """`_sigma_grams` of an amplitude held in a factored form, with the
    weights given by their parity parts on the positive quadrant."""
    with np.errstate(invalid="ignore", over="ignore"):  # checked for finiteness here
        return _real_overlap(*_finite(*_class_grams(amp, weights)))


def _parity_fold(quadrants: tuple[np.ndarray, ...],
                 scale: float) -> dict[tuple[float, float], np.ndarray]:
    """The parity parts W_(u,v) = W(x, y) + u W(-x, y) + v W(x, -y)
    + uv W(-x, -y) of a real weight W on the positive quadrant, times
    `scale`, for the signs u, v = +-1 whose part is not all zero.
    `quadrants` holds W(x, y), W(-x, y), W(-x, -y) and W(x, -y) at the
    quadrant's samples x, y > 0.  A product of x-parity u and y-parity v
    sums against W over the grid as against W_(u,v) over the quadrant."""
    w0, w1, w2, w3 = quadrants
    parts = {}
    for u, along_x in ((1.0, np.add), (-1.0, np.subtract)):
        y_plus, y_minus = along_x(w0, w1), along_x(w3, w2)
        for v, along_y in ((1.0, np.add), (-1.0, np.subtract)):
            part = along_y(y_plus, y_minus)
            if np.any(part):
                parts[u, v] = part * scale
    return parts


def _parity_parts(weight: np.ndarray | None, n: int,
                  scale: float) -> dict[tuple[float, float], np.ndarray]:
    """`_parity_fold` of a real weight on the whole (n, n) grid (W = 1 if None)."""
    h = n // 2
    if weight is None:
        return _parity_fold((np.ones((h, h)),) * 4, scale)
    return _parity_fold((weight[h:, h:], weight[h - 1::-1, h:], weight[h - 1::-1, h - 1::-1],
                         weight[h:, h - 1::-1]), scale)


class _Weights(NamedTuple):
    """The pointwise weights of the parity-class Grams (`_class_grams`) as
    their parity parts (`_parity_fold`), times the cell weight: mask^2 for
    both photons' self-Grams, (envelope mask)^2 for photon 1's enveloped
    self-Gram (None without an envelope), and mask(x, -y) envelope mask for
    the sigma cross-Gram."""

    self: dict
    env: dict | None
    cross: dict


def _grid_weights(grid: Grid, envelope: np.ndarray | None,
                  mask: np.ndarray | None) -> _Weights:
    """`_Weights` for a real envelope and mask on the whole grid (1 if None)."""
    n, w = grid.n, grid.weight
    photon1_weight = _times(envelope, mask)
    reflected_mask = None if mask is None else mask[:, ::-1]
    return _Weights(_parity_parts(_times(mask, mask), n, w),
                    None if envelope is None else _parity_parts(photon1_weight ** 2, n, w),
                    _parity_parts(_times(reflected_mask, photon1_weight), n, w))


@dataclass(frozen=True)
class _ClassTerms:
    """One photon's per-axis factors on the terms of one parity class: the x
    and y vectors those terms use, of x- and y-parity `parity`, as columns on
    the positive half axis, and each term's column in them.  `tables` is
    the store of the `_class_grams` call that made them."""

    x: np.ndarray
    y: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    parity: tuple[float, float]
    tables: _Tables = field(repr=False)


@dataclass(frozen=True)
class _SectorTerms:
    """One photon's per-sector factors on the terms of one parity class: their
    quadrant vectors, of x- and y-parity `parity`."""

    quadrant: np.ndarray
    parity: tuple[float, float]


class _Tables:
    """The half-axis tables of one `_class_grams` call, each built once.
    Keys hold the ids of arrays the call holds until it returns.  Column
    sets are kept for the whole call (`kept`).  A product table, a weighted
    product or a gather index (`_block_keys`) is read through `read`, after
    `expect` has counted every block that will read it, and is dropped
    after its last read, so the call holds only the tables still to be
    read."""

    def __init__(self):
        self._kept, self._tables, self._reads = {}, {}, {}

    def kept(self, key: tuple, build):
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build()
        return value

    def expect(self, a, b, parts: dict) -> np.ndarray | None:
        """Count the reads of block (a, b) under `parts`; its part, or None."""
        part = _part(a, b, parts)
        if part is not None:
            for key in _block_keys(a, b, part):
                self._reads[key] = self._reads.get(key, 0) + 1
        return part

    def read(self, key: tuple, build):
        value = self._tables.pop(key, None)
        if value is None:
            value = build()
        left = self._reads.get(key, 0) - 1
        self._reads[key] = left
        if left > 0:
            self._tables[key] = value
        return value


def _part(a, b, parts: dict) -> np.ndarray | None:
    """The part of `parts` that block (a, b) takes: that of their parities."""
    return parts.get((a.parity[0] * b.parity[0], a.parity[1] * b.parity[1]))


def _block_keys(a: _ClassTerms | _SectorTerms, b: _ClassTerms | _SectorTerms,
                part: np.ndarray) -> tuple:
    """The tables block (a, b) reads under the weight part `part`: per axis,
    the product tables on x and on y, W^T times the first and the gather
    index; none per sector."""
    if isinstance(a, _SectorTerms):
        return ()
    return (("product", id(a.x), id(b.x)), ("product", id(a.y), id(b.y)),
            ("weighted", id(part), id(a.x), id(b.x)),
            ("gather", id(a.ix), id(a.iy), id(b.ix), id(b.iy)))


def _class_terms(a: _AxisFactors | _SectorFactors, terms: np.ndarray, label: int,
                 tables: _Tables) -> _ClassTerms | _SectorTerms:
    """a's factors on `terms`, all of one parity class of a, the class
    `label`.  Photons on one index map share its columns per class, and
    equal column sets of one array are one array."""
    parity = tuple(signs[terms[0]] for signs in a.term_signs())
    if isinstance(a, _SectorFactors):
        return _SectorTerms(a.quadrant[terms], parity)
    h = a.x.shape[1] // 2
    p, ix, q, iy = tables.kept(("index", id(a.ix), id(a.iy), label), lambda: (
        *np.unique(a.ix[terms], return_inverse=True), *np.unique(a.iy[terms], return_inverse=True)))
    x, y = (tables.kept(("columns", id(v), used.tobytes()),
                        lambda: np.ascontiguousarray(v[used, h:].T))
            for v, used in ((a.x, p), (a.y, q)))
    return _ClassTerms(x, y, ix, iy, parity, tables)


def _class_block(a: _ClassTerms | _SectorTerms, b: _ClassTerms | _SectorTerms,
                 parts: dict) -> np.ndarray | None:
    """The block G[r, s] = <a_r, W b_s> of a weighted Gram for the terms of
    two parity classes, from W's part (`_parity_fold`) of their parities; None
    where that part is zero.  Per sector, G = conj(a.quadrant)
    diag(W_(u,v)) b.quadrant^T / 4, the 1/4 from the parity basis (`_unfold`).
    Per axis, with A[i, (p, q)] = conj(a.x[i, p]) b.x[i, q] on the half axis,
    B likewise on y and K = A^T W_(u,v) B, G[r, s] = K[(a.ix[r], b.ix[s]),
    (a.iy[r], b.iy[s])], read by one flat gather.  A, B, W^T A and the
    gather index come from the call's tables (`_Tables.read`)."""
    part = _part(a, b, parts)
    if part is None:
        return None
    if isinstance(a, _SectorTerms):
        return (np.conj(a.quadrant) * (0.25 * part).ravel()) @ b.quadrant.T
    h, (x_key, y_key, left_key, gather_key) = part.shape[0], _block_keys(a, b, part)
    ax, ay = (a.tables.read(key, lambda: (np.conj(u)[:, :, None] * v[:, None, :]).reshape(h, -1))
              for key, u, v in ((x_key, a.x, b.x), (y_key, a.y, b.y)))
    # W^T A as one real product, the real and imaginary parts of A side by side.
    left = a.tables.read(left_key, lambda: (part.T @ ax.view(float)).view(complex)
                         if ax.dtype == complex else part.T @ ax)
    k = left.T @ ay

    def gather() -> np.ndarray:
        qx, py, qy = b.x.shape[1], a.y.shape[1], b.y.shape[1]
        rows = a.ix * (qx * py * qy) + a.iy * qy
        return rows[:, None] + (b.ix * (py * qy) + b.iy)[None, :]

    return np.take(k.ravel(), a.tables.read(gather_key, gather))


def _hadamard_form(cr: np.ndarray, a: np.ndarray | None, b: np.ndarray | None,
                   cs: np.ndarray) -> complex:
    """cr (a o b) cs, or 0 where either block is zero (None)."""
    return 0j if a is None or b is None else complex(cr @ (a * b) @ cs)


def _class_forms(classes: list, weights: _Weights, c: np.ndarray, block,
                 form) -> tuple[float, float, complex]:
    """c^H (G1 o G2) c under the self weight and under the envelope, and
    c^H (X o X^H) c, summed over pairs of classes (A, B), A first, from the
    blocks block(a, b, parts) (None where zero) and form(cr, a, b, cs)."""
    self_parts, env_parts, cross_parts = weights
    nsq = nsq_env = 0.0
    j = 0j
    for (rows, f_a, g_a, gr_a), (cols, f_b, g_b, gr_b) in combinations_with_replacement(classes, 2):
        diagonal = cols is rows
        cr, cs = np.conj(c[rows]), c[cols]
        g2 = block(g_a, g_b, self_parts)
        if g2 is not None:
            pair = 1.0 if diagonal else 2.0
            nsq += pair * form(cr, block(f_a, f_b, self_parts), g2, cs).real
            if env_parts is not None:
                nsq_env += pair * form(cr, block(f_a, f_b, env_parts), g2, cs).real
        cross = block(gr_a, f_b, cross_parts)
        back = cross if diagonal or cross is None else block(gr_b, f_a, cross_parts)
        cross_form = form(cr, cross, None if back is None else back.conj().T, cs)
        j += cross_form if diagonal else 2.0 * cross_form.real
    return nsq, (nsq if env_parts is None else nsq_env), j


def _class_grams(amp: TwoPhotonAmplitude, weights: _Weights) -> tuple[float, float, complex]:
    """`_norms_and_overlap`' three values for factors in a factored form,
    one pair of parity classes of terms at a time (`_class_forms`).  A term's
    class is its x- and y-parity on each photon (`term_signs`); the Gram
    block of a class pair takes one parity part of its weight, and is zero
    where that part is (`_class_block`).  c^H (G1 o G2) c and c^H (X o X^H) c
    are Hermitian forms, so the pair (B, A) adds the conjugate of (A, B).
    With the even aperture, the self-Grams' blocks are zero off the class
    diagonal; with no weight only the part W_(+,+) is non-zero.  The
    half-axis tables the blocks are built from are shared across class pairs
    and weights: a first pass over the pairs, which builds no block, counts
    the blocks that read each (`_Tables`)."""
    f, g = amp._form
    if isinstance(f, _AxisFactors):  # the blocks hold up to rank x rank values
        f.check_expandable("rank x rank Grams")
    parities = np.stack([*f.term_signs(), *g.term_signs()])
    # The labels are 0..K-1; np.unique of them would import numpy.ma (9 ms).
    label = np.unique(parities, axis=1, return_inverse=True)[1].ravel()
    reflected, tables = g.reflect_y(), _Tables()
    classes = [(terms, *(_class_terms(a, terms, k, tables) for a in (f, g, reflected)))
               for k, terms in ((k, np.flatnonzero(label == k)) for k in range(label.max() + 1))]
    _class_forms(classes, weights, amp.coeffs, tables.expect, lambda cr, a, b, cs: 0j)
    return _class_forms(classes, weights, amp.coeffs, _class_block, _hadamard_form)


def _factor_grams(amp: TwoPhotonAmplitude, envelope: np.ndarray | None,
                  mask: np.ndarray | None) -> tuple[float, float, complex]:
    """`_norms_and_overlap`' three values from the rank x rank Grams of arrays."""
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
    """||Phi||^2 from the Gram engine; ValueError on a non-finite amplitude.
    Im J is not held to this norm, which nearly cancelling terms make small."""
    return _norms_and_overlap(amp)[0]


def normalize(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    """amp at unit norm.  It keeps the evaluation made here unless ||Phi||^2 is subnormal."""
    nsq, _, j = _norms_and_overlap(amp)
    if not nsq > 0.0:
        raise ValueError(f"cannot normalize an amplitude of squared norm {nsq}")
    unit = _built(_read_only(amp.coeffs / np.sqrt(nsq))[0], *_factors(amp), amp.grid,
                  amp.representation, amp.truncation_error)
    if nsq >= _TINY:  # else the scaled coefficients need not give unit norm
        unit.__dict__["_grams"] = 1.0, 1.0, j / nsq
    return unit


def apply_sigma(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    """Exchange-reflection involution: (c, f, g) -> (c, Pi_y g, Pi_y f); a
    factored form is kept."""
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
    return _with_factors(amp, k @ amp.photon1 @ k.T, k @ amp.photon2 @ k.T,
                         grid=amp.grid.conjugate(), representation=Representation.POSITION)


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
    return _with_factors(amp, (q1 @ u)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s,
                         (q2 @ vh.T)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s,
                         coeffs=sv[keep].astype(complex),
                         truncation_error=(amp.truncation_error or 0.0) + dropped)
