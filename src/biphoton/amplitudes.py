"""Two-photon amplitude algebra in low-rank product-sum form.

An amplitude Phi(r1, r2) is stored as sum_r c_r f_r(r1) g_r(r2) over a shared
grid.  The exchange-reflection involution sigma (swap photons, flip both
y components) acts term-wise.  The norm, the overlap <sigma Phi, Phi> that
controls the beamsplitter coincidence rate and the symmetry weights follow
from two self-Grams and one sigma cross-Gram of the factors.

A dense 4D form is kept for small grids purely as a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import Grid, Representation, TransverseMode, fourier_kernel_1d

_DENSE_MAX_N = 32


@dataclass(frozen=True, eq=False)
class TwoPhotonAmplitude:
    """Low-rank two-photon amplitude: coeffs (R,), factors (R, n, n)."""

    coeffs: np.ndarray
    photon1: np.ndarray
    photon2: np.ndarray
    grid: Grid
    representation: Representation
    truncation_error: float | None = field(default=None, compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        f1 = np.asarray(self.photon1, dtype=complex)
        f2 = np.asarray(self.photon2, dtype=complex)
        n = self.grid.n
        if f1.shape != (c.size, n, n) or f2.shape != (c.size, n, n):
            raise ValueError("factor arrays must have shape (rank, n, n)")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "photon1", f1)
        object.__setattr__(self, "photon2", f2)

    @property
    def rank(self) -> int:
        return self.coeffs.size


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


def _gram(a: np.ndarray, b: np.ndarray | None = None, weight: float = 1.0) -> np.ndarray:
    """G[r, s] = <a_r, b_s> with midpoint weights; b defaults to a."""
    b = a if b is None else b
    return (np.conj(a).reshape(a.shape[0], -1) @ b.reshape(b.shape[0], -1).T) * weight


def _sigma_grams(amp: TwoPhotonAmplitude,
                 envelope: np.ndarray | None = None) -> tuple[float, float, float]:
    """(||Phi||^2, ||Phi'||^2, J' = <sigma Phi', Phi'>) for Phi' = Phi with
    `envelope` on photon 1 (Phi' = Phi when None), from the self-Grams
    G1 = <f_r, f_s>, G2 = <g_r, g_s> and the cross-Gram X = <Pi_y g_r, f_s>:
    ||Phi||^2 = c^H (G1 o G2) c and J = c^H (X o X^H) c, as the photon-2 Gram
    of sigma Phi is X^H.  G2 serves both norms."""
    c, w = amp.coeffs, amp.grid.weight
    g2 = _gram(amp.photon2, weight=w)
    f = amp.photon1 if envelope is None else amp.photon1 * envelope
    nsq = _norm(c, _gram(amp.photon1, weight=w), g2)
    nsq_env = nsq if envelope is None else _norm(c, _gram(f, weight=w), g2)
    x = _gram(amp.photon2[:, :, ::-1], f, w)
    j = complex(c.conj() @ (x * x.conj().T) @ c)
    if abs(j.imag) > 1e-10 * nsq_env:  # J' / ||Phi'||^2 must be real
        raise AssertionError(f"sigma overlap has imaginary part {j.imag}")
    return nsq, nsq_env, j.real


def _norm(c: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> float:
    return float((c.conj() @ (g1 * g2) @ c).real)


def _normalized_overlap(amp: TwoPhotonAmplitude, norm_tol: float) -> tuple[float, float]:
    nsq, _, j = _sigma_grams(amp)
    if abs(nsq - 1.0) > norm_tol:
        raise ValueError(f"amplitude not normalized: ||Phi||^2 = {nsq}")
    return nsq, j


def norm_squared(amp: TwoPhotonAmplitude) -> float:
    w = amp.grid.weight
    return _norm(amp.coeffs, _gram(amp.photon1, weight=w), _gram(amp.photon2, weight=w))


def normalize(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    nsq = norm_squared(amp)
    if nsq <= 0.0:
        raise ValueError("cannot normalize a zero-norm amplitude")
    return replace(amp, coeffs=amp.coeffs / np.sqrt(nsq))


def apply_sigma(amp: TwoPhotonAmplitude) -> TwoPhotonAmplitude:
    """Exchange-reflection involution: (c, f, g) -> (c, Pi_y g, Pi_y f)."""
    return TwoPhotonAmplitude(
        amp.coeffs, amp.photon2[:, :, ::-1], amp.photon1[:, :, ::-1],
        amp.grid, amp.representation,
    )


def sigma_overlap(amp: TwoPhotonAmplitude, *, norm_tol: float = 1e-6) -> float:
    """J = <sigma Phi, Phi>, real in [-1, 1] for a normalized amplitude.

    J = 1 for sigma-symmetric amplitudes (perfect coalescence), J = -1 for
    antisymmetric ones (perfect anti-coalescence).
    """
    return _normalized_overlap(amp, norm_tol)[1]


def symmetry_decompose(amp: TwoPhotonAmplitude) -> tuple[float, float]:
    """Norms of the symmetric and antisymmetric parts (Phi +- sigma Phi)/2.

    As sigma is unitary, they equal (||Phi||^2 +- Re J)/2 and come from the
    same three Grams as J, without building the parts; they sum to 1 for a
    normalized input.
    """
    nsq, j = _normalized_overlap(amp, 1e-6)
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
    magnitude below `tol`; bounds rank growth from repeated operations."""
    s = amp.grid.spacing  # sqrt of the 2D quadrature weight
    a = amp.photon1.reshape(amp.rank, -1).T * s
    b = amp.photon2.reshape(amp.rank, -1).T * s
    q1, r1 = np.linalg.qr(a)
    q2, r2 = np.linalg.qr(b)
    core = r1 @ np.diag(amp.coeffs) @ r2.T
    u, sv, vh = np.linalg.svd(core)
    coeffs = sv
    keep = coeffs > tol
    if not np.any(keep):
        keep[0] = True
    f1 = (q1 @ u)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s
    f2 = (q2 @ vh.T)[:, keep].T.reshape(-1, amp.grid.n, amp.grid.n) / s
    return replace(amp, coeffs=coeffs[keep].astype(complex), photon1=f1, photon2=f2)
