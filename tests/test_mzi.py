import math
import re
import warnings
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from biphoton import amplitudes
from biphoton import mzi as mzi_module
from biphoton import (DegenerateInterferenceError, GaussianBeamParams,
                      MziGeometry, MziPhases, PumpMode, Representation, SpdcParams,
                      SppParams, TwoPhotonAmplitude,
                      azimuth, coincidence_probability, delta_limit_oracle,
                      fresnel_phase, inner_product_2d, make_grid,
                      mzi_coincidence, norm_squared, oam_ring, product_state,
                      scan, sigma_overlap, sine_envelope, spdc_state, spp_phase,
                      thin_crystal_gaussian, to_dense)

from _helpers import random_amplitude, small_grid, smooth_random_mode


def test_azimuth_range_and_quadrants():
    g = make_grid(16, 2.0)
    theta = azimuth(g)
    assert theta.min() >= 0.0 and theta.max() < 2.0 * np.pi
    x, y = g.meshgrid()
    assert np.all(theta[(x > 0) & (y > 0)] < np.pi / 2)
    assert np.all(theta[(x > 0) & (y < 0)] > 3 * np.pi / 2)


def test_fresnel_phase_preserves_norm_and_pc():
    amp = random_amplitude(np.random.default_rng(0), small_grid())
    moved = fresnel_phase(amp, 0.7, 1.3, 1.0)
    assert norm_squared(moved) == pytest.approx(1.0, abs=1e-10)
    # equal arms commute with the exchange-reflection, so P_c is unchanged
    equal = fresnel_phase(amp, 0.9, 0.9, 1.0)
    assert coincidence_probability(equal) == pytest.approx(
        coincidence_probability(amp), abs=1e-10)


def test_fresnel_phase_zero_distance_identity():
    amp = random_amplitude(np.random.default_rng(1), small_grid())
    same = fresnel_phase(amp, 0.0, 0.0, 1.0)
    assert np.abs(same.photon1 - amp.photon1).max() < 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 6),
       n=st.sampled_from([8, 16, 24, 32]), z1=st.floats(0.0, 3.0), z2=st.floats(0.0, 3.0),
       k=st.floats(0.5, 3.0), real=st.booleans())
def test_fresnel_phase_matches_the_meshgrid_formula(seed, rank, n, z1, z2, k, real):
    # The per-axis outer product of phase vectors against the (n, n) phase
    # exp[i (k z - |q|^2 z / (2k))] built on a meshgrid, on random real or
    # complex factors of unit norm.
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 5.0)

    def factors():
        f = rng.normal(size=(rank, n, n))
        if not real:
            f = f + 1j * rng.normal(size=(rank, n, n))
        return f / (np.sqrt(np.sum(np.abs(f) ** 2, axis=(1, 2)))[:, None, None]
                    * grid.spacing)

    amp = TwoPhotonAmplitude(rng.normal(size=rank) + 1j * rng.normal(size=rank),
                             factors(), factors(), grid, Representation.MOMENTUM)
    moved = fresnel_phase(amp, z1, z2, k)
    qx, qy = grid.meshgrid()
    q2 = qx ** 2 + qy ** 2
    for got, f, z in ((moved.photon1, amp.photon1, z1), (moved.photon2, amp.photon2, z2)):
        want = f * np.exp(1j * (k * z - q2 * z / (2.0 * k)))
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("z, k", [(1e300, 1e10), (1e307, 1e-5)], ids=["kz", "chirp"])
def test_fresnel_phase_rejects_a_phase_that_overflows(z, k):
    # k z overflows in the first geometry, q^2 z / (2k) in the second: both
    # gave NaN factors after numpy warnings, and the MZI then raised
    # "non-finite amplitude: squared norm nan", naming nothing the caller set.
    amp = spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), make_grid(16, 6.0))
    message = re.escape(f"z = {z} and k = {k} on a grid of half-width 6.0 ")
    with pytest.raises(ValueError, match=message):
        mzi_coincidence(amp, SppParams(1.0), MziPhases(0.3), MziGeometry(z, z, k=k))
    for z1, z2 in ((z, 1.0), (1.0, z)):
        with pytest.raises(ValueError, match=message):
            fresnel_phase(amp, z1, z2, k)


def test_fresnel_phase_rejects_position_representation():
    amp = random_amplitude(np.random.default_rng(2), small_grid(16, 3.0),
                           representation=Representation.POSITION)
    with pytest.raises(ValueError):
        fresnel_phase(amp, 1.0, 1.0, 1.0)


def test_spp_phase_shifts_angular_spectrum():
    # exp(i*zeta*theta) with integer zeta raises the orbital charge by zeta:
    # the shifted mode only overlaps rings of charge 3 (radial profiles of
    # different |l| differ, so the magnitude is below 1 but well above 0)
    g = make_grid(64, 8.0)
    shifted = spp_phase(oam_ring(1, 1.0, g), 2.0)
    assert abs(inner_product_2d(oam_ring(3, 1.0, g), shifted)) > 0.5
    # the square grid weakly couples charges differing by multiples of 4
    for l in (-3, -1, 0, 1, 2, 4):
        assert abs(inner_product_2d(oam_ring(l, 1.0, g), shifted)) < 1e-3


@pytest.mark.parametrize("zeta", [5e307, -5e307, float("nan"), float("inf")])
def test_spp_phase_rejects_a_zeta_whose_phase_overflows(zeta):
    # The phase zeta * theta runs to 2 pi zeta: 5e307 gave NaN samples and an
    # overflow warning, with no error.
    mode = oam_ring(1, 1.0, make_grid(16, 3.0))
    with pytest.raises(ValueError, match=re.escape(f"zeta = {zeta} ")):
        spp_phase(mode, zeta)
    assert np.isfinite(spp_phase(mode, 2e307).values).all()  # 2 pi zeta is finite


def test_circular_aperture_masks_and_renormalizes():
    # The disc weight of the circular aperture against the factors clipped to
    # the inscribed disc as arrays and run on the whole grid: eta is relative
    # to the clipped norm, so neither amplitude needs renormalizing.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    amps = [random_amplitude(np.random.default_rng(3), small_grid(16, 3.0),
                             representation=Representation.POSITION),
            thin_crystal_gaussian(beam, make_grid(32, 6.0 * beam.spot_size))]
    spp, phases = SppParams(1.5), MziPhases(0.3)
    for amp in amps:
        x, y = amp.grid.meshgrid()
        disc = x ** 2 + y ** 2 <= amp.grid.half_width ** 2
        clipped = replace(amp, photon1=amp.photon1 * disc, photon2=amp.photon2 * disc)
        weighted = mzi_coincidence(amp, spp, phases, MziGeometry(1.0, 1.0))
        explicit = mzi_coincidence(clipped, spp, phases,
                                   MziGeometry(1.0, 1.0, circular=False))
        assert abs(weighted.conditional_pc - explicit.conditional_pc) <= 1e-12
        assert abs(weighted.throughput_eta - explicit.throughput_eta) <= 1e-12


def test_effective_amplitude_zeta0():
    amp = random_amplitude(np.random.default_rng(4), small_grid(16, 3.0),
                           representation=Representation.POSITION)
    # zeta = 0, alpha_plus = pi/2: the envelope is identically 1
    out = mzi_coincidence(amp, SppParams(0.0), MziPhases(np.pi / 2),
                          MziGeometry(1.0, 1.0, circular=False))
    assert out.throughput_eta == pytest.approx(1.0, abs=1e-10)
    assert out.conditional_pc == pytest.approx(coincidence_probability(amp), abs=1e-10)
    # zeta = 0, alpha_plus = 0: the envelope vanishes identically
    for circular in (True, False):
        with pytest.raises(DegenerateInterferenceError):
            mzi_coincidence(amp, SppParams(0.0), MziPhases(0.0),
                            MziGeometry(1.0, 1.0, circular=circular))


def _brute_force_pc(source, spp, phases, geom, grid_n):
    """Direct dense 4D evaluation of the conditional P_c and throughput."""
    w = source.spot_size
    grid = make_grid(grid_n, geom.aperture_factor * w)
    x, y = grid.meshgrid()
    mask = (x ** 2 + y ** 2 <= grid.half_width ** 2).astype(float)
    envelope = sine_envelope(grid, spp.zeta, phases.alpha_plus) * mask
    gauss = np.exp(-((x[:, :, None, None] + x[None, None, :, :]) ** 2
                     + (y[:, :, None, None] + y[None, None, :, :]) ** 2)
                   / (4.0 * w ** 2))
    phi = gauss * envelope[:, :, None, None] * mask[None, None, :, :]
    sig = np.flip(phi.transpose(2, 3, 0, 1), axis=(1, 3))
    num = np.vdot(sig, phi).real
    den = np.vdot(phi, phi).real
    bare = gauss * mask[:, :, None, None] * mask[None, None, :, :]
    return (1.0 - num / den) / 2.0, den / np.vdot(bare, bare).real


@pytest.mark.parametrize("zeta,alpha", [(1.0, 0.0), (2.0, 0.4), (1.5, 1.0)])
def test_fast_path_matches_brute_force(zeta, alpha):
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=4.0)
    spp, phases = SppParams(zeta), MziPhases(alpha)
    fast = mzi_coincidence(source, spp, phases, geom, grid_n=24)
    pc, eta = _brute_force_pc(source, spp, phases, geom, 24)
    assert fast.conditional_pc == pytest.approx(pc, abs=1e-10)
    assert fast.throughput_eta == pytest.approx(eta, abs=1e-10)


def _fftconvolve_pc(source, spp, phases, geom, grid_n):
    """Gaussian-weighted sums over full 2-D linear convolutions on the
    (2n-1)^2 grid of x1 + x2 values, the direct form of the fast path."""
    w = source.spot_size
    grid = make_grid(grid_n, geom.aperture_factor * w)
    x, y = grid.meshgrid()
    if geom.circular:
        mask = (x ** 2 + y ** 2 <= grid.half_width ** 2).astype(float)
    else:
        mask = np.ones_like(x)
    envelope = sine_envelope(grid, spp.zeta, phases.alpha_plus) * mask
    sum_axis = (np.arange(2 * grid_n - 1) - (grid_n - 1)) * grid.spacing
    u, v = np.meshgrid(sum_axis, sum_axis, indexing="ij")
    gauss = np.exp(-(u ** 2 + v ** 2) / (2.0 * w ** 2))
    num = np.sum(gauss * fftconvolve(envelope, envelope[:, ::-1]))
    den = np.sum(gauss * fftconvolve(envelope ** 2, mask))
    tot = np.sum(gauss * fftconvolve(mask, mask))
    return (1.0 - num / den) / 2.0, den / tot


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 24, 64, 256]),
       aperture=st.floats(4.0, 40.0),
       circular=st.booleans(),
       z=st.floats(0.0, 3.0),
       zeta=st.floats(0.25, 4.0),
       alpha=st.floats(0.0, np.pi))
# at aperture 4 (the first two examples) the +-9.2 w kernel band spans the grid
@example(n=8, aperture=4.0, circular=True, z=1.0, zeta=1.0, alpha=0.0)
@example(n=24, aperture=4.0, circular=False, z=0.0, zeta=2.5, alpha=0.3)
@example(n=256, aperture=40.0, circular=True, z=1.0, zeta=1.5, alpha=1.0)
def test_fast_path_matches_convolution_reference(n, aperture, circular, z,
                                                  zeta, alpha):
    source = GaussianBeamParams(1.0, z, 2.0)
    geom = MziGeometry(z, z, aperture_factor=aperture, circular=circular)
    spp, phases = SppParams(zeta), MziPhases(alpha)
    fast = mzi_coincidence(source, spp, phases, geom, grid_n=n)
    pc, eta = _fftconvolve_pc(source, spp, phases, geom, n)
    assert abs(fast.conditional_pc - pc) <= 1e-13
    assert abs(fast.throughput_eta - eta) <= 1e-13


# Below an aperture factor of about 4.6 the grid, not _TAP_CUTOFF, ends the
# kernel's taps: their spectrum is then no Gaussian, and the fast path must keep
# every frequency (the crop was off by 1e-2 at aperture 1e-3).
@pytest.mark.filterwarnings("ignore:aperture_factor below 4:UserWarning")
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("aperture", [1e-3, 0.5, 1.0, 2.0, 3.0])
def test_fast_path_matches_convolution_reference_below_aperture_4(aperture, n):
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    for circular, zeta, alpha in ((True, 1.0, 0.0), (False, 1.7, 0.4)):
        geom = MziGeometry(1.0, 1.0, aperture_factor=aperture, circular=circular)
        spp, phases = SppParams(zeta), MziPhases(alpha)
        fast = mzi_coincidence(source, spp, phases, geom, grid_n=n)
        pc, eta = _fftconvolve_pc(source, spp, phases, geom, n)
        assert abs(fast.conditional_pc - pc) <= 1e-13
        assert abs(fast.throughput_eta - eta) <= 1e-13
        geo = mzi_module._source_geometry(source, geom, n)
        assert geo.kx.size == geo.fft_len


def _hankel_sandwich_pc(source, spp, alphas, geom, grid_n):
    """The fast path's sums by two-sided Hankel sandwiches H B H, each H
    applied to the rows by 1-D real FFTs of the band-cut kernel: the form
    the spectral sum replaced, and its reference.  Returns (P_c, eta) per
    alpha_plus."""
    w = source.spot_size
    grid = make_grid(grid_n, geom.aperture_factor * w)
    mask = mzi_module._disc(grid) if geom.circular else np.ones((grid_n, grid_n))
    band = min(grid_n - 1, int(mzi_module._TAP_CUTOFF * w / grid.spacing))
    fft_len = mzi_module._fft_size(grid_n + band)
    taps = np.arange(-band, band + 1) * grid.spacing
    spectrum = np.fft.rfft(np.exp(-taps ** 2 / (2.0 * w ** 2)), fft_len)

    def rows(a):  # a H, with H[i, k] = g(x_i + x_k)
        full = np.fft.irfft(np.fft.rfft(a[:, ::-1], fft_len, axis=1) * spectrum, fft_len, axis=1)
        return full[:, band:band + grid_n]

    def sandwich(b):  # H b H
        return rows(np.ascontiguousarray(rows(b).T)).T

    c = sandwich(mask)
    tot = np.sum(mask * c)
    out = []
    for alpha in alphas:
        envelope = sine_envelope(grid, spp.zeta, alpha) * mask
        num = np.sum(envelope * sandwich(envelope[:, ::-1]))
        den = np.sum(envelope ** 2 * c)
        out.append(((1.0 - num / den) / 2.0, den / tot))
    return out


@pytest.mark.parametrize("n,circular,cropped", [(1024, True, True), (1024, False, True),
                                                (8, False, False)],
                         ids=["scan-disc", "scan-square", "uncropped-square"])
def test_fast_path_matches_hankel_sandwich_at_the_scan_geometry(n, circular, cropped):
    # The scan's own geometry (aperture 40), where the spectral sum keeps a
    # small block of the kernel's frequencies, and n = 8 on the square, where
    # it keeps all of them, the ky = L/2 column included.
    # Both the per-call path (one envelope) and an alpha_plus sweep's 2 x 2
    # Grams are checked.
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=40.0, circular=circular)
    geo = mzi_module._source_geometry(source, geom, n)
    if cropped:
        assert 4 * geo.kx.size < geo.fft_len
    else:
        assert geo.kx.size == geo.fft_len
    spp, alphas = SppParams(1.7), [0.4, 2.0]
    reference = _hankel_sandwich_pc(source, spp, alphas, geom, n)
    sweep = mzi_module._thin_crystal_fast(geo, spp, alphas)
    for alpha, (pc, eta), (j, kept) in zip(alphas, reference, sweep):
        single = mzi_coincidence(source, spp, MziPhases(alpha), geom, grid_n=n)
        assert abs(single.conditional_pc - pc) <= 1e-13
        assert abs(single.throughput_eta - eta) <= 1e-13
        assert abs((1.0 - j / kept) / 2.0 - pc) <= 1e-13
        assert abs(kept / geo.tot - eta) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 10, 64, 256]), circular=st.booleans(),
       zeta=st.floats(0.0, 8.0), alpha=st.floats(0.0, np.pi))
@example(n=64, circular=True, zeta=0.0, alpha=0.3)
@example(n=64, circular=False, zeta=0.5, alpha=1.2)
@example(n=10, circular=True, zeta=1.0, alpha=0.0)
@example(n=256, circular=False, zeta=2.0, alpha=np.pi / 2)
@example(n=8, circular=True, zeta=4.0, alpha=np.pi)
def test_quadrant_coefficients_rebuild_the_envelope(n, circular, zeta, alpha):
    # The fast path evaluates s = M sin(zeta theta_1) and c = M cos(zeta
    # theta_1) on the quadrant x > 0, y > 0 only.  Mirrored into each
    # quadrant with that quadrant's coefficients, they must give the masked
    # envelope on the whole grid.
    geo = mzi_module._fast_geometry(n, 40.0, circular, 1.0)
    s = geo.mask * np.sin(zeta * geo.azimuth)
    c = geo.mask * np.cos(zeta * geo.azimuth)
    coef = mzi_module._quadrant_coefficients(zeta, np.cos(alpha), np.sin(alpha))
    half = n // 2
    up, down = slice(half, None), slice(half - 1, None, -1)  # x or y > 0, < 0
    envelope = np.empty((n, n))
    for (rows, cols), (p, r) in zip([(up, up), (down, up), (down, down), (up, down)], coef):
        envelope[rows, cols] = p * s + r * c
    grid = make_grid(n, 40.0)
    mask = mzi_module._disc(grid) if circular else 1.0
    assert np.max(np.abs(envelope - sine_envelope(grid, zeta, alpha) * mask)) <= 1e-13


@pytest.mark.parametrize("circular", [True, False], ids=["disc", "square"])
@pytest.mark.parametrize("zeta", [0.5, 2.0, 2.5, 4.0])
def test_quadrant_fold_matches_hankel_sandwich(zeta, circular):
    # At these zeta, cos(zeta pi) or sin(zeta pi) is 0 or +-1, where a wrong
    # sign or a swapped pair in the quadrant map would cancel or double a
    # quadrant.  Per call (one envelope) and for an alpha_plus sweep (two).
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=40.0, circular=circular)
    geo = mzi_module._source_geometry(source, geom, 256)
    spp, alphas = SppParams(zeta), [0.0, 0.4, 2.0]
    reference = _hankel_sandwich_pc(source, spp, alphas, geom, 256)
    sweep = mzi_module._thin_crystal_fast(geo, spp, alphas)
    for alpha, (pc, eta), (j, kept) in zip(alphas, reference, sweep):
        single = mzi_coincidence(source, spp, MziPhases(alpha), geom, grid_n=256)
        assert abs(single.conditional_pc - pc) <= 1e-13
        assert abs(single.throughput_eta - eta) <= 1e-13
        assert abs((1.0 - j / kept) / 2.0 - pc) <= 1e-13
        assert abs(kept / geo.tot - eta) <= 1e-13


def test_fast_geometry_arrays_are_read_only():
    # The cache hands one geometry to every caller, so no caller may write
    # into it; the index map of -kx was left writable.
    geo = mzi_module._fast_geometry(64, 40.0, True, 1.0)
    arrays = [value for value in vars(geo).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("circular", [True, False], ids=["disc", "square"])
def test_flat_envelope_gives_exact_coalescence_and_throughput(circular):
    # At zeta = 0 the envelope is sin(alpha_plus) on the whole aperture, so
    # num = den and eta = sin^2(alpha_plus) exactly: the thin-crystal state is
    # symmetric.  A BLAS dot over the grid drifts by ~2e-13 here (n = 1024,
    # square), so den must be added pairwise.
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, circular=circular)
    for alpha in (0.7, 1.3):
        result = mzi_coincidence(source, SppParams(0.0), MziPhases(alpha), geom, grid_n=1024)
        assert abs(result.conditional_pc) <= 1e-14
        assert abs(result.throughput_eta - np.sin(alpha) ** 2) <= 1e-15


def test_fast_path_matches_generic_low_rank():
    # the generic path: low-rank thin-crystal state propagated through the
    # interferometer against the dedicated convolution path
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=6.0)
    spp, phases = SppParams(1.0), MziPhases(0.0)
    n = 64
    fast = mzi_coincidence(source, spp, phases, geom, grid_n=n)
    grid = make_grid(n, geom.aperture_factor * source.spot_size)
    amp = thin_crystal_gaussian(source, grid)
    generic = mzi_coincidence(amp, spp, phases, geom)
    assert generic.conditional_pc == pytest.approx(fast.conditional_pc, abs=1e-8)
    assert generic.throughput_eta == pytest.approx(fast.throughput_eta, rel=1e-6)


def _dense_copy(amp):
    """The same amplitude with its factors as plain arrays."""
    dense = replace(amp, photon1=np.array(amp.photon1), photon2=np.array(amp.photon2))
    assert amp._form is not None and dense._form is None
    return dense


@pytest.mark.parametrize("n", [32, 64, 128])
def test_separable_generic_matches_dense_factors(n):
    # The per-axis Gram contraction against the dense product on the same
    # factors: the engine's outputs for every weight, and the generic MZI.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    grid = make_grid(n, 6.0 * beam.spot_size)
    amp = thin_crystal_gaussian(beam, grid)
    dense = _dense_copy(amp)
    envelope = sine_envelope(grid, 1.5, 0.3)
    disc = mzi_module._disc(grid)
    for weights in ((None, None), (envelope, None), (None, disc), (envelope, disc)):
        assert np.allclose(amplitudes._sigma_grams(amp, *weights),
                           amplitudes._sigma_grams(dense, *weights), rtol=0.0, atol=1e-12)
    for circular in (True, False):
        geom = MziGeometry(1.0, 1.0, aperture_factor=6.0, circular=circular)
        sep, ref = (mzi_coincidence(a, SppParams(1.5), MziPhases(0.3), geom)
                    for a in (amp, dense))
        assert abs(sep.conditional_pc - ref.conditional_pc) <= 1e-12
        assert abs(sep.throughput_eta - ref.throughput_eta) <= 1e-12


def _no_factor_arrays(axes):
    raise AssertionError("a (rank, n, n) factor array was built")


# rank_tol 1e-8 keeps the truncation far below the 1e-9 tested: at the
# default 1e-6 the truncation alone moves P_c by up to ~3e-9 on coarse grids.
_TIGHT = 1e-8


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128, 256, 512, 1024]),
       aperture=st.floats(4.0, 6.0),
       circular=st.booleans(),
       w0=st.floats(0.5, 2.0),
       z_over_z0=st.floats(0.5, 3.0),
       zeta=st.floats(0.25, 4.0),
       alpha=st.floats(0.0, np.pi))
@example(n=512, aperture=6.0, circular=True, w0=1.0, z_over_z0=1.0, zeta=1.5, alpha=0.3)
@example(n=1024, aperture=6.0, circular=True, w0=1.0, z_over_z0=1.0, zeta=1.5, alpha=0.3)
@example(n=1024, aperture=6.0, circular=False, w0=1.0, z_over_z0=1.0, zeta=2.5, alpha=1.0)
def test_separable_generic_matches_fast_path(n, aperture, circular, w0, z_over_z0,
                                             zeta, alpha):
    # The generic path on the per-axis thin-crystal amplitude builds no
    # (rank, n, n) array, so it runs at n = 1024.
    beam = GaussianBeamParams(w0, z_over_z0 * w0 ** 2, 2.0)  # z0 = k_p w0^2 / 2
    geom = MziGeometry(beam.z, beam.z, aperture_factor=aperture, circular=circular)
    spp, phases = SppParams(zeta), MziPhases(alpha)
    fast = mzi_coincidence(beam, spp, phases, geom, grid_n=n)
    amp = thin_crystal_gaussian(beam, make_grid(n, aperture * beam.spot_size),
                                rank_tol=_TIGHT)
    with mock.patch.object(amplitudes._AxisFactors, "values", property(_no_factor_arrays)):
        generic = mzi_coincidence(amp, spp, phases, geom)
    assert abs(generic.conditional_pc - fast.conditional_pc) <= 1e-9
    assert abs(generic.throughput_eta - fast.throughput_eta) <= 1e-9


@lru_cache(maxsize=1)
def _thin_crystal_amplitude_64():
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    return thin_crystal_gaussian(beam, make_grid(64, 6.0 * beam.spot_size), rank_tol=_TIGHT)


@settings(max_examples=20, deadline=None)
@given(zeta=st.floats(0.25, 4.0),
       alpha=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)))
@example(zeta=1.5, alpha=1e12)
@example(zeta=1.5, alpha=1e17)
@example(zeta=0.25, alpha=1e300)
def test_alpha_plus_enters_every_path_through_its_cosine_and_sine(zeta, alpha):
    # alpha_plus added to zeta (theta - pi) as it is rounds the angular term
    # away when large (the generic path read P_c 0 for 0.578 at 1e17); every
    # path must read the angle atan2(sin, cos) that the fast path's (cos
    # alpha_plus, sin alpha_plus) implies.
    spp, reduced = SppParams(zeta), math.atan2(math.sin(alpha), math.cos(alpha))
    oracle = delta_limit_oracle(spp, MziPhases(alpha))
    assert abs(oracle - delta_limit_oracle(spp, MziPhases(reduced))) <= 1e-12
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=6.0)
    fast, fast_reduced = (mzi_coincidence(source, spp, MziPhases(a), geom, grid_n=64)
                          for a in (alpha, reduced))
    assert abs(fast.conditional_pc - fast_reduced.conditional_pc) <= 1e-12
    assert abs(fast.throughput_eta - fast_reduced.throughput_eta) <= 1e-12
    generic = mzi_coincidence(_thin_crystal_amplitude_64(), spp, MziPhases(alpha), geom)
    assert abs(generic.conditional_pc - fast.conditional_pc) <= 1e-9
    assert abs(generic.throughput_eta - fast.throughput_eta) <= 1e-9


@st.composite
def _thin_crystal_cases(draw):
    aperture = draw(st.floats(4.0, 40.0))
    # The per-axis Gram costs m^4 n for m vectors per axis, and m grows with
    # the aperture: wide apertures stay on small grids.
    sizes = [16, 32, 64, 128, 256, 512] if aperture <= 6.0 else [16, 32]
    w0 = draw(st.floats(0.5, 2.0))
    return dict(n=draw(st.sampled_from(sizes)), aperture=aperture, w0=w0,
                z=draw(st.floats(0.5, 3.0)) * w0 ** 2, circular=draw(st.booleans()),
                zeta=draw(st.floats(0.25, 4.0)), alpha=draw(st.floats(0.0, np.pi)))


@settings(max_examples=12, deadline=None)
@given(case=_thin_crystal_cases())
def test_propagation_phase_leaves_separable_results_unchanged(case):
    beam = GaussianBeamParams(case["w0"], case["z"], 2.0)
    grid = make_grid(case["n"], case["aperture"] * beam.spot_size)
    geom = MziGeometry(beam.z, beam.z, aperture_factor=case["aperture"],
                       circular=case["circular"])
    results = []
    for include_phase in (True, False):
        amp = thin_crystal_gaussian(beam, grid, include_phase=include_phase, rank_tol=_TIGHT)
        out = mzi_coincidence(amp, SppParams(case["zeta"]), MziPhases(case["alpha"]), geom)
        results.append(np.array([sigma_overlap(amp), out.conditional_pc, out.throughput_eta]))
    assert np.abs(results[0] - results[1]).max() <= 1e-9


def test_oracle_closed_form_integer_zeta():
    for zeta in (1, 2, 3, 4):
        for alpha in (0.0, 0.7, np.pi / 2):
            expected = 0.5 * (1.0 + (-1.0) ** zeta * np.cos(2.0 * alpha))
            got = delta_limit_oracle(SppParams(float(zeta)), MziPhases(alpha))
            assert got == pytest.approx(expected, abs=1e-12)


def test_oracle_rejects_vanishing_envelope_and_few_nodes():
    with pytest.raises(DegenerateInterferenceError):
        delta_limit_oracle(SppParams(0.0), MziPhases(0.0))


def test_large_aperture_converges_to_oracle():
    geom = MziGeometry(1.0, 1.0, aperture_factor=40.0)
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    res = mzi_coincidence(source, SppParams(1.0), MziPhases(0.0), geom, grid_n=1024)
    assert res.conditional_pc == pytest.approx(0.0, abs=0.02)
    res2 = mzi_coincidence(source, SppParams(2.0), MziPhases(0.0), geom, grid_n=1024)
    assert res2.conditional_pc == pytest.approx(1.0, abs=0.02)


def test_independent_of_propagation_distance():
    # equal-arm free propagation only rescales the spot size; the conditional
    # probability at fixed aperture_factor is z-independent
    out = []
    for z in (0.5, 1.0, 2.0):
        geom = MziGeometry(z, z, aperture_factor=40.0)
        out.append(mzi_coincidence(GaussianBeamParams(1.0, z, 2.0), SppParams(1.0),
                                   MziPhases(0.3), geom, grid_n=512).conditional_pc)
    assert max(out) - min(out) < 5e-3


def test_mzi_coincidence_validations():
    with pytest.raises(ValueError):
        mzi_coincidence(GaussianBeamParams(1.0, 1.0, 2.0), SppParams(1.0), MziPhases(0.0),
                        MziGeometry(1.0, 2.0))
    with pytest.raises(ValueError):
        mzi_coincidence(GaussianBeamParams(1.0, 0.5, 2.0), SppParams(1.0),
                        MziPhases(0.0), MziGeometry(1.0, 1.0))
    with pytest.raises(ValueError):
        MziGeometry(-1.0, 1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(z1=nan), dict(z2=inf), dict(k=nan), dict(aperture_factor=nan),
                dict(aperture_factor=inf), dict(aperture_factor=0.0),
                dict(aperture_factor=-6.0), dict(k=0.0), dict(k=-1.0)):
        with pytest.raises(ValueError):
            MziGeometry(**{"z1": 1.0, "z2": 1.0, **bad})
    # A small aperture warns on the thin-crystal path, when its geometry is
    # built, at the caller; an amplitude source never reads aperture_factor.
    small = MziGeometry(1.0, 1.0, aperture_factor=2.0)
    mzi_module._fast_geometry.cache_clear()
    with pytest.warns(UserWarning, match="aperture-dominated") as record:
        mzi_coincidence(GaussianBeamParams(1.0, 1.0, 2.0), SppParams(1.0), MziPhases(0.3),
                        small, grid_n=16)
    assert [w.filename for w in record] == [__file__]
    amp = random_amplitude(np.random.default_rng(5), small_grid(16, 3.0),
                           representation=Representation.POSITION)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mzi_coincidence(amp, SppParams(1.0), MziPhases(0.3), small)


@pytest.mark.parametrize("k", [0.0, -1.0])
def test_mzi_geometry_names_a_non_positive_wavenumber(k):
    # k = 0 divides by zero in the Fresnel phase, and a scan would pump its
    # source at 2k; both must fail here, naming the field the caller set.
    with pytest.raises(ValueError, match=f"k must be finite and positive, got {k}"):
        MziGeometry(1.0, 1.0, k=k)


@pytest.mark.parametrize("k", [0.01, 7.0, math.nextafter(1.0, 2.0)])
def test_thin_crystal_source_requires_k_of_half_its_pump(k):
    # The source's pump wavenumber alone sets its spot size, so another k
    # would be read as if it were k_p / 2 (P_c 0.384889655816741 at any k).
    source, spp, phases = GaussianBeamParams(1.0, 1.0, 2.0), SppParams(1.3), MziPhases(0.4)
    with pytest.raises(ValueError, match=re.escape(f"pumped at 2.0 requires z1 == z2 == z and "
                                                   f"k = pump_wavenumber / 2, got z1 = 1.0, "
                                                   f"z2 = 1.0, k = {k}")):
        mzi_coincidence(source, spp, phases, MziGeometry(1.0, 1.0, k=k), grid_n=64)
    result = mzi_coincidence(source, spp, phases, MziGeometry(1.0, 1.0, k=1.0), grid_n=64)
    assert abs(result.conditional_pc - 0.384889655816741) <= 1e-14


@pytest.mark.parametrize("source", [None, 1.0, "thin-crystal"])
def test_mzi_coincidence_rejects_other_sources(source):
    with pytest.raises(TypeError, match="GaussianBeamParams or TwoPhotonAmplitude"):
        mzi_coincidence(source, SppParams(1.0), MziPhases(0.0), MziGeometry(1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), orders=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       n=st.sampled_from([16, 24, 32]), zeta=st.floats(0.0, 4.0),
       alpha=st.floats(0.0, np.pi), z=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       representation=st.sampled_from(list(Representation)), circular=st.booleans())
def test_product_states_never_anticoalesce_through_the_mzi(seed, orders, n, zeta, alpha, z,
                                                           representation, circular):
    # Propagation, the envelope and the aperture each act on one photon, so
    # a product f(1) g(2) stays a product f'(1) g'(2) at the last
    # beamsplitter; then J' = |<Pi_y g', f'>|^2 >= 0 and P_c <= 1/2.  Only an
    # entangled state is turned to anti-coalescence.
    rng = np.random.default_rng(seed)
    g = make_grid(n, 4.0)
    f1, f2 = (smooth_random_mode(rng, g, representation, max_order=k) for k in orders)
    try:
        result = mzi_coincidence(product_state(f1, f2), SppParams(zeta), MziPhases(alpha),
                                 MziGeometry(*z, circular=circular))
    except DegenerateInterferenceError:
        assume(False)
    assert result.conditional_pc <= 0.5 + 1e-9


def test_scan_rows_and_degenerate_flag():
    geom = MziGeometry(1.0, 1.0, aperture_factor=8.0)
    result = scan("alpha_plus", 0.0, np.pi, 3, spp=SppParams(0.0), geom=geom,
                  grid_n=128)
    assert [r.flag for r in result.rows] == ["degenerate", "ok", "degenerate"]
    assert np.isnan(result.rows[0].conditional_pc)
    assert result.rows[1].conditional_pc == pytest.approx(0.0, abs=1e-9)
    assert [r.parameter for r in result.rows] == pytest.approx([0.0, np.pi / 2, np.pi])
    assert result.metadata["reference_pc"] == 0.5


def test_scan_validations():
    with pytest.raises(ValueError):
        scan("waist", 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        scan("zeta", 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        scan("zeta", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        scan("zeta", 0.0, 1.0, 4, geom=MziGeometry(1.0, 2.0))  # z1 != z2
    mzi_module._fast_geometry.cache_clear()
    with pytest.warns(UserWarning, match="aperture-dominated") as record:
        scan("zeta", 0.5, 1.0, 2, geom=MziGeometry(1.0, 1.0, aperture_factor=2.0), grid_n=16)
    assert [w.filename for w in record] == [__file__]  # once, for all rows


def _row_bytes(result):
    return np.array([(r.parameter, r.conditional_pc, r.oracle_pc, r.throughput)
                     for r in result.rows]).tobytes()


def test_scan_threaded_matches_serial(monkeypatch):
    # The pool runs a zeta sweep's rows and an alpha_plus sweep's two shared
    # sandwiches; neither may change a bit.
    geom = MziGeometry(1.0, 1.0, aperture_factor=8.0)
    for parameter, lo, hi in (("zeta", 0.5, 2.5), ("alpha_plus", 0.0, np.pi)):
        monkeypatch.delenv("BIPHOTON_THREADS", raising=False)
        serial = scan(parameter, lo, hi, 5, spp=SppParams(1.7), geom=geom, grid_n=128)
        monkeypatch.setenv("BIPHOTON_THREADS", "4")
        # from a cold cache: the geometry is built once, before the pool starts
        mzi_module._fast_geometry.cache_clear()
        threaded = scan(parameter, lo, hi, 5, spp=SppParams(1.7), geom=geom, grid_n=128)
        assert mzi_module._fast_geometry.cache_info().misses == 1
        for a, b in zip(serial.rows, threaded.rows):
            assert a == b
        assert _row_bytes(threaded) == _row_bytes(serial)


@pytest.mark.parametrize("zeta", [0.0, 1.0, 1.7, 3.0])
def test_alpha_sweep_rows_match_per_point_calls(zeta):
    # An alpha_plus sweep reads every row off one pair of Grams at its zeta;
    # each row must agree with its own call, flags included.
    geom = MziGeometry(1.0, 1.0, aperture_factor=8.0)
    spp = SppParams(zeta)
    result = scan("alpha_plus", 0.0, np.pi, 9, spp=spp, geom=geom, grid_n=128)
    beam = GaussianBeamParams(1.0, 1.0, 2.0)  # scan's source: waist 1, pumped at 2k
    for row in result.rows:
        phases = MziPhases(row.parameter)
        try:
            single = mzi_coincidence(beam, spp, phases, geom, grid_n=128)
        except DegenerateInterferenceError:
            assert row.flag == "degenerate"
            continue
        assert row.flag == "ok"
        assert abs(row.conditional_pc - single.conditional_pc) <= 1e-12
        assert abs(row.throughput - single.throughput_eta) <= 1e-12
        assert row.oracle_pc == delta_limit_oracle(spp, phases)
    if zeta == 0.0:  # the envelope vanishes at alpha_plus = 0 and pi
        assert [r.flag for r in result.rows].count("degenerate") == 2


@pytest.mark.parametrize("zeta", [2.0, 4.0])
def test_alpha_sweep_rows_match_per_point_calls_at_even_zeta(zeta):
    # cos(zeta pi) = 1 and sin(zeta pi) = 0: the quadrants x > 0 take the
    # phase offsets -+zeta pi, which leave the coefficients unchanged here.
    test_alpha_sweep_rows_match_per_point_calls(zeta)


def test_zeta_sweep_rows_match_per_point_calls():
    # A zeta sweep computes each row on its own; each must agree with its own
    # call, flags included.
    geom = MziGeometry(1.0, 1.0, aperture_factor=8.0)
    phases = MziPhases(0.0)
    result = scan("zeta", 0.0, 2.0, 9, phases=phases, geom=geom, grid_n=128)
    beam = GaussianBeamParams(1.0, 1.0, 2.0)  # scan's source: waist 1, pumped at 2k
    for row in result.rows:
        spp = SppParams(row.parameter)
        try:
            single = mzi_coincidence(beam, spp, phases, geom, grid_n=128)
        except DegenerateInterferenceError:
            assert row.flag == "degenerate"
            continue
        assert row.flag == "ok"
        assert abs(row.conditional_pc - single.conditional_pc) <= 1e-12
        assert abs(row.throughput - single.throughput_eta) <= 1e-12
        assert row.oracle_pc == delta_limit_oracle(spp, phases)
    # The envelope sin(0) vanishes only at zeta = 0.
    assert [r.flag for r in result.rows] == ["degenerate"] + ["ok"] * 8


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("make,name", [(SppParams, "zeta"), (MziPhases, "alpha_plus")])
def test_mzi_parameters_must_be_finite(make, name, value):
    # A non-finite zeta or alpha_plus would give a NaN P_c and no error.
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        make(value)


@pytest.mark.parametrize("zeta", [1e308, -1e308])
def test_zeta_that_overflows_the_plate_phase_is_rejected(zeta):
    # A finite zeta with an infinite zeta * pi gave NaN results and no error.
    with pytest.raises(ValueError, match=re.escape(
            f"zeta = {zeta} overflows the plate phase zeta * pi")):
        SppParams(zeta)
    assert SppParams(zeta / 4.0).zeta == zeta / 4.0  # |zeta| pi is finite


@pytest.mark.parametrize("parameter", ["zeta", "alpha_plus"])
@pytest.mark.parametrize("lo,hi", [(0.0, np.inf), (-1e308, 1e308)], ids=["inf", "overflow"])
def test_scan_range_must_be_finite(parameter, lo, hi):
    # An infinite range, or one whose width overflows, gave NaN sweep values.
    with pytest.raises(ValueError, match=re.escape(f"scan range must be finite, got {lo}, {hi}")):
        scan(parameter, lo, hi, 3, grid_n=16)


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
def test_scan_rejects_bad_thread_count(monkeypatch, value):
    monkeypatch.setenv("BIPHOTON_THREADS", value)
    with pytest.raises(ValueError, match="BIPHOTON_THREADS"):
        scan("zeta", 0.5, 2.5, 2, geom=MziGeometry(1.0, 1.0, aperture_factor=8.0),
             grid_n=16)
