import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from biphoton import amplitudes
from biphoton import mzi as mzi_module
from biphoton import (DegenerateInterferenceError, GaussianBeamParams,
                      MziGeometry, MziPhases, Representation, SppParams,
                      azimuth, coincidence_probability, delta_limit_oracle,
                      fresnel_phase, inner_product_2d, make_grid,
                      mzi_coincidence, norm_squared, oam_ring, scan,
                      sigma_overlap, sine_envelope, spp_phase,
                      thin_crystal_gaussian, to_dense)

from _helpers import random_amplitude, small_grid


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
    assert amp._axes is not None and dense._axes is None
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
                dict(aperture_factor=-6.0)):
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


@pytest.mark.parametrize("source", [None, 1.0, "thin-crystal"])
def test_mzi_coincidence_rejects_other_sources(source):
    with pytest.raises(TypeError, match="GaussianBeamParams or TwoPhotonAmplitude"):
        mzi_coincidence(source, SppParams(1.0), MziPhases(0.0), MziGeometry(1.0, 1.0))


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
    geom = MziGeometry(1.0, 1.0, aperture_factor=8.0)
    serial = scan("zeta", 0.5, 2.5, 5, geom=geom, grid_n=128)
    monkeypatch.setenv("BIPHOTON_THREADS", "4")
    # from a cold cache: the geometry is built once, before the pool starts
    mzi_module._fast_geometry.cache_clear()
    threaded = scan("zeta", 0.5, 2.5, 5, geom=geom, grid_n=128)
    assert mzi_module._fast_geometry.cache_info().misses == 1
    for a, b in zip(serial.rows, threaded.rows):
        assert a == b
    assert _row_bytes(threaded) == _row_bytes(serial)


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
def test_scan_rejects_bad_thread_count(monkeypatch, value):
    monkeypatch.setenv("BIPHOTON_THREADS", value)
    with pytest.raises(ValueError, match="BIPHOTON_THREADS"):
        scan("zeta", 0.5, 2.5, 2, geom=MziGeometry(1.0, 1.0, aperture_factor=8.0),
             grid_n=16)
