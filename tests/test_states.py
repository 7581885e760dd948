import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermite

from biphoton import states
from biphoton import (GaussianBeamParams, MziGeometry, MziPhases, PumpMode, Representation,
                      SpdcParams, SppParams, TransverseMode, TwoPhotonAmplitude,
                      apply_sigma, bell_state, coincidence_probability, fourier_2d,
                      gaussian_g00, hermite_gaussian, inner_product_2d,
                      make_grid, mode_norm, mzi_coincidence, norm_squared, normalize, oam_ring,
                      position_representation, product_state, reflect_y,
                      sigma_overlap, spdc_state, symmetry_decompose,
                      thin_crystal_gaussian, to_dense, dense_sigma_overlap)

from _helpers import smooth_random_mode, spdc_pair

GRID = make_grid(64, 8.0)


def test_gaussian_g00_basic():
    mode = gaussian_g00(1.0, GRID)
    assert mode_norm(mode) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(mode.values.imag).max() == 0.0
    assert np.all(mode.values.real > 0)
    # peak at the four samples nearest the origin
    peak = np.unravel_index(np.argmax(mode.values.real), mode.values.shape)
    assert peak in {(31, 31), (31, 32), (32, 31), (32, 32)}
    assert np.array_equal(reflect_y(mode).values, mode.values)


def test_gaussian_g00_under_resolved():
    # a large waist makes the momentum-space Gaussian too narrow for the grid
    with pytest.raises(ValueError):
        gaussian_g00(10.0, make_grid(8, 8.0))


def test_hermite_gaussian_reduces_to_g00():
    hg = hermite_gaussian(0, 0, 1.0, GRID)
    assert np.abs(hg.values - gaussian_g00(1.0, GRID).values).max() < 1e-10


def test_hermite_gaussian_parity_exact():
    hg01 = hermite_gaussian(0, 1, 1.0, GRID)
    assert np.array_equal(reflect_y(hg01).values, -hg01.values)
    hg12 = hermite_gaussian(1, 2, 1.0, GRID)
    assert np.array_equal(reflect_y(hg12).values, hg12.values)


def test_hermite_gaussian_orthogonality():
    # 1D quadrature oracle: the separable factors integrate to zero.
    h10 = hermite_gaussian(1, 0, 1.0, GRID)
    h01 = hermite_gaussian(0, 1, 1.0, GRID)
    assert abs(inner_product_2d(h10, h01)) < 1e-10
    oracle, _ = quad(lambda s: eval_hermite(1, s) * eval_hermite(0, s) * np.exp(-s ** 2),
                     -np.inf, np.inf)
    assert abs(oracle) < 1e-12


@settings(max_examples=80, deadline=None)
@given(m=st.integers(0, 6), n=st.integers(0, 6), w0=st.floats(0.5, 2.0),
       grid_n=st.sampled_from([16, 32, 48]), representation=st.sampled_from(list(Representation)))
def test_hermite_gaussian_and_pump_match_the_scipy_closed_form(m, n, w0, grid_n,
                                                               representation):
    # H_m(s) H_n(t) exp(-(s^2 + t^2)/2) with s = qx w0/sqrt2 in momentum and
    # s = sqrt2 x/w0 in position, from scipy's Hermite polynomials.
    grid = make_grid(grid_n, 6.0)
    qx, qy = np.meshgrid(grid.axis, grid.axis, indexing="ij")

    def closed_form(scale):
        s, t = qx * scale, qy * scale
        return eval_hermite(m, s) * eval_hermite(n, t) * np.exp(-(s ** 2 + t ** 2) / 2.0)

    pump = PumpMode("hermite", w0, m, n).evaluate(qx, qy)
    expected = closed_form(w0 / np.sqrt(2.0))
    assert np.abs(pump - expected).max() <= 1e-12 * np.abs(expected).max()
    try:
        mode = hermite_gaussian(m, n, w0, grid, representation)
    except ValueError as exc:
        assert "does not resolve" in str(exc)
        reject()
    if representation is Representation.POSITION:
        expected = closed_form(np.sqrt(2.0) / w0)
    expected = expected / np.sqrt(np.sum(expected ** 2) * grid.weight)
    assert np.abs(mode.values - expected).max() <= 1e-12 * np.abs(expected).max()


def test_hermite_gaussian_rejects_negative_indices():
    with pytest.raises(ValueError):
        hermite_gaussian(-1, 0, 1.0, GRID)


@pytest.mark.parametrize("build,value", [
    (lambda grid: hermite_gaussian(1.0, 0, 1.0, grid), "1.0"),
    (lambda grid: hermite_gaussian(0, np.float64(2.0), 1.0, grid), "2.0"),
    (lambda grid: oam_ring(2.0, 1.0, grid), "2.0"),
    (lambda grid: bell_state("psi-minus", 1.5, 1.0, grid), "1.5"),
], ids=["hg-float-m", "hg-numpy-float-n", "oam-float-l", "bell-float-l"])
def test_float_mode_indices_fail_alike_from_a_cold_and_a_warm_cache(build, value):
    # 1.0 and 1 are equal cache keys: a float order raised a TypeError from
    # an empty cache but returned the integer order's mode once it was cached.
    grid = make_grid(16, 5.0)
    message = f"mode indices must be integers, got {value}"
    states._MODES.clear()
    with pytest.raises(ValueError, match=message):
        build(grid)
    for l in (1, 2):  # the integer twins of the floats, now cached
        hermite_gaussian(l, 0, 1.0, grid)
        hermite_gaussian(0, l, 1.0, grid)
        oam_ring(l, 1.0, grid)
    with pytest.raises(ValueError, match=message):
        build(grid)


def test_numpy_integer_mode_indices_are_the_integer_modes():
    grid = make_grid(16, 5.0)
    assert hermite_gaussian(np.int64(1), np.uint8(2), 1.0, grid) is hermite_gaussian(1, 2, 1.0, grid)
    assert oam_ring(np.int32(-2), 1.0, grid) is oam_ring(-2, 1.0, grid)
    pump = PumpMode("hermite", 1.0, np.int64(1), np.int16(2))
    assert pump == PumpMode("hermite", 1.0, 1, 2)
    assert type(pump.m) is int and type(pump.n) is int


@pytest.mark.parametrize("waist", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("factory", [
    lambda w: hermite_gaussian(1, 0, w, GRID),
    lambda w: gaussian_g00(w, GRID),
    lambda w: oam_ring(1, w, GRID),
    lambda w: bell_state("psi-minus", 1, w, GRID),
], ids=["hermite_gaussian", "gaussian_g00", "oam_ring", "bell_state"])
def test_mode_factories_reject_bad_waist(factory, waist):
    with pytest.raises(ValueError, match="waist must be finite and positive"):
        factory(waist)


def test_oam_ring_l0_real_rotation_symmetric():
    ring = oam_ring(0, 1.0, GRID)
    assert np.abs(ring.values.imag).max() == 0.0
    assert np.abs(ring.values - ring.values.T).max() < 1e-14


def _assert_cached_modes_read_only(tables):
    # Every caller shares a cached mode, so none may write into it, and the
    # cache holds a bounded number of bytes.
    cache = states._MODES
    assert 0 < cache.nbytes <= cache.budget <= states._MODE_CACHE_BYTES
    assert cache.nbytes == sum(mode.values.nbytes for mode in cache._modes.values())
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(l=st.integers(-40, 40), n=st.sampled_from([16, 32, 64]),
       half_width=st.floats(2.0, 12.0), representation=st.sampled_from(list(Representation)))
def test_oam_ring_matches_the_closed_form(l, n, half_width, representation):
    # The winding is a power of the grid's unit phasor; the closed form
    # takes arctan2 and a complex exp at every sample.  At waist 1 the ring is
    # q^|l| exp(-q^2/4) in momentum and (2r)^|l| exp(-r^2) in position.
    grid = make_grid(n, half_width)
    qx, qy = grid.meshgrid()
    q = np.hypot(qx, qy)
    if representation is Representation.MOMENTUM:
        radial = q ** abs(l) * np.exp(-q * q / 4.0)
    else:
        radial = (2.0 * q) ** abs(l) * np.exp(-q * q)
    want = radial * np.exp(1j * l * np.arctan2(qy, qx))
    want /= np.sqrt(np.sum(np.abs(want) ** 2)) * grid.spacing
    ring = oam_ring(l, 1.0, grid, representation)
    assert np.abs(ring.values - want).max() <= 1e-12
    _assert_cached_modes_read_only([ring.values])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("factory", [*(partial(oam_ring, l) for l in range(-3, 4)),
                                     *(partial(hermite_gaussian, *mn)
                                       for mn in [(0, 0), (1, 0), (2, 1)])],
                         ids=[*(f"oam{l}" for l in range(-3, 4)), "hg00", "hg10", "hg21"])
def test_position_factory_is_the_fourier_partner_of_the_momentum_mode(factory, n):
    # A factory's position mode of waist w0 is the Fourier transform of its
    # momentum mode of the same waist, on the conjugate grid.
    position = fourier_2d(factory(1.0, make_grid(n, 10.0)))
    built = factory(1.0, position.grid, Representation.POSITION)
    assert abs(inner_product_2d(position, built)) >= 1.0 - 1e-9


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 6), n=st.integers(0, 6), w0=st.floats(0.5, 2.0),
       grid_n=st.sampled_from([32, 64]), half_width=st.floats(2.0, 4.0),
       representation=st.sampled_from(list(Representation)))
def test_hermite_gaussian_is_the_same_from_a_cold_cache(m, n, w0, grid_n, half_width,
                                                        representation):
    grid = make_grid(grid_n, half_width)
    states._MODES.clear()
    cold = hermite_gaussian(m, n, w0, grid, representation).values
    warm = hermite_gaussian(m, n, w0, grid, representation).values
    states._MODES.clear()
    again = hermite_gaussian(m, n, w0, grid, representation).values
    assert np.array_equal(cold, warm) and np.array_equal(cold, again)
    _assert_cached_modes_read_only([warm, again])


@pytest.mark.parametrize("representation", list(Representation))
@pytest.mark.parametrize("factory", [partial(hermite_gaussian, 2, 1), gaussian_g00,
                                     partial(oam_ring, -3), partial(oam_ring, 2)],
                         ids=["hg21", "g00", "oam-3", "oam2"])
def test_factory_mode_from_the_cache_is_the_cold_build(factory, representation):
    # A hit returns the object the cold call built and cached, and its values
    # still equal a build from an empty cache.  The other representation at
    # waist 2 has the same width and values, but is another mode.
    grid = make_grid(32, 5.0)
    states._MODES.clear()
    cold = factory(1.0, grid, representation)
    hit = factory(1.0, grid, representation)
    assert hit is cold
    other = next(r for r in Representation if r is not representation)
    twin = factory(2.0, grid, other)
    assert twin.representation is other and np.array_equal(twin.values, hit.values)
    states._MODES.clear()
    rebuilt = factory(1.0, grid, representation)
    assert rebuilt is not cold and np.array_equal(rebuilt.values, hit.values)
    assert hit.grid == grid and hit.representation is representation
    _assert_cached_modes_read_only([hit.values, rebuilt.values])


def test_equal_grids_built_apart_share_one_mode_cache_entry():
    # The key holds the grid's n and half-width, not the Grid, so two equal
    # grids built separately hit one entry; another half-width, size, waist,
    # representation or order misses.
    states._MODES.clear()
    grid, twin = make_grid(16, 5.0), make_grid(16, 5.0)
    assert grid is not twin
    hg, ring = hermite_gaussian(1, 2, 1.0, grid), oam_ring(2, 1.0, grid)
    assert hermite_gaussian(1, 2, 1.0, twin) is hg and oam_ring(2, 1.0, twin) is ring
    assert list(states._MODES._modes) == [("hg", 1, 2, 1.0, 16, 5.0, "momentum"),
                                          ("oam", 2, 1.0, 16, 5.0, "momentum")]
    misses = [hermite_gaussian(1, 2, 1.0, make_grid(16, 5.5)),
              hermite_gaussian(1, 2, 1.0, make_grid(32, 5.0)),
              hermite_gaussian(1, 2, 1.1, twin),
              # waist 2 in position: the momentum profile of width 1
              hermite_gaussian(1, 2, 2.0, twin, Representation.POSITION),
              hermite_gaussian(2, 1, 1.0, twin), hermite_gaussian(1, 3, 1.0, twin),
              oam_ring(2, 1.0, make_grid(16, 5.5)), oam_ring(2, 1.1, twin),
              oam_ring(2, 2.0, twin, Representation.POSITION), oam_ring(-2, 1.0, twin)]
    assert not any(mode is hg or mode is ring for mode in misses)
    assert len(states._MODES._modes) == 2 + len(misses)


def test_from_modes_and_normalize_hold_their_own_read_only_arrays():
    # The factories build amplitudes with no re-validation: from_modes copies
    # the modes' values once, normalize takes the factors it was given, and
    # every array either holds is read-only.
    grid = make_grid(16, 5.0)
    rng = np.random.default_rng(30)
    f, g = smooth_random_mode(rng, grid), smooth_random_mode(rng, grid)
    assert f.values.flags.writeable
    amp = states.from_modes([(1.0, f, g), (0.5j, g, f)])
    f.values[:] = 0.0
    assert np.abs(amp.photon1[0]).max() > 0.0 and amp.grid is grid
    unit = normalize(amp)
    assert unit.photon1 is amp.photon1 and unit.photon2 is amp.photon2
    assert np.array_equal(unit.coeffs, amp.coeffs / np.sqrt(norm_squared(amp)))
    for arrays in (amp, unit):
        for values in (arrays.coeffs, arrays.photon1, arrays.photon2):
            assert not values.flags.writeable
    assert unit.truncation_error is None and unit._form is None
    with pytest.raises(ValueError, match="modes live on different grids"):
        states.from_modes([(1.0, f, g), (1.0, f, gaussian_g00(1.0, make_grid(16, 5.5)))])


def test_mode_cache_keeps_its_byte_budget_and_evicts_the_least_recently_used():
    grid = make_grid(256, 40.0)
    per_mode = 16 * 256 ** 2  # 1 MiB
    capacity = states._MODE_CACHE_BYTES // per_mode
    keys = [(m, n) for m in range(6) for n in range(7)]
    assert len(keys) > capacity
    states._MODES.clear()
    modes = [hermite_gaussian(m, n, 1.0, grid) for m, n in keys]
    assert states._MODES.nbytes == capacity * per_mode == states._MODE_CACHE_BYTES
    _assert_cached_modes_read_only([mode.values for mode in modes])
    oldest_kept = len(keys) - capacity
    assert hermite_gaussian(*keys[-1], 1.0, grid) is modes[-1]
    assert hermite_gaussian(*keys[oldest_kept], 1.0, grid) is modes[oldest_kept]  # now newest
    evicted = hermite_gaussian(*keys[0], 1.0, grid)  # a miss: evicts keys[oldest_kept + 1]
    assert evicted is not modes[0] and np.array_equal(evicted.values, modes[0].values)
    assert hermite_gaussian(*keys[oldest_kept], 1.0, grid) is modes[oldest_kept]
    assert hermite_gaussian(*keys[oldest_kept + 1], 1.0, grid) is not modes[oldest_kept + 1]
    assert states._MODES.nbytes == states._MODE_CACHE_BYTES
    # A mode larger than the budget is returned, read-only, and never kept.
    states._MODES.clear()
    with mock.patch.object(states._MODES, "budget", per_mode - 1):
        big = oam_ring(1, 1.0, grid)
        assert oam_ring(1, 1.0, grid) is not big and not big.values.flags.writeable
        assert states._MODES.nbytes == 0 and not states._MODES._modes
    # A mode of exactly the budget is kept.
    with mock.patch.object(states._MODES, "budget", per_mode):
        whole = oam_ring(1, 1.0, grid)
        assert oam_ring(1, 1.0, grid) is whole and states._MODES.nbytes == per_mode


def test_mode_cache_under_concurrent_callers():
    # Four threads, switching every microsecond.  Without eviction every
    # caller of a key gets one mode; with a budget of three modes among four
    # keys the cache evicts on most misses, and its byte count stays the sum
    # of the modes it holds.
    grid = make_grid(16, 5.0)
    calls = [partial(oam_ring, l, 1.0, grid) for l in (-2, -1, 1, 2)] * 128
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        states._MODES.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            modes = list(pool.map(lambda call: call(), calls, timeout=60))
        assert all(mode is modes[i % 4] for i, mode in enumerate(modes))
        assert states._MODES.nbytes == 4 * 16 * 16 ** 2
        states._MODES.clear()
        with mock.patch.object(states._MODES, "budget", 3 * 16 * 16 ** 2):
            with ThreadPoolExecutor(max_workers=4) as pool:
                churned = list(pool.map(lambda call: call(), calls, timeout=60))
            _assert_cached_modes_read_only([])
            assert states._MODES.nbytes == 3 * 16 * 16 ** 2
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(mode.values, modes[i % 4].values)
               for i, mode in enumerate(churned))


def test_hermite_gaussian_of_a_high_order_is_normalized_or_rejected():
    # HG_150's row peaks at 2.3e153 on this grid, so the squares of the mode
    # overflow: it used to normalize to zeros.  At m = 400 the Hermite
    # recurrence itself overflows.  Neither warns, and the rejected mode is
    # not cached.
    states._MODES.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode = hermite_gaussian(150, 0, 1.0, GRID)
        for m, n in [(400, 0), (0, 400), (150, 200)]:
            with pytest.raises(ValueError, match=f"HG_{m},{n} overflows the float range "
                                                 "for w0 = 1.0 and half_width = 8.0"):
                hermite_gaussian(m, n, 1.0, GRID)
    assert list(states._MODES._modes) == [("hg", 150, 0, 1.0, GRID.n, GRID.half_width,
                                          "momentum")]
    row = states._hg_profile(150, GRID.axis, 1.0)
    assert np.abs(row).max() == pytest.approx(2.3e153, rel=0.05)
    want = np.outer(row / np.abs(row).max(), states._hg_profile(0, GRID.axis, 1.0))
    want /= np.sqrt(np.sum(want ** 2)) * GRID.spacing
    assert mode_norm(mode) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(mode.values - want).max() <= 1e-12 * np.abs(want).max()


def test_resolution_guard_raises_exactly_past_one_sample_per_width():
    # The guard raises when the spacing exceeds 1/w; on make_grid(8, hw) the
    # spacing is hw/4.  A mode built on the same grid and waist first does
    # not let a new key skip the guard.
    states._MODES.clear()
    coarse, fine = make_grid(8, 4.0 * 1.001), make_grid(8, 4.0 * 0.999)
    assert coarse.spacing == pytest.approx(1.001) and fine.spacing == pytest.approx(0.999)
    hermite_gaussian(1, 0, 1.0, fine)
    gaussian_g00(1.0, fine)
    gaussian_g00(1.0, make_grid(8, 4.0))  # spacing exactly 1/w: resolved
    with pytest.raises(ValueError, match="grid spacing 1.001 does not resolve a mode of waist 1"):
        gaussian_g00(1.0, coarse)
    # The position mode of waist 1 has width 2: half the width it may have.
    with pytest.raises(ValueError, match="grid spacing 0.999 does not resolve"):
        gaussian_g00(1.0, fine, Representation.POSITION)
    gaussian_g00(0.998, coarse)
    with pytest.raises(ValueError, match="grid spacing 1.001 does not resolve"):
        hermite_gaussian(0, 0, 1.0, coarse)
    with pytest.raises(ValueError, match="grid spacing 1.001 does not resolve"):
        hermite_gaussian(2, 0, 0.9995, coarse)


def test_a_momentum_phase_ramp_moves_the_position_mode_to_plus_a():
    # The exp(+i x.q) kernel maps g(q) exp(-i q_x a) to G(x - a): centred on
    # x = +a, through fourier_2d and through position_representation.
    a = 1.5
    g00 = gaussian_g00(1.0, GRID)
    ramp = TransverseMode(g00.values * np.exp(-1j * a * GRID.axis)[:, None], GRID,
                          Representation.MOMENTUM)

    def centroid(values, grid):
        density = np.abs(values) ** 2
        x, y = grid.meshgrid()
        return np.sum(density * x) / np.sum(density), np.sum(density * y) / np.sum(density)

    moved = fourier_2d(ramp)
    assert centroid(moved.values, moved.grid) == pytest.approx((a, 0.0), abs=1e-4)
    pair = position_representation(product_state(ramp, g00))
    assert centroid(pair.photon1[0], pair.grid) == pytest.approx((a, 0.0), abs=1e-4)
    assert centroid(pair.photon2[0], pair.grid) == pytest.approx((0.0, 0.0), abs=1e-4)


def test_oam_ring_orthogonality_matrix():
    modes = {l: oam_ring(l, 1.0, GRID) for l in range(-3, 4)}
    for l in modes:
        for lp in modes:
            expected = 1.0 if l == lp else 0.0
            assert abs(inner_product_2d(modes[l], modes[lp]) - expected) < 1e-8


def test_oam_ring_reflection_flips_charge():
    ring = oam_ring(2, 1.0, GRID)
    assert np.abs(reflect_y(ring).values - oam_ring(-2, 1.0, GRID).values).max() < 1e-12


@pytest.mark.parametrize("kind,weights", [
    ("psi-minus", (0.0, 1.0)),
    ("psi-plus", (1.0, 0.0)),
    ("phi-plus", (1.0, 0.0)),
    ("phi-minus", (1.0, 0.0)),
])
def test_bell_state_symmetry(kind, weights):
    amp = bell_state(kind, 1, 1.0, GRID)
    assert symmetry_decompose(amp) == pytest.approx(weights, abs=1e-10)


def test_bell_state_l0_rejected():
    with pytest.raises(ValueError):
        bell_state("psi-plus", 0, 1.0, GRID)
    with pytest.raises(ValueError):
        bell_state("nope", 1, 1.0, GRID)


def test_single_photon_reflection_exchanges_bell_families():
    # Reflecting one photon maps the psi family onto the phi family.
    g = make_grid(32, 8.0)
    for sign in ("plus", "minus"):
        psi = bell_state(f"psi-{sign}", 1, 1.0, g)
        phi = bell_state(f"phi-{sign}", 1, 1.0, g)
        reflected = TwoPhotonAmplitude(
            psi.coeffs, psi.photon1, psi.photon2[:, :, ::-1], g, psi.representation)
        assert np.abs(to_dense(reflected).values - to_dense(phi).values).max() < 1e-10


def test_product_state_examples():
    l1 = oam_ring(1, 1.0, GRID)
    lm1 = oam_ring(-1, 1.0, GRID)
    assert coincidence_probability(product_state(l1, l1)) == pytest.approx(0.5, abs=1e-6)
    assert coincidence_probability(product_state(l1, lm1)) == pytest.approx(0.0, abs=1e-6)


def test_product_state_never_anticoalesces():
    rng = np.random.default_rng(9)
    g = make_grid(16, 5.0)
    for _ in range(50):
        amp = product_state(smooth_random_mode(rng, g), smooth_random_mode(rng, g))
        assert coincidence_probability(amp) <= 0.5 + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), orders=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       n=st.sampled_from([16, 24, 32, 48]), waists=st.tuples(st.floats(0.3, 1.5),
                                                              st.floats(0.3, 1.5)))
def test_product_states_never_anticoalesce_over_hg_orders_grids_and_waists(seed, orders, n,
                                                                             waists):
    # J = |<Pi_y g, f>|^2 >= 0 for any product f(q1) g(q2), so P_c <= 1/2:
    # here each photon is a random mix of HG_mn up to the drawn order, at
    # its own waist.
    rng = np.random.default_rng(seed)
    g = make_grid(n, 5.0)
    f1, f2 = (smooth_random_mode(rng, g, max_order=k, waist=w) for k, w in zip(orders, waists))
    assert coincidence_probability(product_state(f1, f2)) <= 0.5 + 1e-9


SPDC_GRID = make_grid(32, 6.0)


@pytest.mark.parametrize("pump,expected_j", [
    (PumpMode("gaussian", 1.0), 1.0),
    (PumpMode("hermite", 1.0, 1, 0), 1.0),
    (PumpMode("hermite", 1.0, 0, 1), -1.0),
])
def test_spdc_symmetry_follows_pump_parity(pump, expected_j):
    amp = spdc_state(SpdcParams(1.0, 2.0, pump), SPDC_GRID)
    assert amp.truncation_error < 1e-6
    assert sigma_overlap(amp) == pytest.approx(expected_j, abs=1e-6)
    assert pump.y_parity == (1 if expected_j > 0 else -1)


@pytest.mark.parametrize("build,message", [
    (lambda: SpdcParams(np.nan, 2.0, PumpMode("gaussian", 1.0)), "crystal_length"),
    (lambda: SpdcParams(0.0, 2.0, PumpMode("gaussian", 1.0)), "crystal_length"),
    (lambda: SpdcParams(1.0, np.inf, PumpMode("gaussian", 1.0)), "pump_wavenumber"),
    (lambda: SpdcParams(1.0, -2.0, PumpMode("gaussian", 1.0)), "pump_wavenumber"),
    (lambda: PumpMode("gaussian", np.nan), "waist"),
    (lambda: PumpMode("hermite", 0.0, 1, 0), "waist"),
    (lambda: PumpMode("hermite", 1.0, -1, 0), "mode indices"),
    (lambda: PumpMode("hermite", 1.0, 0, -2), "mode indices"),
    (lambda: PumpMode("laguerre", 1.0), "pump kind"),
    (lambda: PumpMode("gaussian", 1.0, 0, 1), "gaussian pump"),
    (lambda: PumpMode("hermite", 1.0, 1.0, 0), "mode indices must be integers, got 1.0"),
])
def test_spdc_params_and_pump_reject_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("pump", [PumpMode("gaussian", 1.0), PumpMode("hermite", 1.0, 1, 0),
                                  PumpMode("hermite", 1.0, 0, 1)])
def test_spdc_factors_rebuild_the_amplitude(pump):
    # The parity-sector factors, summed back on the grid, give the
    # normalized down-converted pair within the reported truncation error.
    grid = make_grid(16, 6.0)
    amp = spdc_state(SpdcParams(1.0, 2.0, pump), grid)
    ax = grid.axis
    q1x, q1y, q2x, q2y = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    exact = pump.evaluate(q1x + q2x, q1y + q2y) * np.sinc(
        ((q1x - q2x) ** 2 + (q1y - q2y) ** 2) / (4.0 * 2.0) / np.pi)
    exact /= np.sqrt(np.sum(exact ** 2) * grid.weight ** 2)
    error = np.sqrt(np.sum(np.abs(to_dense(amp).values - exact) ** 2) * grid.weight ** 2)
    assert error <= amp.truncation_error * (1.0 + 1e-6) + 1e-12
    assert amp.truncation_error > 0.0


@pytest.mark.parametrize("pump,parities", [
    (PumpMode("gaussian", 1.0), (1, 1)),
    (PumpMode("hermite", 1.0, 1, 0), (-1, 1)),
    (PumpMode("hermite", 1.0, 0, 1), (1, -1)),
    (PumpMode("hermite", 1.0, 1, 1), (-1, -1)),
    (PumpMode("hermite", 1.0, 2, 3), (1, -1)),
])
def test_pump_parities(pump, parities):
    assert (pump.x_parity, pump.y_parity) == parities
    g = make_grid(16, 6.0)
    ax = g.axis
    qx, qy = np.meshgrid(ax, ax, indexing="ij")
    v = pump.evaluate(qx, qy)
    assert np.array_equal(v[::-1, :], pump.x_parity * v)
    assert np.array_equal(v[:, ::-1], pump.y_parity * v)


def _dense_eigh_reference(params, grid, rank_tol=1e-6):
    """Rank, truncation error and symmetry weights of the SPDC pair from an
    eigendecomposition of its whole (n^2, n^2) unfolding."""
    n = grid.n
    lam, v = np.linalg.eigh(spdc_pair(params, grid).reshape(n * n, n * n))
    order = np.argsort(-np.abs(lam), kind="stable")
    squares = lam[order] ** 2
    dropped = np.append(np.cumsum(squares[::-1])[::-1][1:], 0.0)  # keeping k + 1
    rank = int(np.flatnonzero(dropped <= rank_tol ** 2 * squares.sum())[0]) + 1
    kept = order[:rank]
    amp = TwoPhotonAmplitude(np.abs(lam[kept]),
                             (v[:, kept] * np.sign(lam[kept])).T.reshape(rank, n, n),
                             v[:, kept].T.reshape(rank, n, n), grid, Representation.MOMENTUM)
    return rank, np.sqrt(dropped[rank - 1] / squares.sum()), symmetry_decompose(normalize(amp))


def _parities(factors):
    """Per (rank, n, n) factor: +1 if exactly even, -1 if exactly odd under
    the reversal of its first grid axis; 0 if neither."""
    even = np.all(factors == factors[:, ::-1], axis=(1, 2)).astype(int)
    odd = np.all(factors == -factors[:, ::-1], axis=(1, 2)).astype(int)
    return even - odd


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("pump", [PumpMode("gaussian", 1.0), PumpMode("hermite", 1.0, 1, 0),
                                  PumpMode("hermite", 1.0, 0, 1),
                                  PumpMode("hermite", 1.0, 1, 1),
                                  PumpMode("hermite", 1.0, 2, 3)],
                         ids=["g00", "hg10", "hg01", "hg11", "hg23"])
def test_spdc_parity_sectors_match_dense_eigh(pump, n):
    params = SpdcParams(1.0, 2.0, pump)
    grid = make_grid(n, 6.0)
    amp = spdc_state(params, grid)
    rank, err, weights = _dense_eigh_reference(params, grid)
    assert amp.rank == rank
    assert abs(amp.truncation_error - err) <= 1e-12
    assert np.abs(np.subtract(symmetry_decompose(amp), weights)).max() <= 1e-12
    assert amp.photon1.dtype == amp.photon2.dtype == np.float64
    # Every factor is exactly even or odd along x and along y, and photon 1's
    # sector is photon 2's times the pump parities.
    by_axis = {}
    for name in ("photon1", "photon2"):
        f = getattr(amp, name)
        by_axis[name] = (_parities(f), _parities(f.transpose(0, 2, 1)))
        assert np.all(np.abs(by_axis[name]) == 1), name
    (x1, y1), (x2, y2) = by_axis["photon1"], by_axis["photon2"]
    assert np.array_equal(x1, pump.x_parity * x2)
    assert np.array_equal(y1, pump.y_parity * y2)


@pytest.mark.parametrize("pump,svd_batches,eigh_batches", [
    (PumpMode("gaussian", 1.0), [], [4]),
    (PumpMode("hermite", 1.0, 1, 0), [2], []),
    (PumpMode("hermite", 1.0, 0, 1), [2], []),
    (PumpMode("hermite", 1.0, 1, 1), [2], []),
    (PumpMode("hermite", 1.0, 2, 3), [2], []),
    (PumpMode("hermite", 1.0, 2, 2), [], [4]),
], ids=["g00", "hg10", "hg01", "hg11", "hg23", "hg22"])
def test_spdc_factorizations_per_pump_parity(pump, svd_batches, eigh_batches):
    # A pump with an odd parity pairs the four sector blocks as transposes:
    # one batched SVD of two blocks.  An even-even pump's blocks are all
    # symmetric: one batched eigh of four, and no SVD.
    calls = {"svd": [], "eigh": []}

    def counting(name):
        real = getattr(np.linalg, name)

        def count(a, *args, **kwargs):
            calls[name].append(a.shape[0] if a.ndim == 3 else 1)
            return real(a, *args, **kwargs)
        return count

    with mock.patch.object(np.linalg, "svd", counting("svd")), \
            mock.patch.object(np.linalg, "eigh", counting("eigh")):
        spdc_state(SpdcParams(1.0, 2.0, pump), make_grid(16, 6.0))
    assert calls == {"svd": svd_batches, "eigh": eigh_batches}


def test_spdc_rejects_huge_grids():
    with pytest.raises(ValueError):
        spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), make_grid(64, 6.0))


def test_spdc_takes_grids_up_to_the_dense_maximum():
    params = SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0))
    n = states._MAX_DENSE_SPDC_N
    assert spdc_state(params, make_grid(n, 6.0)).grid.n == n
    with pytest.raises(ValueError, match=f"n = {n + 2} exceeds the supported maximum {n}"):
        spdc_state(params, make_grid(n + 2, 6.0))


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.one_of(st.sampled_from([1.0, 0.5, 0.25]), st.floats(1e-3, 1e3)),
                        min_size=1, max_size=40),
       k=st.integers(-900, 900), rank_tol=st.sampled_from([1e-1, 1e-3, 1e-6]))
def test_truncate_is_exact_under_power_of_two_scaling(weights, k, rank_tol):
    # The weights are scaled before squaring, so 2^k times them gives the same
    # terms bit for bit, though their squares over- or underflow.  The order
    # is descending with ties in index order.
    weights = np.array(weights)
    coeffs, err, kept = states._truncate(weights, rank_tol)
    scaled = states._truncate(np.ldexp(weights, k), rank_tol)
    assert coeffs.tobytes() == scaled[0].tobytes()
    assert err == scaled[1] and np.array_equal(kept, scaled[2])
    assert kept.tolist() == sorted(range(weights.size), key=lambda i: (-weights[i], i))[:kept.size]
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= err <= rank_tol


@pytest.mark.parametrize("weights", [[1.0, np.nan, 0.5], [np.nan]])
def test_truncate_rejects_weights_whose_error_is_not_finite(weights):
    # A NaN weight made the truncation error NaN, which was returned as if valid.
    with pytest.raises(ValueError, match="truncation error of nan"):
        states._truncate(np.array(weights), 1e-6)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
@pytest.mark.parametrize("aperture", [6.0, 12.0, 40.0])
def test_thin_crystal_uses_the_leading_vectors_at_unit_quadrature_norm(n, aperture):
    # The kept pairs use the leading m singular vectors per axis, the pairs
    # of mirrored ties (sigma_i sigma_j = sigma_j sigma_i) included, and every
    # per-axis vector has unit quadrature norm, so every factor does.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    grid = make_grid(n, aperture * beam.spot_size)
    for axes in thin_crystal_gaussian(beam, grid)._form:
        assert axes.x is axes.y
        assert np.array_equal(np.union1d(axes.ix, axes.iy), np.arange(axes.x.shape[0]))
        norms = np.sum(np.abs(axes.x) ** 2, axis=1) * grid.spacing
        assert np.abs(norms - 1.0).max() <= 1e-12


def _full_svd(upper, mirror):
    """np.linalg.svd of the whole axis matrix, in _parity_svd's form.  The
    matrix is rebuilt bit for bit from the halves _parity_svd takes: its rows
    on the positive half are [mirror reversed, upper], and psi(-s, -t) =
    psi(s, t) gives the others.  Its vectors are even or odd only to
    rounding, and the per-axis form takes only exact ones, so each is
    replaced by its mirror average (v +- v[::-1]) / 2, which is exactly even
    or odd."""
    positive = np.concatenate([mirror[:, ::-1], upper], axis=1)
    u, sv, vh = np.linalg.svd(np.concatenate([positive[::-1, ::-1], positive]))

    def leading(m):
        rows = []
        for v in (u[:, :m].T, vh[:m]):
            mirrored = v[:, ::-1]
            even = np.linalg.norm(v + mirrored, axis=1) >= np.linalg.norm(v - mirrored, axis=1)
            rows.append((v + np.where(even, 1.0, -1.0)[:, None] * mirrored) / 2.0)
        return tuple(rows)

    return sv, leading


@pytest.mark.parametrize("include_phase", [True, False])
@pytest.mark.parametrize("z", [0.0, 1.0])
@pytest.mark.parametrize("n", [16, 64, 128])
def test_thin_crystal_parity_split_matches_a_full_svd(n, z, include_phase):
    # psi(-s, -t) = psi(s, t) on the half-offset grid, so the per-axis SVD
    # splits into an even and an odd half-size block: every kept vector is
    # even or odd bit for bit, and the state is the full SVD's (_full_svd).
    beam = GaussianBeamParams(1.0, z, 2.0)
    grid = make_grid(n, 6.0 * beam.spot_size)
    amp = thin_crystal_gaussian(beam, grid, include_phase=include_phase)
    for axes in amp._form:
        mirrored = axes.x[:, ::-1]
        even, odd = (np.all(mirrored == sign * axes.x, axis=1) for sign in (1.0, -1.0))
        assert np.all(even | odd)
    with mock.patch.object(states, "_parity_svd", _full_svd):
        full = thin_crystal_gaussian(beam, grid, include_phase=include_phase)
    assert amp.rank == full.rank
    assert abs(amp.truncation_error - full.truncation_error) <= 1e-12
    assert abs(coincidence_probability(amp) - coincidence_probability(full)) <= 1e-12
    geom = MziGeometry(1.0, 1.0, aperture_factor=6.0)
    split, reference = (mzi_coincidence(a, SppParams(1.3), MziPhases(0.4), geom)
                        for a in (amp, full))
    assert abs(split.conditional_pc - reference.conditional_pc) <= 1e-12
    assert abs(split.throughput_eta - reference.throughput_eta) <= 1e-12


def _spectra():
    """Descending singular values: draws from a few exact values (ties), any
    values, fast-decaying (Gaussian-like, as the thin crystal's) and flat."""
    ties = st.lists(st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.1]), min_size=1, max_size=90)
    free = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=90)
    decaying = st.builds(lambda n, rate: list(np.exp(-rate * np.arange(n) ** 2)),
                         st.integers(1, 130), st.floats(0.005, 0.5))
    flat = st.builds(lambda n, value: [value] * n, st.integers(1, 70), st.floats(0.1, 10.0))
    return st.one_of(ties, free, decaying, flat).map(lambda v: np.sort(np.array(v))[::-1].copy())


@settings(max_examples=200, deadline=None)
@given(sv=_spectra(), log_tol=st.floats(-12.0, -2.0), k=st.integers(-400, 400))
def test_pair_staircase_is_the_sorted_truncation_of_all_pair_weights(sv, log_tol, k):
    # The thin crystal truncates its pair weights sv_i sv_j by their
    # staircase in the leading block, without sorting all n^2 of them.  The
    # kept pairs, their order (ties in index order) and the coefficients are
    # _truncate's bit for bit; the error sums the dropped weights in another
    # order.  A flat spectrum at a small tolerance keeps every pair.  The
    # values are scaled before squaring, so 2^k times them gives the same
    # result bit for bit, though the squares of their pair weights over- or
    # underflow.
    tol = 10.0 ** log_tol
    coeffs, err, kept = states._truncate(np.outer(sv, sv).ravel(), tol)
    got_coeffs, got_err, ix, iy = states._truncate_pairs(sv, tol)
    assert np.array_equal(ix * sv.size + iy, kept)
    assert np.array_equal(got_coeffs, coeffs)
    assert abs(got_err - err) <= 1e-15 * err
    if np.all(sv == sv[0]) and tol < 1.0 / sv.size ** 2:
        assert kept.size == sv.size ** 2 and err == got_err == 0.0
    scaled = states._truncate_pairs(np.ldexp(sv, k), tol)
    assert scaled[0].tobytes() == got_coeffs.tobytes() and scaled[1] == got_err
    assert np.array_equal(scaled[2], ix) and np.array_equal(scaled[3], iy)


@pytest.mark.parametrize("sv, tol", [
    ([1.0] * 32 + [0.01] * 10, 0.02),  # the first block keeps all of its pairs
    ([1.0] * 16 + [0.5] * 17, 0.3),  # its last kept weight ties pair (0, 32)
], ids=["whole-block", "tie-at-the-edge"])
def test_pair_staircase_grows_its_block_past_a_tie(sv, tol):
    # Pair (0, b) is the heaviest outside the leading b x b block and comes
    # first among its equals, so a block whose cut keeps a pair of the same
    # weight is grown; a block whose cut keeps all its pairs, each heavier
    # than any outside, is not, and its error is that of the pairs outside.
    # The error is the exact one of the scaled pair weights: the sorted sum
    # of the 740 equal dropped squares of the first case loses more than
    # 1e-15 of it.
    sv = np.array(sv)
    coeffs, _, kept = states._truncate(np.outer(sv, sv).ravel(), tol)
    got_coeffs, got_err, ix, iy = states._truncate_pairs(sv, tol)
    assert np.array_equal(ix * sv.size + iy, kept) and np.array_equal(got_coeffs, coeffs)
    squares = [Fraction(float(w)) ** 2 for w in np.ldexp(np.outer(sv, sv).ravel(), -1)]
    dropped = sum(squares) - sum(squares[i] for i in kept)
    exact = math.sqrt(dropped / sum(squares))
    assert abs(got_err - exact) <= 1e-15 * exact


def test_pair_staircase_rejects_values_whose_error_is_not_finite():
    with pytest.raises(ValueError, match="truncation error of nan"):
        states._truncate_pairs(np.array([1.0, np.nan, 0.5]), 1e-6)


@pytest.mark.parametrize("include_phase", [True, False])
@pytest.mark.parametrize("z", [0.0, 1.0])
@pytest.mark.parametrize("n", [16, 64])
def test_thin_crystal_halves_are_the_axis_matrix_bit_for_bit(n, z, include_phase):
    # The state evaluates psi's two column halves on its rows at x > 0 from
    # the half axis, psi[h:, h:] and psi[h:, h-1::-1], and never the whole
    # (n, n) axis matrix; they are its slices bit for bit.
    beam = GaussianBeamParams(1.0, z, 2.0)
    grid = make_grid(n, 6.0 * beam.spot_size)
    halves = []
    parity_svd = states._parity_svd

    def spy(upper, mirror):
        halves.append((upper, mirror))
        return parity_svd(upper, mirror)

    with mock.patch.object(states, "_parity_svd", spy):
        thin_crystal_gaussian(beam, grid, include_phase=include_phase)
    s, t = grid.axis[:, None], grid.axis[None, :]
    w = beam.spot_size
    exponent = -((s + t) ** 2) / (4.0 * (w * w))
    if include_phase and z > 0.0:
        kp, z0, r = beam.pump_wavenumber, beam.rayleigh_length, beam.curvature_radius
        exponent = exponent + 1j * (kp / 4.0) * (
            z0 * z0 * (s - t) ** 2 / (2.0 * (beam.z * beam.z) * r) + (s ** 2 + t ** 2) / r)
    psi, h = np.exp(exponent), n // 2
    (upper, mirror), = halves
    assert np.array_equal(upper, psi[h:, h:]) and np.array_equal(mirror, psi[h:, h - 1::-1])


def test_thin_crystal_at_n_1024_traces_at_most_half_the_full_matrix_build():
    # Evaluating the two (n/2, n/2) halves, and truncating by the staircase
    # rather than sorting all n^2 pair weights, more than halves the traced
    # peak of the state at n = 1024: the build of the whole axis matrix and
    # the sort peaked at 96 MB, this one at about 34 MB.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    grid = make_grid(1024, 6.0 * beam.spot_size)
    tracemalloc.start()
    try:
        thin_crystal_gaussian(beam, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6


@pytest.mark.parametrize("waist", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("pump", [(0, 0), (0, 1), (1, 2)])
def test_state_factors_are_orthonormal_in_the_quadrature(pump, waist):
    # As normalize_mode and from_modes hold modes, so both factories hold
    # their factors, at any waist: each photon's Gram is the identity, and
    # the coefficients are the normalized singular weights.
    spdc = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", waist, *pump)),
                      make_grid(16, 6.0 / waist))
    beam = GaussianBeamParams(waist, 0.5, 2.0 / (waist * waist))  # Rayleigh length 1
    thin = thin_crystal_gaussian(beam, make_grid(16, 6.0 * beam.spot_size))
    for amp in (spdc, thin):
        for name in ("photon1", "photon2"):
            f = getattr(amp, name).reshape(amp.rank, -1)
            gram = np.conj(f) @ f.T * amp.grid.weight
            assert np.abs(gram - np.eye(amp.rank)).max() <= 1e-12, name
        assert np.linalg.norm(amp.coeffs) == pytest.approx(1.0, abs=1e-15)
        assert norm_squared(amp) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_beam_derived_quantities():
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    assert beam.rayleigh_length == pytest.approx(1.0)
    assert beam.spot_size == pytest.approx(np.sqrt(2.0))
    assert beam.curvature_radius == pytest.approx(2.0)
    at_focus = GaussianBeamParams(1.0, 0.0, 2.0)
    assert at_focus.spot_size == pytest.approx(1.0)
    assert at_focus.curvature_radius == np.inf
    with pytest.raises(ValueError):
        GaussianBeamParams(1.0, -0.5, 2.0)
    for field, args in [("waist", (np.nan, 1.0, 2.0)), ("waist", (np.inf, 1.0, 2.0)),
                        ("z", (1.0, np.nan, 2.0)), ("z", (1.0, np.inf, 2.0)),
                        ("pump_wavenumber", (1.0, 1.0, np.nan)),
                        ("pump_wavenumber", (1.0, 1.0, -np.inf)),
                        ("rayleigh_length", (1e200, 1.0, 2.0)),
                        ("rayleigh_length", (1e-200, 1.0, 2.0)),
                        ("spot_size", (1.0, 1.0, 1e-300))]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GaussianBeamParams(*args)


def test_thin_crystal_is_symmetric_dense_oracle():
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    g = make_grid(16, 4.0 * beam.spot_size)
    amp = thin_crystal_gaussian(beam, g)
    assert amp.truncation_error < 1e-6
    assert sigma_overlap(amp) == pytest.approx(1.0, abs=1e-6)
    assert dense_sigma_overlap(to_dense(amp)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("rank_tol", [1e-6, 1e-7, 1e-8])
def test_truncation_error_meets_tight_tolerances(rank_tol):
    # The dropped norm is summed from the smallest weight up; as the total
    # minus a prefix sum it cancels to roundoff below ~1e-7, which kept all
    # 4096 terms here and reported an error of 4e-8 for rank_tol 1e-8.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    amp = thin_crystal_gaussian(beam, make_grid(64, 4.3 * beam.spot_size),
                                rank_tol=rank_tol)
    assert 0.0 < amp.truncation_error <= rank_tol
    assert amp.rank < 64 * 64


@pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
def test_thin_crystal_is_the_closed_form_phase_included(z):
    # The docstring's Psi over all four coordinates, with z0 = k_p w0^2 / 2,
    # w(z)^2 = w0^2 (1 + z^2/z0^2) and R(z) = z + z0^2 / z, normalized on the
    # grid.  The chirp cancels in J, so only the amplitude itself pins it.
    w0, kp = 1.0, 2.0
    z0 = kp * w0 * w0 / 2.0
    w_sq, r = w0 * w0 * (1.0 + (z / z0) ** 2), z + z0 * z0 / z
    beam = GaussianBeamParams(w0, z, kp)
    grid = make_grid(16, 6.0 * np.sqrt(w_sq))
    x1x, x1y, x2x, x2y = np.meshgrid(*[grid.axis] * 4, indexing="ij")
    plus_sq = (x1x + x2x) ** 2 + (x1y + x2y) ** 2
    minus_sq = (x1x - x2x) ** 2 + (x1y - x2y) ** 2
    chirp = (kp / 4.0) * (z0 * z0 * minus_sq / (2.0 * z * z * r)
                          + (x1x ** 2 + x1y ** 2 + x2x ** 2 + x2y ** 2) / r)
    want = np.exp(-plus_sq / (4.0 * w_sq) + 1j * chirp)
    want /= np.sqrt(np.sum(np.abs(want) ** 2)) * grid.weight
    got = to_dense(thin_crystal_gaussian(beam, grid, rank_tol=1e-12)).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_thin_crystal_at_focus_real_positive():
    beam = GaussianBeamParams(1.0, 0.0, 2.0)
    g = make_grid(16, 4.0)
    amp = thin_crystal_gaussian(beam, g)
    dense = to_dense(amp).values
    assert np.abs(dense.imag).max() < 1e-12
    # positive up to the low-rank truncation tolerance
    assert dense.real.min() >= -1e-6 * dense.real.max()
    assert dense.real.max() > 0.0


def test_thin_crystal_phase_does_not_change_symmetry():
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    g = make_grid(16, 4.0 * beam.spot_size)
    with_phase = thin_crystal_gaussian(beam, g, include_phase=True)
    without = thin_crystal_gaussian(beam, g, include_phase=False)
    assert sigma_overlap(with_phase) == pytest.approx(sigma_overlap(without), abs=1e-8)


def test_factories_normalized():
    for amp in (bell_state("phi-minus", 2, 1.0, GRID),
                spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), SPDC_GRID),
                thin_crystal_gaussian(GaussianBeamParams(1.0, 1.0, 2.0),
                                      make_grid(32, 5.0))):
        assert norm_squared(amp) == pytest.approx(1.0, abs=1e-10)
