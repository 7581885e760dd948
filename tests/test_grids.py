import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (Representation, TransverseMode, fourier_2d,
                      inner_product_2d, make_grid, mode_norm, normalize_mode,
                      oam_ring, reflect_y)
from biphoton import grids


def test_make_grid_basic():
    g = make_grid(8, 1.0)
    assert g.spacing == pytest.approx(0.25)
    assert g.axis.size == 8
    g2 = make_grid(64, 20.0)
    assert g2.axis[0] > -20.0 and g2.axis[-1] < 20.0
    assert np.all(np.diff(g2.axis) > 0)
    # Spacing 2^-511: a cell weight of exactly the smallest normal float.
    assert make_grid(8, 8.0 * 2.0 ** -512).weight == np.finfo(float).tiny


@pytest.mark.parametrize("n,hw", [(7, 1.0), (4, 1.0), (8, 0.0), (8, -2.0),
                                  (8, float("nan")), (8, float("inf")),
                                  (64, 1e200), (64, 1e-200), (32, 1e-154),
                                  # one ulp under the smallest normal cell weight
                                  (8, np.nextafter(8.0 * 2.0 ** -512, 0.0))])
def test_make_grid_rejects(n, hw):
    with pytest.raises(ValueError):
        make_grid(n, hw)


def test_reflection_closure():
    g = make_grid(32, 3.0)
    # for every sample y there is a sample -y (index reversal)
    assert np.allclose(g.axis, -g.axis[::-1])
    assert not np.any(g.axis == 0.0)  # half-cell offset: origin never sampled


def test_fourier_round_trip_and_parseval():
    g = make_grid(48, 6.0)
    rng = np.random.default_rng(7)
    m = TransverseMode(rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48)),
                       g, Representation.MOMENTUM)
    fwd = fourier_2d(m)
    back = fourier_2d(fwd)
    assert np.abs(back.values - m.values).max() < 1e-10
    assert abs(mode_norm(fwd) - mode_norm(m)) < 1e-10
    assert fwd.representation is Representation.POSITION
    assert fwd.grid.spacing == pytest.approx(np.pi / g.half_width)


def test_gaussian_fourier_pair():
    # Closed-form oracle: exp(-|q|^2 w0^2/4) in momentum maps to a Gaussian
    # of waist w0 in position.
    w0 = 1.4
    g = make_grid(64, 8.0)
    qx, qy = g.meshgrid()
    mom = normalize_mode(TransverseMode(
        np.exp(-(qx ** 2 + qy ** 2) * w0 ** 2 / 4.0), g, Representation.MOMENTUM))
    pos = fourier_2d(mom)
    x, y = pos.grid.meshgrid()
    expected = np.exp(-(x ** 2 + y ** 2) / w0 ** 2)
    expected /= np.sqrt(np.sum(expected ** 2) * pos.grid.weight)
    assert np.abs(pos.values - expected).max() < 1e-10


def test_parity_commutes_with_fourier():
    g = make_grid(16, 5.0)
    rng = np.random.default_rng(3)
    v = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    odd = v - v[:, ::-1]  # y-odd by construction
    m = TransverseMode(odd, g, Representation.MOMENTUM)
    out = fourier_2d(m)
    assert np.abs(out.values + out.values[:, ::-1]).max() < 1e-12


def test_inner_product_properties():
    g = make_grid(32, 6.0)
    rng = np.random.default_rng(11)
    a = TransverseMode(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)),
                       g, Representation.MOMENTUM)
    b = TransverseMode(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)),
                       g, Representation.MOMENTUM)
    an = normalize_mode(a)
    assert inner_product_2d(an, an) == pytest.approx(1.0, abs=1e-12)
    assert inner_product_2d(a, b) == pytest.approx(np.conj(inner_product_2d(b, a)))


def test_inner_product_ring_orthogonality():
    # Angular oracle: int e^{i(l'-l) theta} dtheta = 0, so opposite-charge
    # rings are orthogonal.
    g = make_grid(64, 8.0)
    plus = oam_ring(1, 1.0, g)
    minus = oam_ring(-1, 1.0, g)
    assert abs(inner_product_2d(plus, minus)) < 1e-10


def test_inner_product_mismatch_rejected():
    a = TransverseMode(np.ones((16, 16)), make_grid(16, 4.0), Representation.MOMENTUM)
    b = TransverseMode(np.ones((16, 16)), make_grid(16, 5.0), Representation.MOMENTUM)
    c = TransverseMode(np.ones((16, 16)), make_grid(16, 4.0), Representation.POSITION)
    with pytest.raises(ValueError):
        inner_product_2d(a, b)
    with pytest.raises(ValueError):
        inner_product_2d(a, c)


def test_reflect_y_is_involution():
    g = make_grid(16, 2.0)
    rng = np.random.default_rng(5)
    m = TransverseMode(rng.normal(size=(16, 16)), g, Representation.MOMENTUM)
    assert np.array_equal(reflect_y(reflect_y(m)).values, m.values)


def test_transverse_mode_rejects_a_wrong_shape_and_a_zero_norm():
    g = make_grid(16, 2.0)
    with pytest.raises(ValueError, match=r"values shape \(16, 8\) does not match grid n=16"):
        TransverseMode(np.ones((16, 8)), g, Representation.MOMENTUM)
    with pytest.raises(ValueError, match="cannot normalize a zero mode"):
        normalize_mode(TransverseMode(np.zeros((16, 16)), g, Representation.MOMENTUM))


@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e307, 1e308])
def test_mode_norm_and_normalize_mode_scale_extreme_values(scale):
    # Squaring 1e160 overflows and 1e-170 underflows: the norm is taken on
    # the values scaled by a power of two, so each mode normalizes to the same
    # shape.  At 1e308 the norm itself exceeds the float range.
    g = make_grid(64, 8.0)
    rng = np.random.default_rng(11)
    shape = rng.uniform(0.5, 1.0, (64, 64)) * np.exp(2j * np.pi * rng.uniform(size=(64, 64)))
    shape_norm = np.sqrt(np.sum(np.abs(shape) ** 2)) * g.spacing
    mode = TransverseMode(shape * scale, g, Representation.MOMENTUM)
    if scale < 1e308:
        assert mode_norm(mode) == pytest.approx(shape_norm * scale, rel=1e-13)
    else:
        assert mode_norm(mode) == float("inf")
    unit = normalize_mode(mode)
    assert mode_norm(unit) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(unit.values - shape / shape_norm).max() <= 1e-14


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
def test_mode_norm_and_normalize_mode_reject_non_finite_values(bad):
    values = np.ones((16, 16), dtype=complex)
    values[3, 5] = bad
    mode = TransverseMode(values, make_grid(16, 2.0), Representation.MOMENTUM)
    for measure in (mode_norm, normalize_mode):
        with pytest.raises(ValueError, match="mode values must be finite, got a largest part"):
            measure(mode)


def _scaled_norms(a):
    """The scaled evaluation that mode_norm and normalize_mode must match
    bit for bit: (values * 2^-e, their norm, its 2^e multiple), the peak
    part brought into [1/2, 1) by the exact power of two 2^-e."""
    parts = np.ascontiguousarray(a.values).view(float)
    peak = max(parts.max(), -parts.min())
    e = int(np.frexp(peak)[1])
    scaled = np.ldexp(parts, -e).view(complex)
    nrm = math.sqrt(np.vdot(scaled, scaled).real) * a.grid.spacing
    with np.errstate(over="ignore"):
        return scaled, nrm, float(np.ldexp(nrm, e))


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16]),
       half_width=st.sampled_from([1e-140, 1e-3, 5.0, 1e3, 1e150]),
       exponent=st.integers(-1000, 1000),
       # binades below the peak: 511 is the fast range's edge at a peak below 1
       spread=st.one_of(st.integers(0, 1100), st.integers(500, 530)),
       zeros=st.sampled_from([0.0, 0.0, 0.1, 1.0]),
       subnormals=st.sampled_from([0.0, 0.0, 0.05, 0.5]))
def test_mode_norm_and_normalize_mode_give_the_bits_of_the_scaled_evaluation(
        seed, n, half_width, exponent, spread, zeros, subnormals):
    # The unscaled sum serves only where it gives the scaled one's bits, on
    # either side of the fast range, with zero and subnormal parts.
    rng = np.random.default_rng(seed)
    parts = np.exp2(rng.uniform(-spread, 0.0, (n, 2 * n))) * rng.choice([-1.0, 1.0], (n, 2 * n))
    parts = np.ldexp(parts, exponent)
    parts[rng.random((n, 2 * n)) < subnormals] = rng.integers(1, 2 ** 52) * 2.0 ** -1074
    parts[rng.random((n, 2 * n)) < zeros] = 0.0
    mode = TransverseMode(parts.view(complex), make_grid(n, half_width), Representation.MOMENTUM)
    scaled, nrm, full = _scaled_norms(mode)
    assert _bits(mode_norm(mode)) == _bits(full)
    if nrm == 0.0:
        with pytest.raises(ValueError, match="cannot normalize a zero mode"):
            normalize_mode(mode)
        return
    tiny = np.finfo(float).tiny
    want = mode.values / full if tiny <= full < math.inf else scaled / nrm
    assert np.array_equal(_bits(normalize_mode(mode).values), _bits(want))


@pytest.mark.parametrize("exponent", [-3, 0, 1, 5])
def test_mode_norm_skips_the_scaled_copy_exactly_inside_the_fast_range(exponent):
    # The peak 0.75 * 2^e has the binary exponent e; a smallest part of
    # 2^(max(e, 0) - 511) is inside the fast range, one ulp less or a zero
    # part is not.  Both sides give the scaled evaluation's bits.
    edge = math.ldexp(1.0, max(exponent, 0) - 511)
    for low, fast in [(edge, True), (math.nextafter(edge, 0.0), False), (0.0, False)]:
        parts = np.full((8, 16), math.ldexp(0.75, exponent))
        parts[3, 5] = low
        mode = TransverseMode(parts.view(complex), make_grid(8, 2.0), Representation.MOMENTUM)
        full, scaled, _ = grids._norms(mode)
        assert (scaled is None) is fast
        assert _bits(full) == _bits(_scaled_norms(mode)[2])
        assert np.array_equal(_bits(normalize_mode(mode).values), _bits(mode.values / full))
