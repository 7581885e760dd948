import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from biphoton import (GaussianBeamParams, PumpMode, Representation,
                      SpdcParams, TruncationError, TwoPhotonAmplitude,
                      apply_sigma, bell_state, coincidence_probability,
                      gaussian_g00, hermite_gaussian, inner_product_2d,
                      make_grid, mode_norm, norm_squared, normalize, oam_ring,
                      product_state, reflect_y, sigma_overlap, spdc_state,
                      symmetry_decompose, thin_crystal_gaussian, to_dense,
                      dense_sigma_overlap)

from _helpers import smooth_random_mode

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


def test_hermite_gaussian_rejects_negative_indices():
    with pytest.raises(ValueError):
        hermite_gaussian(-1, 0, 1.0, GRID)


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
    n, ax = grid.n, grid.axis
    q1x, q1y, q2x, q2y = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    pair = params.pump.evaluate(q1x + q2x, q1y + q2y) * np.sinc(
        params.crystal_length * ((q1x - q2x) ** 2 + (q1y - q2y) ** 2)
        / (4.0 * params.pump_wavenumber) / np.pi)
    lam, v = np.linalg.eigh(pair.reshape(n * n, n * n))
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


def test_spdc_truncation_cap():
    with pytest.raises(TruncationError):
        spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), SPDC_GRID,
                   max_rank=5)


def test_spdc_rejects_huge_grids():
    with pytest.raises(ValueError):
        spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), make_grid(64, 6.0))


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
                        ("pump_wavenumber", (1.0, 1.0, -np.inf))]:
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
