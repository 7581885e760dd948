import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from biphoton import amplitudes, cli
from biphoton import (GaussianBeamParams, MziGeometry, MziPhases, PumpMode,
                      Representation, SpdcParams, SppParams, TruncationError,
                      TransverseMode, TwoPhotonAmplitude,
                      apply_sigma, beamsplitter_output, bell_state,
                      coincidence_probability, compress,
                      dense_normalize, dense_norm_squared, dense_sigma,
                      dense_sigma_overlap, entanglement_witness, fresnel_phase,
                      from_modes, gaussian_g00, hermite_gaussian,
                      inner_product_2d, make_grid,
                      mzi_coincidence, normalize,
                      norm_squared, oam_ring,
                      position_representation, product_state, sigma_overlap,
                      spdc_state, symmetry_decompose, thin_crystal_gaussian,
                      to_dense)
from biphoton.grids import fourier_kernel_1d

from _helpers import random_amplitude, small_grid, smooth_random_mode


def test_normalize_idempotent_and_homogeneous():
    rng = np.random.default_rng(0)
    amp = random_amplitude(rng, small_grid())
    again = normalize(amp)
    assert np.abs(again.coeffs - amp.coeffs).max() < 1e-12
    scaled = TwoPhotonAmplitude(3j * amp.coeffs, amp.photon1, amp.photon2,
                                amp.grid, amp.representation)
    assert norm_squared(normalize(scaled)) == pytest.approx(1.0, abs=1e-10)


def test_normalize_rank2_orthonormal_dense_oracle():
    g = small_grid()
    f = hermite_gaussian(1, 0, 1.0, g)
    h = hermite_gaussian(0, 1, 1.0, g)
    amp = normalize(from_modes([(1.0, f, f), (1.0, h, h)]))
    assert np.abs(amp.coeffs).max() == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    dense = to_dense(amp)
    dn = np.sum(np.abs(dense.values) ** 2) * g.weight ** 2
    assert dn == pytest.approx(1.0, abs=1e-10)


def test_normalize_zero_rejected():
    g = small_grid()
    zero = TwoPhotonAmplitude(np.zeros(1), np.zeros((1, g.n, g.n)),
                              np.zeros((1, g.n, g.n)), g, Representation.MOMENTUM)
    with pytest.raises(ValueError):
        normalize(zero)


def test_sigma_is_involution_exact():
    rng = np.random.default_rng(1)
    amp = random_amplitude(rng, small_grid(), rank=4)
    twice = apply_sigma(apply_sigma(amp))
    assert np.array_equal(twice.photon1, amp.photon1)
    assert np.array_equal(twice.photon2, amp.photon2)
    assert np.array_equal(twice.coeffs, amp.coeffs)


def test_sigma_on_even_product_is_exchange():
    g = small_grid()
    f = gaussian_g00(1.0, g)
    h = hermite_gaussian(2, 0, 1.0, g)  # y-even
    amp = from_modes([(1.0, f, h)])
    sig = apply_sigma(amp)
    assert np.abs(sig.photon1[0] - h.values).max() < 1e-14
    assert np.abs(sig.photon2[0] - f.values).max() < 1e-14


def test_sigma_fixes_opposite_oam_ring_pair():
    g = make_grid(32, 8.0)
    amp = normalize(from_modes([(1.0, oam_ring(2, 1.0, g), oam_ring(-2, 1.0, g))]))
    sig = apply_sigma(amp)
    d1 = to_dense(amp).values
    d2 = to_dense(sig).values
    assert np.abs(d1 - d2).max() < 1e-12


def test_sigma_overlap_symmetric_antisymmetric():
    g = make_grid(32, 8.0)
    assert sigma_overlap(bell_state("psi-minus", 1, 1.0, g)) == pytest.approx(-1.0, abs=1e-10)
    assert sigma_overlap(bell_state("psi-plus", 1, 1.0, g)) == pytest.approx(1.0, abs=1e-10)


def test_sigma_overlap_product_nonnegative():
    rng = np.random.default_rng(2)
    g = small_grid()
    for _ in range(25):
        amp = product_state(smooth_random_mode(rng, g), smooth_random_mode(rng, g))
        assert sigma_overlap(amp) >= -1e-10


def test_sigma_overlap_requires_normalization():
    rng = np.random.default_rng(3)
    amp = random_amplitude(rng, small_grid())
    bad = TwoPhotonAmplitude(amp.coeffs * 2.0, amp.photon1, amp.photon2,
                             amp.grid, amp.representation)
    with pytest.raises(ValueError):
        sigma_overlap(bad)


def test_non_finite_amplitude_raises():
    amp = random_amplitude(np.random.default_rng(5), small_grid())
    for sample in (np.nan, np.inf):
        photon1 = amp.photon1.copy()
        photon1[1, 3, 4] = sample
        bad = replace(amp, photon1=photon1)
        with pytest.raises(ValueError, match="non-finite"):
            sigma_overlap(bad)
        with pytest.raises(ValueError, match="non-finite"):
            coincidence_probability(bad)
        with pytest.raises(ValueError, match="non-finite"):
            norm_squared(bad)
        with pytest.raises(ValueError, match="squared norm nan"):
            normalize(bad)


def test_norm_squared_of_nearly_cancelling_terms():
    # ||Phi||^2 = 1e-16 from terms of norm 1: far below the roundoff of Im J,
    # which norm_squared does not read.
    rng = np.random.default_rng(1)
    a, b = random_amplitude(rng, small_grid()), random_amplitude(rng, small_grid())
    diff = TwoPhotonAmplitude(np.concatenate([a.coeffs, -a.coeffs, 1e-8 * b.coeffs]),
                              np.concatenate([a.photon1, a.photon1, b.photon1]),
                              np.concatenate([a.photon2, a.photon2, b.photon2]),
                              a.grid, a.representation)
    assert norm_squared(diff) == pytest.approx(1e-16, rel=1e-6)


def test_symmetry_decompose_matches_overlap():
    rng = np.random.default_rng(4)
    for seed in range(5):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        j = sigma_overlap(amp)
        sym, asym = symmetry_decompose(amp)
        assert sym + asym == pytest.approx(1.0, abs=1e-10)
        assert sym == pytest.approx((1 + j) / 2, abs=1e-10)
        assert asym == pytest.approx((1 - j) / 2, abs=1e-10)


def test_symmetry_decompose_bell():
    g = make_grid(32, 8.0)
    assert symmetry_decompose(bell_state("psi-minus", 1, 1.0, g)) == pytest.approx((0.0, 1.0), abs=1e-10)
    assert symmetry_decompose(bell_state("phi-plus", 1, 1.0, g)) == pytest.approx((1.0, 0.0), abs=1e-10)


def test_symmetry_decompose_equal_mixture():
    g = make_grid(32, 8.0)
    sym_part = bell_state("phi-plus", 1, 1.0, g)
    asym_part = bell_state("psi-minus", 1, 1.0, g)
    mix = normalize(TwoPhotonAmplitude(
        np.concatenate([sym_part.coeffs, asym_part.coeffs]),
        np.concatenate([sym_part.photon1, asym_part.photon1]),
        np.concatenate([sym_part.photon2, asym_part.photon2]),
        g, Representation.MOMENTUM))
    assert symmetry_decompose(mix) == pytest.approx((0.5, 0.5), abs=1e-10)


def test_to_dense_rank1_outer_product():
    rng = np.random.default_rng(5)
    g = small_grid()
    f = smooth_random_mode(rng, g)
    h = smooth_random_mode(rng, g)
    dense = to_dense(from_modes([(1.0, f, h)]))
    expected = np.einsum("ab,cd->abcd", f.values, h.values)
    assert np.abs(dense.values - expected).max() < 1e-14


def test_to_dense_rejects_large_grids():
    g = make_grid(64, 8.0)
    amp = bell_state("psi-plus", 1, 1.0, g)
    with pytest.raises(ValueError):
        to_dense(amp)


def test_dense_oracle_agrees_on_overlap_and_norm():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        amp = random_amplitude(rng, small_grid(), rank=3)
        dense = to_dense(amp)
        assert dense_sigma_overlap(dense) == pytest.approx(sigma_overlap(amp), abs=1e-10)
        dn = np.sum(np.abs(dense.values) ** 2) * amp.grid.weight ** 2
        assert dn == pytest.approx(norm_squared(amp), abs=1e-10)
        assert symmetry_decompose(amp) == pytest.approx(_dense_weights(dense), abs=1e-10)


def _dense_weights(dense):
    """||(Phi + sigma Phi)/2||^2 and ||(Phi - sigma Phi)/2||^2 from the 4D form."""
    phi, sig = dense.values, dense_sigma(dense).values
    return [float(np.sum(np.abs((phi + sign * sig) / 2.0) ** 2)) * dense.grid.weight ** 2
            for sign in (1.0, -1.0)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 6),
       n=st.sampled_from([8, 12, 16]))
def test_gram_engine_matches_dense_oracle(seed, rank, n):
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 3.0)
    shape = (rank, n, n)
    amp = normalize(TwoPhotonAmplitude(
        rng.normal(size=rank) + 1j * rng.normal(size=rank),
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        grid, Representation.MOMENTUM))
    dense = to_dense(amp)
    assert sigma_overlap(amp) == pytest.approx(dense_sigma_overlap(dense), abs=1e-10)
    assert symmetry_decompose(amp) == pytest.approx(_dense_weights(dense), abs=1e-10)
    # The envelope branch: norms before and after a photon-1 envelope, and
    # J of the enveloped amplitude.
    envelope = rng.normal(size=(n, n))
    nsq, nsq_env, j = amplitudes._sigma_grams(amp, envelope)
    out = to_dense(replace(amp, photon1=amp.photon1 * envelope))
    assert nsq == pytest.approx(dense_norm_squared(dense), abs=1e-10)
    assert nsq_env == pytest.approx(dense_norm_squared(out), abs=1e-10)
    dense_j = np.vdot(dense_sigma(out).values, out.values) * grid.weight ** 2
    assert abs(j - dense_j) <= 1e-10 * max(1.0, abs(dense_j))


def test_gram_products_per_call(monkeypatch, capsys):
    # Regression guard on the Gram engine's cost: two self-Grams and one
    # sigma cross-Gram per analysis call and per `biphoton pc` report, at most
    # four products per generic interferometer call, and on a thin-crystal
    # amplitude at most four per-axis contractions and no factor array built.
    calls, kinds = [], set()
    gram = amplitudes._gram

    def counting(a, b=None, weight=1.0, pointwise=None):
        calls.append("self" if b is None else "cross")
        kinds.add(type(a))
        return gram(a, b, weight, pointwise)

    monkeypatch.setattr(amplitudes, "_gram", counting)
    rng = np.random.default_rng(12)
    amp = random_amplitude(rng, small_grid())
    for fn in (sigma_overlap, symmetry_decompose, coincidence_probability,
               entanglement_witness, beamsplitter_output):
        calls.clear()
        fn(amp)
        assert sorted(calls) == ["cross", "self", "self"], fn.__name__
    build_state = cli.build_state

    def build_then_count(cfg):  # count the report, not the state's normalization
        state = build_state(cfg)
        calls.clear()
        return state

    monkeypatch.setattr(cli, "build_state", build_then_count)
    assert cli.main(["pc", "--state", "bell:psi-minus"]) == cli.EXIT_OK
    assert "verdict = entangled" in capsys.readouterr().out
    assert sorted(calls) == ["cross", "self", "self"]
    pos = random_amplitude(rng, small_grid(16, 3.0), representation=Representation.POSITION)
    for circular in (True, False):
        calls.clear()
        mzi_coincidence(pos, SppParams(1.0), MziPhases(0.3),
                        MziGeometry(1.0, 1.0, circular=circular))
        assert 0 < len(calls) <= 4

    def no_factor_arrays(axes):
        raise AssertionError("a (rank, n, n) factor array was built")

    monkeypatch.setattr(amplitudes._AxisFactors, "values", property(no_factor_arrays))
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    thin = thin_crystal_gaussian(beam, make_grid(64, 6.0 * beam.spot_size))
    for circular in (True, False):
        calls.clear()
        kinds.clear()
        mzi_coincidence(thin, SppParams(1.5), MziPhases(0.3),
                        MziGeometry(1.0, 1.0, aperture_factor=6.0, circular=circular))
        assert 0 < len(calls) <= 4
        assert kinds == {amplitudes._AxisFactors}

    # An unweighted report on a thin-crystal amplitude contracts its
    # coefficient core with the per-axis m x m Grams: no rank x rank Gram.
    def no_gather(*args):
        raise AssertionError("an unweighted per-axis Gram took the rank x rank gather")

    monkeypatch.setattr(amplitudes, "_axis_gram", no_gather)
    calls.clear()
    assert cli.main(["pc", "--state", "thin-crystal"]) == cli.EXIT_OK
    assert "verdict = inconclusive" in capsys.readouterr().out
    assert calls == []

    # An SPDC report contracts its parity-sector factors on the positive
    # quadrant: three Grams, and no factor array built.  The g00 pump takes
    # the eigh branch of spdc_state, hg:0,1 the SVD branch.
    monkeypatch.setattr(amplitudes._SectorFactors, "values", property(no_factor_arrays))
    for argv, line in [(["classify", "--state", "spdc"], "label = symmetric"),
                       (["pc", "--state", "spdc", "--pump", "hg:0,1"], "verdict = entangled")]:
        calls.clear()
        kinds.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert line in capsys.readouterr().out
        assert sorted(calls) == ["cross", "self", "self"], argv
        assert kinds == {amplitudes._SectorFactors}


def _as_arrays(amp):
    """amp with the same factors held as plain (rank, n, n) arrays."""
    return replace(amp, photon1=np.array(amp.photon1), photon2=np.array(amp.photon2))


def _outputs(amp):
    """||Phi||^2, then J and both symmetry weights of the normalized amplitude."""
    nsq = norm_squared(amp)
    unit = normalize(amp)
    return np.array([nsq, sigma_overlap(unit), *symmetry_decompose(unit)])


_STALE_CHECKS = {
    "replace-photon1": lambda a: replace(a, photon1=a.photon1[::-1]),
    "replace-photon2": lambda a: replace(a, photon2=np.roll(a.photon2, 1, axis=0)),
    "replace-coeffs": lambda a: replace(a, coeffs=a.coeffs[::-1]),
    "normalize": lambda a: normalize(replace(a, coeffs=2.0 * a.coeffs)),
    "apply_sigma": apply_sigma,
    "compress": compress,
}


def _check_form_never_outlives_its_factors(amp, name):
    """The operation `name` gives the same results on amp, held in a
    factored form, as on a copy holding the same factors as plain arrays."""
    dense = _as_arrays(amp)
    assert amp._form is not None and dense._form is None
    op = _STALE_CHECKS[name]
    assert np.abs(_outputs(op(amp)) - _outputs(op(dense))).max() <= 1e-12
    if name.startswith("replace-"):
        assert op(amp)._form is None


@pytest.mark.parametrize("name", _STALE_CHECKS)
def test_per_axis_form_never_outlives_its_factors(name):
    # A thin-crystal amplitude keeps its factors per axis; a copy holds the
    # same factors as plain arrays.  Every operation must give both the same
    # results, so no per-axis form survives a change to the factors.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    _check_form_never_outlives_its_factors(
        thin_crystal_gaussian(beam, make_grid(32, 6.0 * beam.spot_size)), name)


@pytest.mark.parametrize("name", _STALE_CHECKS)
def test_sector_form_never_outlives_its_factors(name):
    # The same for an SPDC amplitude, which keeps its factors per parity sector.
    amp = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 1, 2)), make_grid(16, 6.0))
    assert isinstance(amp._form[0], amplitudes._SectorFactors)
    _check_form_never_outlives_its_factors(amp, name)


def test_form_is_kept_only_without_factor_arrays():
    # Given factor arrays drop a form, even the arrays built from it; a form
    # with one array and one missing photon is a shape error.
    amp = spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), make_grid(16, 6.0))
    form = amp._form
    built = replace(amp, photon1=amp.photon1, photon2=amp.photon2, _form=form)
    assert built._form is None and built.photon1 is form[0].values
    with pytest.raises(ValueError, match=re.escape("factor arrays must have shape (rank, n, n)")):
        replace(amp, photon1=amp.photon1, photon2=None, _form=form)


def test_sigma_twice_restores_sector_factors_bit_for_bit():
    # On every form a factor is held in: per parity sector (SPDC), per axis
    # (the thin crystal) and as plain arrays (a random amplitude).
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    cases = [
        (spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 0, 1)), make_grid(16, 6.0)),
         amplitudes._SectorFactors, ("quadrant", "x_sign", "y_sign")),
        (thin_crystal_gaussian(beam, make_grid(16, 6.0 * beam.spot_size)),
         amplitudes._AxisFactors, ("x", "y", "ix", "iy")),
        (random_amplitude(np.random.default_rng(3), small_grid(), rank=4), None, ()),
    ]
    for amp, form, fields in cases:
        once = apply_sigma(amp)
        twice = apply_sigma(once)
        if form is None:
            assert twice._form is None
        else:
            assert isinstance(twice._form[0], form)
            for before, after in zip(amp._form, twice._form):
                for name in fields:
                    assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
        for name in ("coeffs", "photon1", "photon2"):
            assert getattr(twice, name).tobytes() == getattr(amp, name).tobytes(), name
        assert once.photon1.tobytes() == amp.photon2[:, :, ::-1].tobytes()
        assert once.photon2.tobytes() == amp.photon1[:, :, ::-1].tobytes()


_PUMPS = st.one_of(st.builds(lambda w: PumpMode("gaussian", w), st.floats(0.5, 2.0)),
                   st.builds(lambda w, m, n: PumpMode("hermite", w, m, n),
                             st.floats(0.5, 2.0), st.integers(0, 3), st.integers(0, 3)))


# Without the explain phase: when this test fails, hypothesis's explain
# phase keeps every failing run's frames, and with them their (R, n, n)
# arrays; a broken sector Gram grew the process by about 50 MB/s to 2.3 GB.
@settings(max_examples=30, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink])
@given(pump=_PUMPS, n=st.sampled_from([8, 16, 24, 32]),
       crystal_length=st.floats(0.25, 4.0))
def test_sector_grams_match_an_array_copy(pump, n, crystal_length):
    # The per-sector Grams of an SPDC amplitude against the same factors
    # held as plain arrays: the norm, J and both symmetry weights, and the
    # engine's three values under a pointwise envelope and mask, which take
    # the arrays.
    grid = make_grid(n, 6.0)
    amp = spdc_state(SpdcParams(crystal_length, 2.0, pump), grid)
    rescaled = normalize(amplitudes._with_factors(amp, *amp._form, coeffs=3.0 * amp.coeffs))
    qx, qy = grid.meshgrid()
    envelope, mask = np.cos(0.4 * qx + 0.3 * qy), (qx ** 2 + 2.0 * qy ** 2 < 20.0) * 1.0
    for state in (amp, rescaled, apply_sigma(rescaled)):
        assert isinstance(state._form[0], amplitudes._SectorFactors)
        copy = _as_arrays(state)
        assert np.abs(_outputs(state) - _outputs(copy)).max() <= 1e-12
        weighted = [amplitudes._sigma_grams(a, envelope, mask) for a in (state, copy)]
        assert np.abs(np.subtract(*weighted)).max() <= 1e-12


def _thin_crystal(n, aperture, z_over_z0, rank_tol, max_rank):
    beam = GaussianBeamParams(1.0, z_over_z0, 2.0)  # Rayleigh length 1
    return thin_crystal_gaussian(beam, make_grid(n, aperture * beam.spot_size),
                                 rank_tol=rank_tol, max_rank=max_rank)


def _without_core(fn, amp):
    """fn(amp) with the coefficient-core path switched off."""
    with mock.patch.object(amplitudes, "_core", lambda amp: None):
        return fn(amp)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128, 256]), aperture=st.floats(4.0, 40.0),
       z_over_z0=st.floats(0.3, 3.0), rank_tol=st.sampled_from([1e-6, 1e-8]))
def test_core_path_matches_gather_and_dense_copy(n, aperture, z_over_z0, rank_tol):
    # The core contraction of a thin-crystal amplitude against the rank x rank
    # per-axis gather and against the same factors held as plain arrays.  The
    # rank is capped so that both references fit in memory; the array copy is
    # taken where its Grams stay small.
    try:
        amp = _thin_crystal(n, aperture, z_over_z0, rank_tol, max_rank=1200)
    except TruncationError:
        assume(False)
    for state in (amp, apply_sigma(normalize(amp))):
        assert amplitudes._core(state) is not None
        core = _outputs(state)
        assert np.abs(core - _without_core(_outputs, state)).max() <= 1e-12
        if state.rank ** 2 * n ** 2 <= 2 ** 28:
            assert np.abs(core - _outputs(_as_arrays(state))).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 12),
       m=st.tuples(st.integers(1, 4), st.integers(1, 4)), n=st.sampled_from([8, 12]))
def test_core_path_matches_dense_copy_on_random_per_axis_factors(seed, rank, m, n):
    # Complex, non-orthogonal per-axis vectors and coefficients, with
    # repeated (ix, iy) pairs, shared by both photons: the core sums them.
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    ix, iy = rng.integers(0, m[0], rank), rng.integers(0, m[1], rank)
    axes = [amplitudes._AxisFactors(cnormal(m[0], n), cnormal(m[1], n), ix, iy)
            for _ in range(2)]
    amp = TwoPhotonAmplitude(cnormal(rank), None, None, make_grid(n, 3.0),
                             Representation.MOMENTUM, _form=tuple(axes))
    for state in (amp, apply_sigma(normalize(amp))):
        assert amplitudes._core(state) is not None
        core, want = _outputs(state), _outputs(_as_arrays(state))
        assert np.abs(core - want).max() <= 1e-12 * max(1.0, abs(want[0]))


def test_per_axis_photons_on_different_index_maps_take_the_gather():
    amp = _thin_crystal(32, 6.0, 1.0, 1e-6, 4096)
    f, g = amp._form
    swapped = amplitudes._with_factors(amp, f, amplitudes._AxisFactors(g.x, g.y, g.iy, g.ix))
    assert swapped._form is not None and amplitudes._core(swapped) is None
    gather = amplitudes._axis_gram
    with mock.patch.object(amplitudes, "_axis_gram", side_effect=gather) as spy:
        values = _outputs(swapped)
    assert spy.call_count > 0
    assert np.abs(values - _outputs(_as_arrays(swapped))).max() <= 1e-12


def test_from_modes_rejects_modes_that_do_not_combine():
    # from_modes and inner_product_2d share one check, and with it its messages.
    g = make_grid(16, 4.0)
    f = TransverseMode(np.ones((16, 16)), g, Representation.MOMENTUM)
    elsewhere = TransverseMode(np.ones((16, 16)), make_grid(16, 5.0), Representation.MOMENTUM)
    position = TransverseMode(np.ones((16, 16)), g, Representation.POSITION)
    with pytest.raises(ValueError, match="need at least one product term"):
        from_modes([])
    grids, mixed = "modes live on different grids", "mixed momentum/position arithmetic"
    for terms, message in [([(1.0, f, f), (1.0, elsewhere, f)], grids),
                           ([(1.0, f, f), (1.0, f, elsewhere)], grids),
                           ([(1.0, f, position)], mixed)]:
        with pytest.raises(ValueError, match=message):
            from_modes(terms)
    for a, b, message in [(f, elsewhere, grids), (elsewhere, f, grids), (f, position, mixed)]:
        with pytest.raises(ValueError, match=message):
            inner_product_2d(a, b)


def test_compress_reports_its_own_truncation_error():
    amp = spdc_state(SpdcParams(1.0, 2.0, PumpMode("gaussian", 1.0)), make_grid(16, 6.0))
    squeezed = compress(amp, tol=1e-3)
    assert squeezed.rank < amp.rank
    # The dropped relative norm, from the norm of the difference of the two.
    diff = TwoPhotonAmplitude(np.concatenate([amp.coeffs, -squeezed.coeffs]),
                              np.concatenate([amp.photon1, squeezed.photon1]),
                              np.concatenate([amp.photon2, squeezed.photon2]),
                              amp.grid, amp.representation)
    dropped = np.sqrt(norm_squared(diff) / norm_squared(amp))
    assert dropped > 1e3 * amp.truncation_error
    assert squeezed.truncation_error == pytest.approx(amp.truncation_error + dropped,
                                                      rel=1e-6)
    exact = random_amplitude(np.random.default_rng(9), small_grid())
    assert exact.truncation_error is None
    assert compress(exact).truncation_error < 1e-12


def test_apply_sigma_keeps_truncation_error_and_per_axis_form():
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    amp = thin_crystal_gaussian(beam, make_grid(32, 6.0 * beam.spot_size))
    once = apply_sigma(amp)
    twice = apply_sigma(once)
    assert once.truncation_error == amp.truncation_error > 0.0
    assert once._form is not None and twice._form is not None
    assert np.array_equal(twice.photon1, amp.photon1)
    assert np.array_equal(twice.photon2, amp.photon2)
    assert np.array_equal(once.photon1, amp.photon2[:, :, ::-1])


def test_dense_sigma_is_involution():
    rng = np.random.default_rng(6)
    dense = dense_normalize(to_dense(random_amplitude(rng, small_grid())))
    assert np.array_equal(dense_sigma(dense_sigma(dense)).values, dense.values)


def test_position_representation_preserves_overlap():
    for seed in range(5):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        pos = position_representation(amp)
        assert pos.representation is Representation.POSITION
        assert norm_squared(pos) == pytest.approx(1.0, abs=1e-8)
        assert sigma_overlap(pos) == pytest.approx(sigma_overlap(amp), abs=1e-8)


def test_position_representation_preserves_factor_parity():
    g = small_grid()
    odd = hermite_gaussian(0, 1, 1.0, g)
    amp = position_representation(from_modes([(1.0, odd, odd)]))
    for factor in (amp.photon1[0], amp.photon2[0]):
        assert np.abs(factor + factor[:, ::-1]).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 6),
       n=st.sampled_from([8, 10, 16, 24, 32]), half_width=st.floats(1.0, 20.0),
       real=st.booleans())
def test_position_representation_matches_the_unbatched_einsum(seed, rank, n, half_width,
                                                              real):
    # The batched K f K^T against the per-element einsum it replaced, on
    # random real or complex factors of unit norm (as a state's factors are).
    rng = np.random.default_rng(seed)
    grid = make_grid(n, half_width)

    def factors():
        f = rng.normal(size=(rank, n, n))
        if not real:
            f = f + 1j * rng.normal(size=(rank, n, n))
        return f / (np.sqrt(np.sum(np.abs(f) ** 2, axis=(1, 2)))[:, None, None]
                    * grid.spacing)

    amp = TwoPhotonAmplitude(rng.normal(size=rank) + 1j * rng.normal(size=rank),
                             factors(), factors(), grid, Representation.MOMENTUM)
    pos = position_representation(amp)
    k = fourier_kernel_1d(grid, sign=+1)
    for got, f in ((pos.photon1, amp.photon1), (pos.photon2, amp.photon2)):
        assert np.abs(got - np.einsum("ia,rab,jb->rij", k, f, k)).max() <= 1e-12


@pytest.mark.parametrize("form", ["arrays", "per-axis", "sectors"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 8),
       n=st.sampled_from([8, 16, 24, 32]), pump=_PUMPS)
def test_norm_and_sigma_overlap_survive_position_representation(form, seed, rank, n, pump):
    # The per-axis Fourier transform is unitary and commutes with sigma, so
    # ||Phi||^2 and J are the same in both representations, for factor arrays,
    # per-axis factors (complex, on one shared index map) and SPDC sectors.
    rng = np.random.default_rng(seed)
    grid = make_grid(n, 6.0)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if form == "arrays":
        amp = TwoPhotonAmplitude(cnormal(rank), cnormal(rank, n, n), cnormal(rank, n, n), grid,
                                 Representation.MOMENTUM)
    elif form == "per-axis":
        m = rng.integers(1, 5, size=2)
        ix, iy = rng.integers(0, m[0], rank), rng.integers(0, m[1], rank)
        axes = [amplitudes._AxisFactors(cnormal(m[0], n), cnormal(m[1], n), ix, iy)
                for _ in range(2)]
        amp = TwoPhotonAmplitude(cnormal(rank), None, None, grid, Representation.MOMENTUM,
                                 _form=tuple(axes))
    else:
        amp = spdc_state(SpdcParams(1.0, 2.0, pump), grid)
    nsq, _, j = amplitudes._sigma_grams(amp)
    pos_nsq, _, pos_j = amplitudes._sigma_grams(position_representation(amp))
    assert abs(pos_nsq - nsq) <= 1e-12 * nsq
    assert abs(pos_j - j) <= 1e-12 * nsq


def test_position_representation_rejects_position_input():
    rng = np.random.default_rng(7)
    amp = random_amplitude(rng, small_grid(16, 3.0),
                           representation=Representation.POSITION)
    with pytest.raises(ValueError):
        position_representation(amp)


def test_compress_reduces_padded_rank():
    rng = np.random.default_rng(8)
    amp = random_amplitude(rng, small_grid(), rank=3)
    # duplicate the terms with split coefficients: rank 6 but true rank 3
    padded = TwoPhotonAmplitude(
        np.concatenate([amp.coeffs / 2, amp.coeffs / 2]),
        np.concatenate([amp.photon1, amp.photon1]),
        np.concatenate([amp.photon2, amp.photon2]),
        amp.grid, amp.representation)
    squeezed = compress(padded, tol=1e-10)
    assert squeezed.rank == 3
    assert norm_squared(squeezed) == pytest.approx(1.0, abs=1e-10)
    assert sigma_overlap(squeezed) == pytest.approx(sigma_overlap(amp), abs=1e-10)


def test_real_factors_stay_real_and_agree_with_a_complex_copy():
    # SPDC factors are real and stay float64; every consumer must give the
    # results of the same factors cast to complex.
    amp = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 1, 1)), make_grid(16, 6.0))
    as_complex = TwoPhotonAmplitude(amp.coeffs, amp.photon1.astype(complex),
                                    amp.photon2.astype(complex), amp.grid, amp.representation)
    assert amp.photon1.dtype == amp.photon2.dtype == np.float64
    assert as_complex.photon1.dtype == np.complex128
    for real_op in (normalize, apply_sigma, lambda a: beamsplitter_output(a).coincidence_amplitude):
        assert real_op(amp).photon1.dtype == real_op(amp).photon2.dtype == np.float64

    def dense(a):
        return to_dense(a).values

    def mzi(a):
        res = mzi_coincidence(a, SppParams(1.0), MziPhases(0.3), MziGeometry(1.0, 0.5))
        return np.array([res.conditional_pc, res.throughput_eta])

    checks = {
        "to_dense": dense,
        "normalize": lambda a: dense(normalize(a)),
        "apply_sigma": lambda a: dense(apply_sigma(a)),
        "compress": lambda a: dense(compress(a)),
        "position_representation": lambda a: dense(
            position_representation(fresnel_phase(a, 1.0, 0.5, 1.0))),
        "coincidence_amplitude": lambda a: dense(beamsplitter_output(a).coincidence_amplitude),
        "mzi_coincidence": mzi,
        "norm, J and weights": _outputs,
    }
    for name, check in checks.items():
        assert np.abs(check(amp) - check(as_complex)).max() <= 1e-13, name


def test_high_rank_per_axis_state_reports_but_never_expands():
    # At aperture 40 and n = 128 the thin crystal needs rank 13614.  Its
    # report contracts the 128 x 128 coefficient core; reading the factor
    # arrays or a weighted Gram would build rank-13614 arrays and is refused.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    amp = thin_crystal_gaussian(beam, make_grid(128, 40.0 * beam.spot_size))
    assert amp.rank > amplitudes._MAX_EXPANDED_RANK
    assert norm_squared(amp) == pytest.approx(1.0, abs=1e-10)
    assert symmetry_decompose(amp) == pytest.approx((1.0, 0.0), abs=1e-10)
    refused = {
        "photon1": lambda: amp.photon1,
        "compress": lambda: compress(amp),
        "generic mzi": lambda: mzi_coincidence(amp, SppParams(1.0), MziPhases(0.0),
                                               MziGeometry(1.0, 1.0)),
    }
    for name, expand in refused.items():
        with pytest.raises(TruncationError, match=f"cap of {amplitudes._MAX_EXPANDED_RANK}"):
            expand()


def test_sigma_overlap_passes_a_random_rank_1024_amplitude():
    # The Im J check is 1e-10 ||Phi'||^2 at every rank.  Random complex
    # factors at rank 64, 256 and 1024 read |Im J| / ||Phi||^2 of 1e-18 or
    # less, so the bound needs no scaling with the rank.
    rng = np.random.default_rng(1024)
    rank, grid = 1024, make_grid(32, 4.0)

    def factors():
        return rng.normal(size=(rank, 32, 32)) + 1j * rng.normal(size=(rank, 32, 32))

    amp = normalize(TwoPhotonAmplitude(rng.normal(size=rank) + 1j * rng.normal(size=rank),
                                       factors(), factors(), grid, Representation.MOMENTUM))
    assert amp.rank == rank
    assert -1.0 <= sigma_overlap(amp) <= 1.0
    nsq, _, j = amplitudes._norms_and_overlap(amp, None, None)
    assert abs(j.imag) <= 1e-15 * nsq
