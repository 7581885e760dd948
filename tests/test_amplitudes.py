import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from biphoton import amplitudes, cli, states
from biphoton import mzi as mzi_module
from biphoton import (DenseAmplitude, GaussianBeamParams, MziGeometry, MziPhases, PumpMode,
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

from _helpers import random_amplitude, small_grid, smooth_random_mode, spdc_pair


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
    with pytest.raises(ValueError, match="cannot normalize a zero-norm amplitude"):
        dense_normalize(to_dense(zero))


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


def test_kept_engine_result_cannot_go_stale(monkeypatch):
    # The unweighted (||Phi||^2, J) is kept on the amplitude after its first
    # evaluation, which is sound only while nothing can change its factors.
    rng = np.random.default_rng(21)
    ref = random_amplitude(rng, small_grid())
    photon1 = ref.photon1.copy()
    amp = TwoPhotonAmplitude(ref.coeffs, photon1, ref.photon2.copy(), ref.grid,
                             ref.representation)
    assert not (amp.coeffs.flags.writeable or amp.photon1.flags.writeable
                or amp.photon2.flags.writeable)
    pc = coincidence_probability(amp)
    photon1 *= 1j ** np.arange(3)[:, None, None]  # the caller's array, not the amplitude's
    assert np.array_equal(amp.photon1, ref.photon1)
    assert coincidence_probability(amp) == pc == coincidence_probability(replace(amp))
    # Read-only arrays over read-only memory are taken as they are; a
    # read-only view of memory the caller can still write is copied.
    assert replace(amp, coeffs=amp.coeffs).photon1 is amp.photon1
    view = photon1[:]
    view.setflags(write=False)
    assert not np.shares_memory(replace(amp, photon1=view).photon1, photon1)
    spdc = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 0, 1)), small_grid())
    assert not any(f.quadrant.flags.writeable for f in spdc._form)
    assert not any(f.quadrant.flags.writeable for f in apply_sigma(spdc)._form)

    bad = replace(ref, photon1=np.where(np.arange(16) == 3, np.nan, ref.photon1))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            sigma_overlap(bad)

    calls = []
    gram = amplitudes._gram

    def counting(*args, **kwargs):
        calls.append(1)
        return gram(*args, **kwargs)

    monkeypatch.setattr(amplitudes, "_gram", counting)
    unweighted = amplitudes._sigma_grams(amp)
    envelope = np.ones((16, 16))
    weighted = [amplitudes._sigma_grams(amp, envelope) for _ in range(2)]
    assert len(calls) == 2 * 4  # each weighted call: three self-Grams and the cross-Gram
    assert weighted[0] == weighted[1]
    assert weighted[0] == pytest.approx(unweighted, rel=1e-12)


def test_sigma_grams_holds_im_j_to_the_enveloped_norm(monkeypatch):
    # J' / ||Phi'||^2 must be real: Im J' is held to 1e-10 of the enveloped
    # norm, not of the clipped one.
    amp = random_amplitude(np.random.default_rng(4), small_grid())
    monkeypatch.setattr(amplitudes, "_norms_and_overlap",
                        lambda *args: (1.0, 0.5, complex(0.25, 0.5e-10)))
    assert amplitudes._sigma_grams(amp) == (1.0, 0.5, 0.25)
    monkeypatch.setattr(amplitudes, "_norms_and_overlap",
                        lambda *args: (1.0, 0.5, complex(0.25, -0.6e-10)))
    with pytest.raises(ValueError, match="sigma overlap has imaginary part -6e-11"):
        amplitudes._sigma_grams(amp)


def test_cached_arrays_are_read_only():
    # A grid's axis and the factor arrays a factored form builds are built
    # once and handed to every caller, and a derived amplitude takes the
    # factor arrays built for it uncopied, so none of them can be written.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    per_axis = thin_crystal_gaussian(beam, make_grid(16, 6.0 * beam.spot_size))
    per_sector = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 0, 1)),
                            make_grid(16, 6.0))
    arrays = {"Grid.axis": make_grid(16, 3.0).axis}
    for name, amp in (("per-axis", per_axis), ("per-sector", per_sector)):
        for photon in ("photon1", "photon2"):
            arrays[f"{name} {photon}"] = getattr(amp, photon)
            assert getattr(amp, photon) is arrays[f"{name} {photon}"]  # built once
    amp = random_amplitude(np.random.default_rng(8), small_grid())
    derived = {"position_representation": position_representation(amp),
               "compress": compress(amp),
               "fresnel_phase": fresnel_phase(amp, 0.5, 0.3, 2.0),
               "coincidence_amplitude": beamsplitter_output(amp).coincidence_amplitude}
    for name, out in derived.items():
        for photon in ("photon1", "photon2"):
            arrays[f"{name} {photon}"] = getattr(out, photon)
    for name, values in arrays.items():
        assert not values.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_with_factors_takes_fresh_arrays_and_copies_a_writable_view():
    amp = random_amplitude(np.random.default_rng(9), small_grid())
    fresh = np.array(amp.photon1)
    assert amplitudes._with_factors(amp, fresh, amp.photon2).photon1 is fresh
    base = np.array(amp.photon2)
    out = amplitudes._with_factors(amp, amp.photon1, base[:])
    assert not np.shares_memory(out.photon2, base)
    assert base.flags.writeable
    base[0] = 0.0
    assert np.array_equal(out.photon2, amp.photon2)


_BEAM = GaussianBeamParams(1.0, 1.0, 2.0)
_SCALED_KINDS = {
    "array": lambda: random_amplitude(np.random.default_rng(10), small_grid(), rank=4),
    "per-axis": lambda: thin_crystal_gaussian(_BEAM, make_grid(32, 6.0 * _BEAM.spot_size)),
    "per-sector": lambda: spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 0, 1)),
                                     make_grid(16, 6.0)),
}


def _scaled(amp, scale):
    """amp with its coefficients times `scale`, keeping no engine result."""
    return amplitudes._with_factors(amp, *amplitudes._factors(amp), coeffs=scale * amp.coeffs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_SCALED_KINDS)), exponent=st.floats(-100.0, 100.0),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_normalize_hands_on_a_sound_engine_result(kind, exponent, phase):
    # The (||Phi||^2, J) that normalize keeps on its result against a fresh
    # evaluation of a copy that keeps none.
    unit = normalize(_scaled(_SCALED_KINDS[kind](), 10.0 ** exponent * np.exp(1j * phase)))
    kept = unit.__dict__["_grams"]
    fresh = amplitudes._norms_and_overlap(
        amplitudes._with_factors(unit, *amplitudes._factors(unit)))
    assert kept[:2] == (1.0, 1.0)
    assert np.abs(np.subtract(kept, fresh)).max() <= 1e-12


@pytest.mark.parametrize("scale", [1e-158, 1e-160])
@pytest.mark.parametrize("kind", sorted(_SCALED_KINDS) + ["bell", "product"])
def test_normalize_of_a_subnormal_norm_reports_the_unscaled_pc_or_raises(kind, scale):
    # ||Phi||^2 ~ scale^2 is subnormal: normalize keeps no result, and the
    # report's own evaluation either passes the normalization check, near
    # the unscaled P_c (at 1e-158), or raises (at 1e-160).  It never
    # reports another P_c.
    g = small_grid(32, 8.0)
    amp = {"bell": lambda: bell_state("psi-minus", 2, 1.0, g),
           "product": lambda: product_state(oam_ring(1, 1.0, g), oam_ring(2, 1.0, g)),
           **_SCALED_KINDS}[kind]()
    unit = normalize(_scaled(amp, scale))
    assert "_grams" not in unit.__dict__
    try:
        pc = coincidence_probability(unit)
    except ValueError as err:
        assert "not normalized" in str(err)
    else:
        assert pc == pytest.approx(coincidence_probability(amp), abs=1e-6)


def test_normalize_keeps_its_result_down_to_the_smallest_normal_norm():
    # Constant factors of exact unit norm on a unit-weight grid, so that
    # ||Phi||^2 = |c|^2 exactly: at 2^-1022, the smallest normal float, the
    # coefficients scale exactly to unit norm and the result is kept; one
    # binade lower it is subnormal and is not.
    grid = make_grid(8, 4.0)
    assert grid.weight == 1.0
    flat = np.full((1, 8, 8), 0.125)
    for c, kept in [(2.0 ** -511, True), (2.0 ** -512, False)]:
        unit = normalize(TwoPhotonAmplitude([c], flat, flat, grid, Representation.MOMENTUM))
        assert ("_grams" in unit.__dict__) is kept
        assert norm_squared(unit) == 1.0


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
    with pytest.raises(ValueError, match="dense form limited to n <= 32, got 64"):
        DenseAmplitude(np.zeros((64,) * 4), g, Representation.MOMENTUM)
    with pytest.raises(ValueError, match=re.escape("dense values must have shape (n, n, n, n)")):
        DenseAmplitude(np.zeros((8, 8, 8, 4)), make_grid(8, 1.0), Representation.MOMENTUM)


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
    # sigma cross-Gram per amplitude, whichever analysis call comes first,
    # none for a later call on the same amplitude, three per whole
    # `biphoton pc` or `classify` run (the state's `normalize` hands its
    # evaluation on to the report), at most four products per generic
    # interferometer call, and on a thin-crystal amplitude no rank x rank
    # Gram and no factor array built, and each block of its weighted Grams
    # evaluated once.
    calls = []
    gram = amplitudes._gram

    def counting(a, b=None, weight=1.0, pointwise=None):
        calls.append("self" if b is None else "cross")
        return gram(a, b, weight, pointwise)

    monkeypatch.setattr(amplitudes, "_gram", counting)
    rng = np.random.default_rng(12)
    amp = random_amplitude(rng, small_grid())
    for fn in (sigma_overlap, symmetry_decompose, coincidence_probability,
               entanglement_witness, beamsplitter_output):
        fresh = replace(amp)  # no engine result kept yet
        calls.clear()
        fn(fresh)
        assert sorted(calls) == ["cross", "self", "self"], fn.__name__
        calls.clear()
        fn(fresh)
        assert calls == [], fn.__name__
    for argv, line in [(["pc", "--state", "bell:psi-minus"], "verdict = entangled"),
                       (["classify", "--state", "product", "--l1", "1", "--l2", "2"],
                        "label = mixed")]:
        calls.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert line in capsys.readouterr().out
        assert sorted(calls) == ["cross", "self", "self"], argv
    pos = random_amplitude(rng, small_grid(16, 3.0), representation=Representation.POSITION)
    for circular in (True, False):
        calls.clear()
        mzi_coincidence(pos, SppParams(1.0), MziPhases(0.3),
                        MziGeometry(1.0, 1.0, circular=circular))
        assert 0 < len(calls) <= 4

    def no_factor_arrays(axes):
        raise AssertionError("a (rank, n, n) factor array was built")

    monkeypatch.setattr(amplitudes._AxisFactors, "values", property(no_factor_arrays))
    blocks = []
    class_block = amplitudes._class_block

    def counting_blocks(a, b, parts):
        block = class_block(a, b, parts)
        if block is not None:
            blocks.append(block)
        return block

    monkeypatch.setattr(amplitudes, "_class_block", counting_blocks)
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    thin = thin_crystal_gaussian(beam, make_grid(64, 6.0 * beam.spot_size))
    for circular in (True, False):
        calls.clear()
        blocks.clear()
        mzi_coincidence(thin, SppParams(1.5), MziPhases(0.3),
                        MziGeometry(1.0, 1.0, aperture_factor=6.0, circular=circular))
        assert calls == []
        # The terms fall in 4 parity classes.  The aperture (or its absence)
        # is even, so the three self-Grams take the 4 class-diagonal blocks;
        # the cross-Gram takes all 16.
        assert len(blocks) == 3 * 4 + 4 ** 2

    # An unweighted report on a thin-crystal amplitude contracts its
    # coefficient core with the per-axis m x m Grams: no rank x rank Gram and
    # no class block.
    calls.clear()
    blocks.clear()
    assert cli.main(["pc", "--state", "thin-crystal"]) == cli.EXIT_OK
    assert "verdict = inconclusive" in capsys.readouterr().out
    assert calls == [] and blocks == []

    # An SPDC report contracts its parity-sector factors on the positive
    # quadrant by parity class, and builds no factor array.  The g00 pump
    # takes the eigh branch of spdc_state, hg:0,1 the SVD branch.  Its terms
    # fall in 4 classes; with no weight the two self-Grams take the 4
    # class-diagonal blocks, and the cross-Gram the 4 blocks of each class
    # with its pump-parity partner.
    monkeypatch.setattr(amplitudes._SectorFactors, "values", property(no_factor_arrays))
    for argv, line in [(["classify", "--state", "spdc"], "label = symmetric"),
                       (["pc", "--state", "spdc", "--pump", "hg:0,1"], "verdict = entangled"),
                       (["pc", "--state", "spdc", "--pump", "hg:1,2"], "verdict = inconclusive")]:
        calls.clear()
        blocks.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert line in capsys.readouterr().out
        assert calls == [], argv
        assert len(blocks) == 2 * 4 + 4, argv


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
    # Both photons' factors must be held in one kind of form.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    axis_form = thin_crystal_gaussian(beam, make_grid(16, 6.0 * beam.spot_size))._form
    with pytest.raises(ValueError, match=re.escape("factor arrays must have shape (rank, n, n)")):
        replace(amp, photon1=None, photon2=None, _form=(form[0], axis_form[1]))
    with pytest.raises(AttributeError, match="has no attribute 'photon3'"):
        amp.photon3


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
    # the arrays.  Both sides of that weighted check run the same array
    # arithmetic, so at n <= 16 the weighted values are also checked against
    # the pair formula evaluated densely.
    params = SpdcParams(crystal_length, 2.0, pump)
    grid = make_grid(n, 6.0)
    amp = spdc_state(params, grid)
    rescaled = normalize(amplitudes._with_factors(amp, *amp._form, coeffs=3.0 * amp.coeffs))
    qx, qy = grid.meshgrid()
    envelope, mask = np.cos(0.4 * qx + 0.3 * qy), (qx ** 2 + 2.0 * qy ** 2 < 20.0) * 1.0
    references = [None] * 3
    if n <= 16:
        pair = dense_normalize(DenseAmplitude(spdc_pair(params, grid), grid,
                                              Representation.MOMENTUM))
        references = [pair, pair, dense_sigma(pair)]
    for state, reference in zip((amp, rescaled, apply_sigma(rescaled)), references):
        assert isinstance(state._form[0], amplitudes._SectorFactors)
        copy = _as_arrays(state)
        assert np.abs(_outputs(state) - _outputs(copy)).max() <= 1e-12
        weighted = [amplitudes._sigma_grams(a, envelope, mask) for a in (state, copy)]
        assert np.abs(np.subtract(*weighted)).max() <= 1e-12
        if reference is not None:
            # The truncation drops a part of relative norm eps orthogonal to
            # what it keeps, so the normalized state is within
            # eps sqrt(1 + eps^2) of the normalized pair.  Each value is a form
            # <A Phi, B Phi> with ||A||, ||B|| <= 1 (|envelope|, |mask| <= 1,
            # sigma unitary) and moves by at most twice that distance.
            eps = state.truncation_error
            bound = 2.0 * eps * math.sqrt(1.0 + eps ** 2) + 1e-12
            assert np.abs(np.subtract(weighted[0], _dense_weighted_grams(
                reference, envelope, mask))).max() <= bound


@settings(max_examples=30, deadline=None)
@given(pump=_PUMPS, crystal_length=st.floats(0.1, 50.0), pump_wavenumber=st.floats(0.5, 4.0))
def test_spdc_sinc_from_per_axis_tables_matches_np_sinc(pump, crystal_length, pump_wavenumber):
    # The samples' sinc comes from sines and cosines of per-axis tables: the
    # state is the one sampled with np.sinc of the whole argument, and the
    # sinc is exactly 1 at q1 = q2.
    params = SpdcParams(crystal_length, pump_wavenumber, pump)
    grid = make_grid(16, 6.0)
    h = grid.n // 2
    p = grid.axis[h:]
    # d2[s, i, k] = (p_i - s p_k)^2; samples [sx, sy, i, j, k, l].
    d2 = (p[None, :, None] - np.array([1.0, -1.0])[:, None, None] * p[None, None, :]) ** 2
    d2x, d2y = d2[:, None, :, None, :, None], d2[None, :, None, :, None, :]

    def with_np_sinc(a):
        return np.sinc(crystal_length * (d2x + d2y) / (4.0 * pump_wavenumber) / np.pi)

    tables, per_axis = [], states._phase_matching

    def recorded(a):
        tables.append(per_axis(a))
        return tables[-1].copy()

    with mock.patch.object(states, "_phase_matching", recorded):
        amp = spdc_state(params, grid)
    with mock.patch.object(states, "_phase_matching", with_np_sinc):
        reference = spdc_state(params, grid)
    assert amp.rank == reference.rank
    assert abs(amp.truncation_error - reference.truncation_error) <= 1e-12
    assert abs(coincidence_probability(amp) - coincidence_probability(reference)) <= 1e-12
    sinc, = tables
    assert np.abs(sinc - with_np_sinc(None)).max() <= 1e-12
    i, j = np.meshgrid(np.arange(h), np.arange(h), indexing="ij")
    assert np.all(sinc[0, 0, i, j, i, j] == 1.0)


def _dense_weighted_grams(amp, envelope, mask):
    """`_sigma_grams`' three values for a dense amplitude, from the 4-D array:
    both photons times the mask, then photon 1 times the envelope."""
    masked = amp.values * mask[:, :, None, None] * mask[None, None, :, :]
    enveloped = replace(amp, values=masked * envelope[:, :, None, None])
    return (dense_norm_squared(replace(amp, values=masked)), dense_norm_squared(enveloped),
            dense_sigma_overlap(enveloped))


def _parity_rows(rng, m, n):
    """m random complex rows of length n, each exactly even or odd: a random
    half row, mirrored with a random sign."""
    half = rng.normal(size=(m, n // 2)) + 1j * rng.normal(size=(m, n // 2))
    sign = rng.choice([1.0, -1.0], size=(m, 1))
    return np.concatenate([sign * half[:, ::-1], half], axis=1)


def _thin_crystal(n, aperture, z_over_z0, rank_tol):
    beam = GaussianBeamParams(1.0, z_over_z0, 2.0)  # Rayleigh length 1
    return thin_crystal_gaussian(beam, make_grid(n, aperture * beam.spot_size),
                                 rank_tol=rank_tol)


def _without_core(fn, amp):
    """fn(amp) with the coefficient-core path switched off."""
    with mock.patch.object(amplitudes, "_core", lambda amp: None):
        return fn(amp)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128, 256]), aperture=st.floats(4.0, 40.0),
       z_over_z0=st.floats(0.3, 3.0), rank_tol=st.sampled_from([1e-6, 1e-8]))
def test_core_path_matches_class_engine_and_dense_copy(n, aperture, z_over_z0, rank_tol):
    # The core contraction of a thin-crystal amplitude against the parity-class
    # engine under the weight 1 and against the same factors held as plain
    # arrays.  The rank is capped so that both references fit in memory; the
    # array copy is taken where its Grams stay small.
    amp = _thin_crystal(n, aperture, z_over_z0, rank_tol)
    assume(amp.rank <= 1200)
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
    # Complex, non-orthogonal, exactly even or odd per-axis vectors and
    # coefficients, with repeated (ix, iy) pairs, shared by both photons: the
    # core sums them.  With a real envelope, and a 0/1 mask or none, the
    # weighted Grams by parity class give the array copy's
    # (||Phi||^2, ||Phi'||^2, J').
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    ix, iy = rng.integers(0, m[0], rank), rng.integers(0, m[1], rank)
    axes = [amplitudes._AxisFactors(_parity_rows(rng, m[0], n), _parity_rows(rng, m[1], n),
                                    ix, iy)
            for _ in range(2)]
    amp = TwoPhotonAmplitude(cnormal(rank), None, None, make_grid(n, 3.0),
                             Representation.MOMENTUM, _form=tuple(axes))
    for state in (amp, apply_sigma(normalize(amp))):
        assert amplitudes._core(state) is not None
        arrays = _as_arrays(state)
        core, want = _outputs(state), _outputs(arrays)
        assert np.abs(core - want).max() <= 1e-12 * max(1.0, abs(want[0]))
        envelope = rng.normal(size=(n, n))
        for mask in (None, (rng.random((n, n)) < 0.7).astype(float)):
            got = np.array(amplitudes._norms_and_overlap(state, envelope, mask))
            want = np.array(amplitudes._norms_and_overlap(arrays, envelope, mask))
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, abs(want[0]))


def test_per_axis_photons_on_different_index_maps_take_the_class_engine():
    amp = _thin_crystal(32, 6.0, 1.0, 1e-6)
    f, g = amp._form
    swapped = amplitudes._with_factors(amp, f, amplitudes._AxisFactors(g.x, g.y, g.iy, g.ix))
    assert swapped._form is not None and amplitudes._core(swapped) is None
    engine = amplitudes._class_grams
    with (mock.patch.object(amplitudes, "_class_grams", side_effect=engine) as spy,
          mock.patch.object(amplitudes._AxisFactors, "values", property(_no_factor_arrays))):
        values = _outputs(swapped)
    assert spy.call_count > 0
    assert np.abs(values - _outputs(_as_arrays(swapped))).max() <= 1e-12


@pytest.mark.parametrize("case", ["circular", "square", "sigma", "swapped"])
def test_class_grams_build_each_table_once_and_match_fresh_tables(case):
    # One weighted evaluation builds each half-axis product table and gather
    # index once, shares it across class pairs and weights, and holds none
    # after the last block that reads it.  The values are those of tables
    # built afresh for every block, bit for bit.
    amp = _thin_crystal(64, 6.0, 1.0, 1e-6)
    if case == "sigma":
        amp = apply_sigma(amp)
    elif case == "swapped":
        f, g = amp._form
        amp = amplitudes._with_factors(amp, f, amplitudes._AxisFactors(g.x, g.y, g.iy, g.ix))
    weights = mzi_module._quadrant_weights(amp.grid, SppParams(1.5), MziPhases(0.3),
                                           case != "square")
    built, reads, stores = {}, [], set()
    read = amplitudes._Tables.read

    def counting(tables, key, build):
        def counted():
            built[key] = built.get(key, 0) + 1
            return build()
        reads.append(key)
        stores.add(tables)
        return read(tables, key, counted)

    with mock.patch.object(amplitudes._Tables, "read", counting):
        shared = amplitudes._class_grams(amp, weights)
    assert set(built) == set(reads) and set(built.values()) == {1}
    assert len(reads) > len(built)
    assert [store._tables for store in stores] == [{}]
    with mock.patch.object(amplitudes._Tables, "read", lambda tables, key, build: build()):
        assert amplitudes._class_grams(amp, weights) == shared


def _no_factor_arrays(axes):
    raise AssertionError("a (rank, n, n) factor array was built")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 12),
       m=st.tuples(st.integers(1, 4), st.integers(1, 4)), n=st.sampled_from([8, 12, 16]),
       swapped=st.booleans(), mask=st.sampled_from(["none", "even", "random"]))
def test_class_grams_match_an_array_copy(seed, rank, m, n, swapped, mask):
    # Each photon's per-axis vectors are random, complex and exactly even or
    # odd with random signs, its (ix, iy) pairs repeat, and photon 2 holds its
    # own vectors on the same index map or on the swapped one (iy, ix).  Under
    # a random real envelope, with a mask that is none, even in x and y, or
    # random, the weighted Grams by parity class give the array copy's
    # (||Phi||^2, ||Phi'||^2, J') without building a factor array.
    rng = np.random.default_rng(seed)
    ix, iy = rng.integers(0, m[0], rank), rng.integers(0, m[1], rank)
    f = amplitudes._AxisFactors(_parity_rows(rng, m[0], n), _parity_rows(rng, m[1], n), ix, iy)
    g = (amplitudes._AxisFactors(_parity_rows(rng, m[1], n), _parity_rows(rng, m[0], n), iy, ix)
         if swapped else
         amplitudes._AxisFactors(_parity_rows(rng, m[0], n), _parity_rows(rng, m[1], n), ix, iy))
    coeffs = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    amp = TwoPhotonAmplitude(coeffs, None, None, make_grid(n, 3.0), Representation.POSITION,
                             _form=(f, g))
    envelope = rng.normal(size=(n, n))
    quadrant = (rng.random((n // 2, n // 2)) < 0.7).astype(float)
    even = np.concatenate([quadrant[::-1], quadrant])
    weight = {"none": None, "even": np.concatenate([even[:, ::-1], even], axis=1),
              "random": (rng.random((n, n)) < 0.7).astype(float)}[mask]
    for state in (amp, apply_sigma(amp)):
        want = np.array(amplitudes._norms_and_overlap(_as_arrays(state), envelope, weight))
        with mock.patch.object(amplitudes._AxisFactors, "values", property(_no_factor_arrays)):
            got = np.array(amplitudes._norms_and_overlap(state, envelope, weight))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, abs(want[0]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pump=_PUMPS, n=st.sampled_from([8, 16, 24]),
       mask=st.sampled_from(["none", "even", "random"]))
def test_sector_class_grams_match_an_array_copy_under_any_mask(seed, pump, n, mask):
    # The weighted Grams of an SPDC amplitude by parity class on the positive
    # quadrant against the same factors held as plain arrays, under a random
    # real envelope and a mask that is none, even in x and y, or random: a
    # random mask gives every parity part W_(u,v), so blocks of every pair of
    # sectors count.  No factor array is built.
    rng = np.random.default_rng(seed)
    amp = spdc_state(SpdcParams(1.0, 2.0, pump), make_grid(n, 6.0))
    envelope = rng.normal(size=(n, n))
    quadrant = (rng.random((n // 2, n // 2)) < 0.7).astype(float)
    even = np.concatenate([quadrant[::-1], quadrant])
    weight = {"none": None, "even": np.concatenate([even[:, ::-1], even], axis=1),
              "random": (rng.random((n, n)) < 0.7).astype(float)}[mask]
    for state in (amp, apply_sigma(amp)):
        assert isinstance(state._form[0], amplitudes._SectorFactors)
        want = np.array(amplitudes._norms_and_overlap(_as_arrays(state), envelope, weight))
        with mock.patch.object(amplitudes._SectorFactors, "values", property(_no_factor_arrays)):
            got = np.array(amplitudes._norms_and_overlap(state, envelope, weight))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, abs(want[0]))


def test_per_axis_factors_must_be_exactly_even_or_odd():
    # The weighted Grams sum over the positive half axes by the parity of
    # each vector, so the per-axis form reads each parity bit for bit and
    # takes no vector that has none.
    rows = _parity_rows(np.random.default_rng(5), 3, 8)
    index = np.arange(3)
    axes = amplitudes._AxisFactors(rows, rows[::-1], index, index)
    assert np.array_equal(axes.x_sign, np.where(rows[:, 0] == rows[:, -1], 1.0, -1.0))
    assert np.array_equal(axes.y_sign, axes.x_sign[::-1])
    bent = rows.copy()
    bent[1, 0] = complex(np.nextafter(bent[1, 0].real, np.inf), bent[1, 0].imag)
    for x, y, name in ((bent, rows, "x"), (rows, bent, "y")):
        with pytest.raises(ValueError, match=re.escape(
                f"per-axis factors must be exactly even or odd: row 1 of {name} is neither")):
            amplitudes._AxisFactors(x, y, index, index)


def test_per_axis_expansion_cap_is_inclusive():
    # Rank 4096 (_MAX_EXPANDED_RANK) may still be expanded: only a larger rank
    # is refused.
    rows = _parity_rows(np.random.default_rng(6), 2, 8)
    for rank in (amplitudes._MAX_EXPANDED_RANK, amplitudes._MAX_EXPANDED_RANK + 1):
        index = np.arange(rank) % 2
        axes = amplitudes._AxisFactors(rows, rows, index, index)
        if rank == amplitudes._MAX_EXPANDED_RANK:
            axes.check_expandable("rank x rank Grams")
        else:
            with pytest.raises(TruncationError, match=f"rank {rank} is above the cap of 4096"):
                axes.check_expandable("rank x rank Grams")


def test_generic_mzi_on_a_thin_crystal_peaks_below_6_mb():
    # At n = 128 and aperture 6 the thin crystal has rank 356 on 22 vectors
    # per axis.  Its weighted Grams go by parity class and form no
    # (22^2, 22^2) tensor on the full axes: one generic call traces a peak of
    # about 2.6 MB, against 10.9 MB for that tensor and its rank x rank gather.
    beam = GaussianBeamParams(1.0, 1.0, 2.0)
    amp = thin_crystal_gaussian(beam, make_grid(128, 6.0 * beam.spot_size))
    geom, spp, phases = MziGeometry(1.0, 1.0, aperture_factor=6.0), SppParams(1.5), MziPhases(0.3)
    mzi_coincidence(amp, spp, phases, geom)
    tracemalloc.start()
    try:
        mzi_coincidence(amp, spp, phases, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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
    # A tol above every weight still keeps the leading term.
    single = compress(amp, tol=2.0)
    assert single.rank == 1
    assert abs(single.coeffs[0]) == pytest.approx(np.abs(squeezed.coeffs).max(), rel=1e-12)
    rest = TwoPhotonAmplitude(np.concatenate([amp.coeffs, -single.coeffs]),
                              np.concatenate([amp.photon1, single.photon1]),
                              np.concatenate([amp.photon2, single.photon2]),
                              amp.grid, amp.representation)
    assert single.truncation_error == pytest.approx(
        amp.truncation_error + np.sqrt(norm_squared(rest) / norm_squared(amp)), rel=1e-6)


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
    # per-axis factors (complex, exactly even or odd, on one shared index map)
    # and SPDC sectors.
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
        axes = [amplitudes._AxisFactors(_parity_rows(rng, m[0], n), _parity_rows(rng, m[1], n),
                                        ix, iy)
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
