import math

import numpy as np
import pytest

from biphoton import (BsOutput, BsPhases, PumpMode, SpdcParams, Verdict,
                      beamsplitter_output, bell_state,
                      coincidence_probability, entanglement_witness,
                      make_grid, oam_ring, product_state, sigma_overlap,
                      spdc_state, symmetry_decompose, to_dense)

from _helpers import random_amplitude, small_grid, smooth_random_mode

GRID = make_grid(64, 8.0)


@pytest.mark.parametrize("kind,expected", [
    ("psi-minus", 1.0), ("psi-plus", 0.0), ("phi-plus", 0.0), ("phi-minus", 0.0),
])
def test_coincidence_bell(kind, expected):
    assert coincidence_probability(bell_state(kind, 1, 1.0, GRID)) == pytest.approx(expected, abs=1e-6)


def test_coincidence_equals_antisymmetric_weight():
    for seed in range(5):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        pc = coincidence_probability(amp)
        _, asym = symmetry_decompose(amp)
        assert pc == pytest.approx(asym, abs=1e-10)
        assert -1e-9 <= pc <= 1.0 + 1e-9


def _dense_port_probability(amp, port):
    """Brute-force oracle for the bunched-output probability of one port.

    The port amplitude is A(q1, q2) = (1/2) Phi(q1x, q1y, q2x, -q2y) (port 1)
    or (1/2) Phi(q1x, -q1y, q2x, q2y) (port 2), attached to identical mode
    operators, so the squared norm includes the exchange term.
    """
    phi = to_dense(amp).values
    if port == 1:
        a = 0.5 * np.flip(phi, axis=3)
    else:
        a = 0.5 * np.flip(phi, axis=1)
    w = amp.grid.weight ** 2
    direct = np.vdot(a, a) * w
    exchange = np.vdot(a, a.transpose(2, 3, 0, 1)) * w
    return float((direct + exchange).real)


@pytest.mark.parametrize("build,expected", [
    (lambda g: bell_state("psi-minus", 1, 1.0, g), (0.0, 0.0, 1.0)),
    (lambda g: bell_state("phi-plus", 1, 1.0, g), (0.5, 0.5, 0.0)),
    (lambda g: product_state(oam_ring(1, 1.0, g), oam_ring(-1, 1.0, g)), (0.5, 0.5, 0.0)),
])
def test_beamsplitter_output_channels(build, expected):
    g = make_grid(32, 8.0)
    amp = build(g)
    out = beamsplitter_output(amp)
    assert (out.p_both_port1, out.p_both_port2, out.p_coincidence) == pytest.approx(expected, abs=1e-6)
    # dense brute-force oracle for the bunched channels
    assert _dense_port_probability(amp, 1) == pytest.approx(out.p_both_port1, abs=1e-8)
    assert _dense_port_probability(amp, 2) == pytest.approx(out.p_both_port2, abs=1e-8)


def test_beamsplitter_probability_sum_and_phase_independence():
    for seed in range(5):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        out0 = beamsplitter_output(amp, BsPhases(0.0, 0.0))
        out1 = beamsplitter_output(amp, BsPhases(0.7, -1.3))
        total = out0.p_both_port1 + out0.p_both_port2 + out0.p_coincidence
        assert total == pytest.approx(1.0, abs=1e-9)
        assert out1.p_coincidence == pytest.approx(out0.p_coincidence, abs=1e-12)
        assert out1.p_both_port1 == pytest.approx(out0.p_both_port1, abs=1e-12)


def test_beamsplitter_output_carries_truncation_error():
    spdc = spdc_state(SpdcParams(1.0, 2.0, PumpMode("hermite", 1.0, 0, 1)), make_grid(16, 6.0))
    out = beamsplitter_output(spdc)
    assert out.truncation_error == spdc.truncation_error > 0.0
    assert beamsplitter_output(bell_state("psi-minus", 1, 1.0, GRID)).truncation_error is None


def test_coincidence_amplitude_is_antisymmetric_part():
    rng = np.random.default_rng(42)
    amp = random_amplitude(rng, small_grid())
    out = beamsplitter_output(amp)
    assert "coincidence_amplitude" not in vars(out)  # built on first read
    from biphoton import norm_squared
    assert norm_squared(out.coincidence_amplitude) == pytest.approx(out.p_coincidence, abs=1e-10)


def test_witness_verdicts():
    assert entanglement_witness(bell_state("psi-minus", 1, 1.0, GRID)) is Verdict.ENTANGLED
    # entangled but undetected: the witness is one-sided
    assert entanglement_witness(bell_state("phi-plus", 1, 1.0, GRID)) is Verdict.INCONCLUSIVE


def test_witness_never_fires_on_products():
    rng = np.random.default_rng(17)
    g = small_grid()
    for _ in range(100):
        amp = product_state(smooth_random_mode(rng, g), smooth_random_mode(rng, g))
        assert entanglement_witness(amp) is Verdict.INCONCLUSIVE


def test_coincidence_invariant_under_representation_change():
    from biphoton import position_representation
    for seed in range(3):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        assert coincidence_probability(position_representation(amp)) == pytest.approx(
            coincidence_probability(amp), abs=1e-8)


def test_witness_is_strict_above_half_plus_1e_6():
    # A product of rings l = 1 and 2 has P_c = 1/2 and certifies nothing; at
    # exactly 1/2 + 1e-6 the verdict is still inconclusive, one ulp above it
    # entangled.
    half = product_state(oam_ring(1, 1.0, GRID), oam_ring(2, 1.0, GRID))
    assert coincidence_probability(half) == pytest.approx(0.5, abs=1e-12)
    assert entanglement_witness(half) is Verdict.INCONCLUSIVE
    edge = 0.5 + 1e-6
    for pc, verdict in [(edge, Verdict.INCONCLUSIVE),
                        (math.nextafter(edge, 1.0), Verdict.ENTANGLED)]:
        assert BsOutput((1.0 - pc) / 2.0, (1.0 - pc) / 2.0, pc, half).verdict is verdict
