"""End-to-end acceptance checks.

Each test exercises one headline capability at its pinned tolerance and
prints a single pass/fail line (run with `pytest tests/test_acceptance.py -s`
to see them).  The tests are self-contained and ordered from state
construction to the full interferometer sweep.
"""

import time

import numpy as np
import pytest

from biphoton import (BsPhases, GaussianBeamParams, MziGeometry, MziPhases,
                      PumpMode, Representation, SpdcParams, SppParams,
                      TwoPhotonAmplitude, apply_sigma, beamsplitter_output,
                      bell_state, coincidence_probability, delta_limit_oracle,
                      make_grid, mzi_coincidence, oam_ring,
                      position_representation, product_state, scan,
                      sigma_overlap, spdc_state, thin_crystal_gaussian,
                      to_dense, dense_sigma_overlap)

from _helpers import random_amplitude, small_grid, smooth_random_mode


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_bell_state_table():
    grid = make_grid(64, 8.0)
    start = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 3):
        for kind, expected in (("psi-minus", 1.0), ("psi-plus", 0.0),
                               ("phi-plus", 0.0), ("phi-minus", 0.0)):
            pc = coincidence_probability(bell_state(kind, l, 1.0, grid))
            worst = max(worst, abs(pc - expected))
    elapsed = time.perf_counter() - start
    _report("Bell-state coincidence table (l = 1..3, tol 1e-6, < 5 s)",
            worst < 1e-6 and elapsed < 5.0,
            f"worst error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_oam_product_table():
    grid = make_grid(64, 8.0)
    worst = 0.0
    for l in (1, 2):
        same = product_state(oam_ring(l, 1.0, grid), oam_ring(l, 1.0, grid))
        opposite = product_state(oam_ring(l, 1.0, grid), oam_ring(-l, 1.0, grid))
        worst = max(worst, abs(coincidence_probability(same) - 0.5))
        worst = max(worst, abs(coincidence_probability(opposite) - 0.0))
    _report("opposite/equal OAM product table (tol 1e-6)", worst < 1e-6,
            f"worst error {worst:.2e}")


def test_criterion_03_product_states_never_anticoalesce():
    rng = np.random.default_rng(2024)
    grid = small_grid(16, 5.0)
    worst = -1.0
    for _ in range(10_000):
        amp = product_state(smooth_random_mode(rng, grid),
                            smooth_random_mode(rng, grid))
        worst = max(worst, coincidence_probability(amp))
    _report("10,000 random product states stay at P_c <= 1/2 (tol 1e-9)",
            worst <= 0.5 + 1e-9, f"max P_c {worst:.12f}")


def test_criterion_04_spdc_symmetry_from_pump_parity():
    grid = make_grid(32, 6.0)
    worst = 0.0
    worst_trunc = 0.0
    for pump, expected_pc in ((PumpMode("gaussian", 1.0), 0.0),
                              (PumpMode("hermite", 1.0, 1, 0), 0.0),
                              (PumpMode("hermite", 1.0, 0, 1), 1.0)):
        amp = spdc_state(SpdcParams(1.0, 2.0, pump), grid)
        worst = max(worst, abs(coincidence_probability(amp) - expected_pc))
        worst_trunc = max(worst_trunc, amp.truncation_error)
    _report("SPDC coincidence follows pump y-parity (tol 1e-4, trunc < 1e-6)",
            worst < 1e-4 and worst_trunc < 1e-6,
            f"worst error {worst:.2e}, trunc {worst_trunc:.2e}")


def test_criterion_05_spp_winding_sweep():
    geom = MziGeometry(1.0, 1.0, aperture_factor=40.0)
    worst_target = 0.0
    for zeta, alpha, expected in ((1, 0.0, 0.0), (2, 0.0, 1.0), (3, 0.0, 0.0),
                                  (4, 0.0, 1.0), (1, np.pi / 2, 1.0),
                                  (2, np.pi / 2, 0.0)):
        res = mzi_coincidence(GaussianBeamParams(1.0, 1.0, 2.0), SppParams(float(zeta)),
                              MziPhases(alpha), geom, grid_n=1024)
        worst_target = max(worst_target, abs(res.conditional_pc - expected))
    start = time.perf_counter()
    result = scan("zeta", 0.25, 4.0, 16, geom=geom, grid_n=1024)
    elapsed = time.perf_counter() - start
    worst_oracle = max(abs(r.conditional_pc - r.oracle_pc) for r in result.rows
                       if r.flag == "ok")
    ok = worst_target <= 0.02 and worst_oracle <= 0.02 and elapsed < 120.0
    _report("SPP winding sweep hits targets and oracle (tol 0.02, < 2 min)",
            ok, f"targets {worst_target:.3f}, oracle {worst_oracle:.3f}, "
                f"{elapsed:.1f} s")


def test_criterion_06_phase_sweep_fringes():
    geom = MziGeometry(1.0, 1.0, aperture_factor=40.0)
    alphas = np.linspace(0.0, np.pi, 9)
    worst_fringe = 0.0
    worst_antiphase = 0.0
    for zeta in (1, 2):
        pcs = {}
        for alpha in alphas:
            res = mzi_coincidence(GaussianBeamParams(1.0, 1.0, 2.0), SppParams(float(zeta)),
                                  MziPhases(alpha), geom, grid_n=1024)
            pcs[alpha] = res.conditional_pc
            closed = 0.5 * (1.0 + (-1.0) ** zeta * np.cos(2.0 * alpha))
            worst_fringe = max(worst_fringe, abs(res.conditional_pc - closed))
        for alpha in alphas:
            if alpha + np.pi / 2 <= np.pi + 1e-12:
                partner = min(pcs, key=lambda a: abs(a - (alpha + np.pi / 2)))
                worst_antiphase = max(
                    worst_antiphase, abs(pcs[alpha] + pcs[partner] - 1.0))
    ok = worst_fringe <= 0.02 and worst_antiphase <= 0.04
    _report("interferometer phase fringes match closed form (tol 0.02/0.04)",
            ok, f"fringe {worst_fringe:.3f}, antiphase {worst_antiphase:.3f}")


def test_criterion_07_product_sum_matches_dense_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        grid = small_grid(8 + 4 * (seed % 3), 4.0)
        amp = random_amplitude(rng, grid, rank=1 + seed % 4)
        worst = max(worst, abs(sigma_overlap(amp)
                               - dense_sigma_overlap(to_dense(amp))))
    _report("100 random states: product-sum vs dense overlap (tol 1e-10)",
            worst < 1e-10, f"worst error {worst:.2e}")


def test_criterion_08_beamsplitter_unitarity():
    worst_sum = 0.0
    worst_phase = 0.0
    for seed in range(20):
        amp = random_amplitude(np.random.default_rng(seed), small_grid())
        out = beamsplitter_output(amp)
        worst_sum = max(worst_sum, abs(out.p_both_port1 + out.p_both_port2
                                       + out.p_coincidence - 1.0))
        shifted = beamsplitter_output(amp, BsPhases(0.8, -0.4))
        worst_phase = max(worst_phase,
                          abs(shifted.p_coincidence - out.p_coincidence),
                          abs(shifted.p_both_port1 - out.p_both_port1),
                          abs(shifted.p_both_port2 - out.p_both_port2))
    ok = worst_sum < 1e-9 and worst_phase < 1e-12
    _report("beamsplitter outputs sum to 1 (1e-9), phase-independent (1e-12)",
            ok, f"sum {worst_sum:.2e}, phase {worst_phase:.2e}")


def test_criterion_09_propagation_phase_irrelevant():
    # The quadratic propagation phases of the thin-crystal state drop out of
    # the coincidence probability; checked through the generic interferometer
    # path at a modest aperture and against the dense oracle at small n.
    source = GaussianBeamParams(1.0, 1.0, 2.0)
    geom = MziGeometry(1.0, 1.0, aperture_factor=6.0)
    worst_generic = 0.0
    grid = make_grid(64, geom.aperture_factor * source.spot_size)
    for zeta in (1.0, 2.0, 2.5):
        results = []
        for include_phase in (True, False):
            amp = thin_crystal_gaussian(source, grid, include_phase=include_phase)
            results.append(mzi_coincidence(amp, SppParams(zeta), MziPhases(0.3),
                                           geom).conditional_pc)
        worst_generic = max(worst_generic, abs(results[0] - results[1]))
    worst_dense = 0.0
    small = make_grid(16, geom.aperture_factor * source.spot_size)
    for include_phase in (True, False):
        amp = thin_crystal_gaussian(source, small, include_phase=include_phase)
        # the state must stay exactly symmetric regardless of the phase factors
        j = dense_sigma_overlap(to_dense(amp))
        worst_dense = max(worst_dense, abs(j - 1.0))
    ok = worst_generic < 1e-6 and worst_dense < 1e-6
    _report("propagation phases do not change coincidences (tol 1e-6)",
            ok, f"generic {worst_generic:.2e}, dense {worst_dense:.2e}")


def test_criterion_10_structural_invariants():
    worst_imag = 0.0
    worst_repr = 0.0
    involution_exact = True
    for seed in range(30):
        rng = np.random.default_rng(seed)
        amp = random_amplitude(rng, small_grid(16, 4.0), rank=1 + seed % 3)
        twice = apply_sigma(apply_sigma(amp))
        involution_exact &= (np.array_equal(twice.photon1, amp.photon1)
                             and np.array_equal(twice.photon2, amp.photon2))
        gram = sigma_overlap(amp)  # asserts imaginary part below 1e-10
        worst_imag = max(worst_imag, 0.0 if np.isreal(gram) else abs(gram.imag))
        pos = position_representation(amp)
        worst_repr = max(worst_repr, abs(sigma_overlap(pos) - gram))
    ok = involution_exact and worst_imag < 1e-10 and worst_repr < 1e-8
    _report("structural invariants: involution exact, J real (1e-10), "
            "representation-independent (1e-8)", ok,
            f"imag {worst_imag:.2e}, repr {worst_repr:.2e}")
