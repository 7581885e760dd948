"""Shared builders for randomized test states."""

import numpy as np

from biphoton import (Representation, TransverseMode, TwoPhotonAmplitude,
                      hermite_gaussian, make_grid, normalize, normalize_mode)


def smooth_random_mode(rng, grid, representation=Representation.MOMENTUM,
                       max_order=2, waist=1.0):
    """Random superposition of low-order HG modes (smooth, well-resolved)."""
    values = np.zeros((grid.n, grid.n), dtype=complex)
    for m in range(max_order + 1):
        for n in range(max_order + 1):
            c = rng.normal() + 1j * rng.normal()
            values += c * hermite_gaussian(m, n, waist, grid, representation).values
    return normalize_mode(TransverseMode(values, grid, representation))


def random_amplitude(rng, grid, rank=3, representation=Representation.MOMENTUM):
    coeffs = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    photon1 = np.stack([smooth_random_mode(rng, grid, representation).values
                        for _ in range(rank)])
    photon2 = np.stack([smooth_random_mode(rng, grid, representation).values
                        for _ in range(rank)])
    return normalize(TwoPhotonAmplitude(coeffs, photon1, photon2, grid, representation))


def small_grid(n=16, half_width=5.0):
    return make_grid(n, half_width)


def spdc_pair(params, grid):
    """The SPDC pair v(q1 + q2) sinc(L |q1 - q2|^2 / (4 k_p)) sampled on the
    whole (n, n, n, n) grid, indexed (x1, y1, x2, y2); unnormalized."""
    ax = grid.axis
    q1x, q1y, q2x, q2y = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    return params.pump.evaluate(q1x + q2x, q1y + q2y) * np.sinc(
        params.crystal_length * ((q1x - q2x) ** 2 + (q1y - q2y) ** 2)
        / (4.0 * params.pump_wavenumber) / np.pi)
