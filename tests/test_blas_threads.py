"""Full-precision results on one and two OpenBLAS threads.

OpenBLAS reads its thread count when numpy loads, so each count runs the
probe script in its own interpreter, and the `repr` of every number must
match.  Probes: the thin-crystal fast path at n = 256 and 1024 (three zeta
each), the thin-crystal coefficients at n = 128, the generic interferometer
path on that state, and a Bell state at n = 64.

Two LAPACK factorizations are known exceptions, whose last bits follow the
thread count, and are not probed: the `eigh` of SPDC g00 at n = 48 (||Phi||^2
reads 1.0 against 0.9999999999999999) and the block SVDs of the thin crystal
at n = 1024 (its truncation error and Im J).  Their printed reports are the
same on both counts (`test_spdc_report_is_the_same_on_one_and_two_blas_threads`).
"""

import os
import subprocess
import sys

import biphoton

PROBE = """
import biphoton as bp

beam = bp.GaussianBeamParams(1.0, 1.0, 2.0)
for n in (256, 1024):
    for zeta in (0.5, 1.0, 2.7):
        r = bp.mzi_coincidence(beam, bp.SppParams(zeta), bp.MziPhases(0.3),
                               bp.MziGeometry(1.0, 1.0), grid_n=n)
        print(repr(("fast", n, zeta, r.conditional_pc, r.throughput_eta)))
amp = bp.thin_crystal_gaussian(beam, bp.make_grid(128, 6.0 * beam.spot_size))
print(repr(("thin crystal", amp.truncation_error, *amp.coeffs.tolist())))
r = bp.mzi_coincidence(amp, bp.SppParams(1.5), bp.MziPhases(0.3),
                       bp.MziGeometry(1.0, 1.0, aperture_factor=6.0))
print(repr(("generic", r.conditional_pc, r.throughput_eta)))
bell = bp.bell_state("psi-minus", 1, 1.0, bp.make_grid(64, 8.0))
print(repr(("bell", bp.norm_squared(bell), *bp.symmetry_decompose(bell),
            bp.coincidence_probability(bell))))
"""


def test_probes_are_the_same_in_full_precision_on_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(biphoton.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        outputs.append(out.stdout.splitlines())
    one, two = outputs
    assert len(one) == 9
    for line_one, line_two in zip(one, two):
        assert line_one == line_two
