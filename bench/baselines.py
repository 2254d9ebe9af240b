"""Re-measure the single-call baselines quoted in ROADMAP.md.

    python3 bench/baselines.py

Each line times one kind of call on seeded random input, best of
``REPEATS`` (the 16 x 17 pencils and the CLI call run once), and prints it
beside the ROADMAP figure.  These are reference points, not part of the
benchmark result.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

import gf
import run
from sweep import best_time

REPEATS = 3

# (label, ROADMAP figure in ms, kind, p, m, n)
CASES = [
    ("canonical_label 2x2x2 p=5", 15, "label", 5, 2, 2),
    ("canonical_label 2x2x2 p=7", 30, "label", 7, 2, 2),
    ("canonical_label 2x2x2 p=13", 200, "label", 13, 2, 2),
    ("canonical_label 6x6x2 p=13", 540, "label", 13, 6, 6),
    ("cli canonicalize 2x2x2 p=31", 2900, "cli", 31, 2, 2),
    ("kronecker_form 12x12 p=5", 34, "pencil", 5, 12, 12),
    ("kronecker_form 12x13 p=5", 1350, "pencil", 5, 12, 13),
    ("kronecker_form 12x13 p=101", None, "pencil", 101, 12, 13),
    ("kronecker_form 16x17 p=5", 6000, "pencil", 5, 16, 17),
    ("kronecker_form 16x17 p=101", 11000, "pencil", 101, 16, 17),
]


def run_cli(gfc, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        gfc.cli.main(argv)


def main():
    gfc = run.load_package()
    rng = random.Random("baselines")
    print(f"{'call':32s} {'ROADMAP ms':>10s} {'measured ms':>12s}")
    for label, quoted, kind, p, m, n in CASES:
        fld = gfc.PrimeField(p)
        t1, t2 = (gf.rand_matrix(rng, p, m, n) for _ in range(2))
        repeats = 1 if m >= 16 else REPEATS
        if kind == "label":
            gfc.pgl2_reps(fld)
            a = gfc.SpatialMatrix(fld, [t1, t2], m, n)
            secs = best_time(lambda: gfc.canonical_label(a), repeats)
        elif kind == "cli":
            doc = '{"p": %d, "dims": [%d, %d, 2], "slices": %s}' % (p, m, n, [t1, t2])
            secs = best_time(lambda: run_cli(gfc, ["canonicalize", doc]), 1)
        else:
            a1, a2 = gfc.Matrix(fld, t1, n), gfc.Matrix(fld, t2, n)
            secs = best_time(lambda: gfc.kronecker_form(a1, a2), repeats)
        print(f"{label:32s} {quoted if quoted else '-':>10} {secs * 1e3:12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
