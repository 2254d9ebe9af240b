"""Shared builders for randomized tests. Everything is seeded explicitly."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import gfcanon
from gfcanon import Matrix, Poly, PrimeField, SpatialMatrix, TransformWitness


def rand_matrix(rng: random.Random, fld: PrimeField, m: int, n: int) -> Matrix:
    return Matrix(fld, [[rng.randrange(fld.p) for _ in range(n)] for _ in range(m)], n)


def rand_invertible(rng: random.Random, fld: PrimeField, d: int) -> Matrix:
    from gfcanon import is_invertible

    while True:
        mat = rand_matrix(rng, fld, d, d)
        if is_invertible(mat):
            return mat


def rand_tensor(
    rng: random.Random, fld: PrimeField, m: int, n: int, q: int
) -> SpatialMatrix:
    return SpatialMatrix(
        fld,
        [[[rng.randrange(fld.p) for _ in range(n)] for _ in range(m)] for _ in range(q)],
        m,
        n,
    )


def rand_witness(
    rng: random.Random, fld: PrimeField, m: int, n: int, q: int
) -> TransformWitness:
    return TransformWitness(
        rand_invertible(rng, fld, m),
        rand_invertible(rng, fld, n),
        rand_invertible(rng, fld, q),
    )


def rand_monic(rng: random.Random, fld: PrimeField, degree: int) -> Poly:
    coeffs = [rng.randrange(fld.p) for _ in range(degree)] + [1]
    return Poly(fld, coeffs)


def run_python_O(tmp_path, source: str) -> str:
    """Run source in a fresh `python -O` interpreter that imports this
    checkout's gfcanon; return its stdout after checking it exited 0."""
    script = tmp_path / "under_O.py"
    script.write_text(textwrap.dedent(source))
    src = str(Path(gfcanon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
