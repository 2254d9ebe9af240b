"""gfcanon benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload label-census --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory.  Round k of a seed is the workload's fixed plan of
operations on fresh inputs drawn from ``{workload}:{seed}:{k}``.
``--trace 0`` times whole rounds for about ``--seconds`` seconds and
reports the end-to-end metrics, each call's time normalized to a reference
machine speed (speed.py); ``--trace 1`` runs round 0 with spans recorded,
interleaved with an untraced round 1, plus the scaling sweep, and reports
the per-layer metrics.  Every outcome is checked off the clock; round 0 of
the golden seed must also match the committed golden record exactly.
``--write-golden`` records that file from one checked round 0.  The last line of stdout is the result
object; a human summary goes to stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_SEED = 0
SETUP_REPEATS = 11
SETUP_PROBES = 5
WARMUP_OPS = 3

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spatial.mobius_orbit_minimize.s": "s",
    "spatial.mobius_orbit_minimize.calls": "count",
    "spatial.mobius_orbit_minimize.share": "ratio",
    "spatial.mobius_orbit_minimize.p_exponent": "1",
    "spatial.theorem1_form.s": "s",
    "spatial.theorem1_form.self_s": "s",
    "spatial.theorem1_form.share": "ratio",
    "spatial.canonical_label.self_s": "s",
    "spatial.regular_part.s": "s",
    "spatial.regular_part.calls": "count",
    "spatial.regular_part.share": "ratio",
    "spatial.equivalent.self_s": "s",
    "spatial.apply_transform.s": "s",
    "spatial.apply_transform.calls": "count",
    "spatial.apply_transform.share": "ratio",
    "spatial.pgl2_reps.s": "s",
    "spatial.theorem2_catalog.s": "s",
    "poly.mobius_transform.calls": "count",
    "poly.mobius_transform.s": "s",
    "poly.mobius_transform.inadmissible": "count",
    "poly.mobius_transform.admissible_ratio": "ratio",
    "poly.factor_prime_powers.calls": "count",
    "poly.factor_prime_powers.s": "s",
    "poly.Poly.new": "count",
    "pencil.kronecker_form.calls": "count",
    "pencil.kronecker_form.s": "s",
    "pencil.kronecker_form.self_s": "s",
    "pencil.kronecker_form.share": "ratio",
    "pencil.kronecker_form.n_exponent_singular": "1",
    "pencil.kronecker_form.n_exponent_regular": "1",
    "pencil.frobenius_form.calls": "count",
    "pencil.frobenius_form.s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.s": "s",
    "linalg.rref.cells": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.inverse.calls": "count",
    "linalg.char_poly.s": "s",
    "linalg.Matrix.new": "count",
    "linalg.Matrix.matmul.calls": "count",
    "field.FieldElem.new": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.main.self_share": "ratio",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.self_sum_frac": "ratio",
    "trace.spans": "count",
}


# -- the package under test ----------------------------------------------------


def load_package():
    """Import gfcanon from this checkout's src/, never from anywhere else."""
    if not (SRC / "gfcanon" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC}/gfcanon")
    sys.path.insert(0, str(SRC))
    import gfcanon
    import gfcanon.cli

    if Path(gfcanon.__file__).resolve().parent != (SRC / "gfcanon").resolve():
        raise SystemExit(f"bench: imported gfcanon from {gfcanon.__file__}, not {SRC}")
    return gfcanon


def warm(gfc, wl):
    for p in wl.pgl_primes:
        gfc.spatial.pgl2_reps(gfc.PrimeField(p))
    for p in wl.catalog_primes:
        gfc.spatial.theorem2_catalog(gfc.PrimeField(p))


_SETUP_CODE = """
import sys, time
sys.path.insert(0, {bench!r})
import speed
kernel = speed.Kernel(*{kernel!r})
before = kernel.best({repeats})
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import gfcanon
import gfcanon.cli
for p in {pgl!r}:
    gfcanon.pgl2_reps(gfcanon.PrimeField(p))
for p in {cat!r}:
    gfcanon.theorem2_catalog(gfcanon.PrimeField(p))
dt = time.perf_counter() - t0
after = kernel.best({repeats})
if not gfcanon.__file__.startswith({src!r}):
    sys.exit("imported gfcanon from " + gfcanon.__file__)
print(dt, before, after)
"""


def measure_setup(wl):
    """Set-up times in fresh interpreters, importing the package and filling
    the per-p caches the workload uses, as (raw seconds, normalized
    seconds).  Each interpreter times the speed kernel right before and
    right after its imports, on its own core, and normalizes by the mean."""
    code = _SETUP_CODE.format(bench=str(HERE), kernel=speed.kernel_data(), repeats=SETUP_PROBES,
                              src=str(SRC), pgl=tuple(wl.pgl_primes), cat=tuple(wl.catalog_primes))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up interpreter failed: {proc.stderr.strip()}")
        dt, before, after = map(float, proc.stdout.split())
        out.append((dt, dt * speed.REFERENCE_S * 2 / (before + after)))
    return out


# -- timing ----------------------------------------------------------------------


def timed_call(wl, op, args):
    """(start, seconds, outcome) of one call."""
    t0 = time.perf_counter()
    try:
        res = wl.invoke(args)
    except Exception as exc:  # recorded as the operation's outcome
        res = exc
    return t0, time.perf_counter() - t0, wl.outcome(op, res)


def run_round(wl, ops, prepared, calls=None, probe=None):
    """Outcomes of one round, in order; each call's (start, seconds) is
    appended to `calls`."""
    outs = []
    for op, args in zip(ops, prepared):
        t0, dur, out = timed_call(wl, op, args)
        outs.append(out)
        if calls is not None:
            calls.append((t0, dur))
        if probe is not None:
            probe.tick()
    return outs


def measure(wl, seed, seconds, probe, golden):
    """Whole rounds 0, 1, ... while the next one is expected to fit in
    `seconds` of running time (always at least one).  Each round is
    prepared and checked off the clock, and dropped once checked, so memory
    does not grow with the number of rounds.  Returns every call's (start,
    seconds), the failures and the number of rounds."""
    calls, bad = [], {}
    spent, k = 0.0, 0
    while True:
        ops, prepared = make_round(wl, seed, k)
        gc.collect()
        probe.tick()
        r0 = time.perf_counter()
        outs = run_round(wl, ops, prepared, calls, probe)
        took = time.perf_counter() - r0
        bad.update(failures(wl, k, ops, outs, golden))
        del ops, prepared, outs
        spent += took
        k += 1
        if spent + took > seconds:
            return calls, bad, k


def percentile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_quantile(n):
    """Highest quantile, at most 0.9, with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n))


# -- correctness -------------------------------------------------------------------


def golden_path(workload):
    return HERE / "golden" / f"{workload}.seed{GOLDEN_SEED}.json"


def evaluate(wl, ops, outs, golden=None):
    """{op index: problems} of the failed operations of one round.  An
    operation fails when an independent check finds a problem or when it
    differs from the golden record."""
    probs = wl.check(ops, outs)
    if golden is not None:
        if len(golden) != len(ops):
            for p in probs:
                p.append("golden record has another number of operations")
        else:
            for i, out in enumerate(outs):
                if wl.golden_view(out) != golden[i]:
                    probs[i].append("outcome differs from the golden record")
    return {i: p for i, p in enumerate(probs) if p}


def load_golden(workload, seed):
    if seed != GOLDEN_SEED:
        return None
    path = golden_path(workload)
    if not path.is_file():
        return []
    return json.loads(path.read_text())


# -- modes ---------------------------------------------------------------------------


def make_round(wl, seed, k):
    """(ops, prepared call arguments) of round k of a seed: the workload's
    fixed plan on inputs drawn afresh for each round."""
    ops = corpus.BUILDERS[wl.name](random.Random(f"{wl.name}:{seed}:{k}"))
    return ops, [wl.prepare(op) for op in ops]


def failures(wl, k, ops, outs, golden):
    """{(k, op index): (op, problems)} of round k; the golden record applies
    to round 0 only."""
    bad = evaluate(wl, ops, outs, golden if k == 0 else None)
    return {(k, i): (ops[i], probs) for i, probs in bad.items()}


def end_to_end(gfc, workload, seed, seconds):
    wl = WORKLOADS[workload](gfc)
    setups = measure_setup(wl)
    probe = speed.SpeedProbe()
    warm(gfc, wl)
    ops, prepared = make_round(wl, seed, "warmup")
    run_round(wl, ops[:WARMUP_OPS], prepared[:WARMUP_OPS])
    del ops, prepared
    calls, bad, n_rounds = measure(wl, seed, seconds, probe, load_golden(workload, seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(calls)
    q = tail_quantile(n)
    lat = sorted(d * probe.factor(t, t + d) for t, d in calls)
    raw = sorted(d for _, d in calls)
    metrics = {
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": percentile(lat, 0.5) * 1e3,
        "latency_p90_ms": percentile(lat, q) * 1e3,
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "samples": n,
        "rounds": n_rounds,
        "tail_percentile": round(100 * q, 1),
        "failed_frac": len(bad) / n,
        "speed_factor": round(sum(lat) / sum(raw), 4),
        "raw_ops_per_s": round(n / sum(raw), 4),
        "raw_p50_ms": round(percentile(raw, 0.5) * 1e3, 3),
        "raw_p90_ms": round(percentile(raw, q) * 1e3, 3),
        "raw_setup_s": round(statistics.median(raw for raw, _ in setups), 4),
    }
    return n, bad, metrics, END_TO_END, notes


def traced(gfc, workload, seed):
    wl = WORKLOADS[workload](gfc)
    ops, prepared = make_round(wl, seed, 0)
    ops_u, prepared_u = make_round(wl, seed, 1)
    rec = spans.Recorder()
    rec.install(gfc)
    try:
        warm(gfc, wl)  # cold cache fills, recorded as set-up spans
    finally:
        rec.uninstall()
    setup_end = len(rec.start)

    # round 0 runs traced and round 1 untraced, operation by operation, so a
    # drift of machine speed hits both alike; which of the two calls goes
    # first alternates, so neither always finds the caches warm
    outs, outs_u = [], []
    wall0 = wall1 = 0.0
    rec.counts.clear()
    gc.collect()
    for i in range(len(ops)):
        for traced_pass in ((True, False) if i % 2 else (False, True)):
            if traced_pass:
                rec.current_op = i
                rec.install(gfc)
                try:
                    _, d1, out = timed_call(wl, ops[i], prepared[i])
                finally:
                    rec.uninstall()
                wall1 += d1
                outs.append(out)
            else:
                _, d0, out = timed_call(wl, ops_u[i], prepared_u[i])
                wall0 += d0
                outs_u.append(out)
    bad = failures(wl, 0, ops, outs, load_golden(workload, seed))
    bad.update(failures(wl, 1, ops_u, outs_u, None))
    exps = sweep.run(gfc, seed)
    layer = rec.summarize(setup_end)
    cold = rec.summarize(0, setup_end)
    c = rec.counts

    def s(name, key="s"):
        return layer.get(name, {}).get(key, 0)

    mt_calls = s("poly.mobius_transform", "calls")
    inadm = c["poly.mobius_transform.raised.InadmissibleTransformError"]
    self_sum = sum(row["self_s"] for row in layer.values())
    metrics = {
        "spatial.mobius_orbit_minimize.s": s("spatial.mobius_orbit_minimize"),
        "spatial.mobius_orbit_minimize.calls": s("spatial.mobius_orbit_minimize", "calls"),
        "spatial.mobius_orbit_minimize.share": s("spatial.mobius_orbit_minimize") / wall1,
        "spatial.theorem1_form.s": s("spatial.theorem1_form"),
        "spatial.theorem1_form.self_s": s("spatial.theorem1_form", "self_s"),
        "spatial.theorem1_form.share": s("spatial.theorem1_form") / wall1,
        "spatial.canonical_label.self_s": s("spatial.canonical_label", "self_s"),
        "spatial.regular_part.s": s("spatial.regular_part"),
        "spatial.regular_part.calls": s("spatial.regular_part", "calls"),
        "spatial.regular_part.share": s("spatial.regular_part") / wall1,
        "spatial.equivalent.self_s": s("spatial.equivalent", "self_s"),
        "spatial.apply_transform.s": s("spatial.apply_transform"),
        "spatial.apply_transform.calls": s("spatial.apply_transform", "calls"),
        "spatial.apply_transform.share": s("spatial.apply_transform") / wall1,
        "spatial.pgl2_reps.s": cold.get("spatial.pgl2_reps", {}).get("s", 0),
        "spatial.theorem2_catalog.s": cold.get("spatial.theorem2_catalog", {}).get("s", 0),
        "poly.mobius_transform.calls": mt_calls,
        "poly.mobius_transform.s": s("poly.mobius_transform"),
        "poly.mobius_transform.inadmissible": inadm,
        "poly.mobius_transform.admissible_ratio": (mt_calls - inadm) / mt_calls if mt_calls else 0,
        "poly.factor_prime_powers.calls": s("poly.factor_prime_powers", "calls"),
        "poly.factor_prime_powers.s": s("poly.factor_prime_powers"),
        "poly.Poly.new": c["poly.Poly.new"],
        "pencil.kronecker_form.calls": s("pencil.kronecker_form", "calls"),
        "pencil.kronecker_form.s": s("pencil.kronecker_form"),
        "pencil.kronecker_form.self_s": s("pencil.kronecker_form", "self_s"),
        "pencil.kronecker_form.share": s("pencil.kronecker_form") / wall1,
        "pencil.frobenius_form.calls": s("pencil.frobenius_form", "calls"),
        "pencil.frobenius_form.s": s("pencil.frobenius_form"),
        "linalg.rref.calls": s("linalg.rref", "calls"),
        "linalg.rref.s": s("linalg.rref"),
        "linalg.rref.cells": c["linalg.rref.cells"],
        "linalg.kernel_basis.calls": s("linalg.kernel_basis", "calls"),
        "linalg.inverse.calls": s("linalg.inverse", "calls"),
        "linalg.char_poly.s": s("linalg.char_poly"),
        "linalg.Matrix.new": c["linalg.Matrix.new"],
        "linalg.Matrix.matmul.calls": c["linalg.Matrix.matmul.calls"],
        "field.FieldElem.new": c["field.FieldElem.new"],
        "cli.main.s": s("cli.main"),
        "cli.main.self_s": s("cli.main", "self_s"),
        "cli.main.self_share": s("cli.main", "self_s") / wall1,
        "cli.bytes_in": sum(o.get("bytes_in", 0) for o in outs),
        "cli.bytes_out": sum(o.get("bytes_out", 0) for o in outs),
        "trace.overhead_frac": wall1 / wall0 - 1,
        "trace.wall_s": wall1,
        "trace.untraced_wall_s": wall0,
        "trace.self_sum_frac": self_sum / wall1,
        "trace.spans": len(rec.start) - setup_end,
    }
    metrics.update(exps)
    n = 2 * len(ops)
    notes = {"samples": len(ops), "failed_frac": len(bad) / n}
    return n, bad, metrics, PER_LAYER, notes


def write_golden(gfc, workload):
    wl = WORKLOADS[workload](gfc)
    ops, prepared = make_round(wl, GOLDEN_SEED, 0)
    warm(gfc, wl)
    outs = run_round(wl, ops, prepared)
    bad = evaluate(wl, ops, outs)
    if bad:
        for i, probs in sorted(bad.items()):
            print(f"op {i} ({ops[i]['kind']}): {'; '.join(probs)}", file=sys.stderr)
        raise SystemExit("bench: checks failed; golden record not written")
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(wl.golden_view(o)) for o in outs)
    path.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(ops)} operations)", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record the golden outcomes of seed {GOLDEN_SEED} and exit")
    args = ap.parse_args(argv)
    gfc = load_package()
    if args.write_golden:
        write_golden(gfc, args.workload)
        return 0
    if args.trace:
        attempted, bad, metrics, units, notes = traced(gfc, args.workload, args.seed)
    else:
        attempted, bad, metrics, units, notes = end_to_end(gfc, args.workload, args.seed,
                                                           args.seconds)
    failed = len(bad)
    for (k, i), (op, probs) in sorted(bad.items()):
        print(f"FAILED round {k} op {i} ({op['kind']}): {'; '.join(probs)}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()), file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:45s} {metrics[name]:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
