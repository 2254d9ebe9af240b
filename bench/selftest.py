"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

Runs a few label-census operations, then corrupts one label, one witness
and one golden entry and requires each to be counted as a failed
operation, while the untouched outcomes pass.  Also requires the metric
tables in run.py to match BENCHMARK.json.  Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run


def _corrupt_label(out, p):
    lab = out["label"]
    if lab["finite"]:
        lab["finite"][0][0] = (lab["finite"][0][0] + 1) % p
    else:
        lab["right"].append(2)


def _corrupt_witness(out, p):
    r = out["witness"]["R"]
    r[0][0] = (r[0][0] + 1) % p


def check_corruptions(gfc):
    wl = run.WORKLOADS["label-census"](gfc)
    ops, prepared = run.make_round(wl, run.GOLDEN_SEED, 0)
    run.warm(gfc, wl)
    pick = [i for i, op in enumerate(ops) if op["p"] in (3, 5) and not op["refuse"]][:3]
    sub_ops = [ops[i] for i in pick]
    outs = run.run_round(wl, sub_ops, [prepared[i] for i in pick])
    golden = json.loads(run.golden_path(wl.name).read_text())
    sub_golden = [golden[i] for i in pick]

    problems = []
    bad = run.evaluate(wl, sub_ops, outs, sub_golden)
    if bad:
        problems.append(f"clean outcomes counted as failures: {bad}")

    for what, corrupt in (("label", _corrupt_label), ("witness", _corrupt_witness)):
        bent = copy.deepcopy(outs)
        corrupt(bent[0], sub_ops[0]["p"])
        bad = run.evaluate(wl, sub_ops, bent)
        if set(bad) != {0}:
            problems.append(f"corrupted {what} not counted as one failed operation: {bad}")

    bent_golden = copy.deepcopy(sub_golden)
    bent_golden[1]["left"] = bent_golden[1]["left"] + [3]
    bad = run.evaluate(wl, sub_ops, outs, bent_golden)
    if set(bad) != {1}:
        problems.append(f"golden mismatch not counted as one failed operation: {bad}")
    return problems


def check_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    return problems


def main():
    gfc = run.load_package()
    problems = check_corruptions(gfc) + check_metric_tables()
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
