"""Print every end-to-end metric of every workload, with units.

    python3 bench/report.py [--seed N]

Runs bench/run.py end to end for SECONDS seconds once per workload, in a
fresh interpreter each, and prints one table: the result metrics plus the sample count and the
failed fraction (failed operations over attempted ones).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = 36


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary = next(line for line in proc.stderr.splitlines() if line.startswith(name))
        print(summary)
        print(f"  {'attempted':45s} {res['attempted']} ops")
        print(f"  {'failed_frac':45s} {res['failed'] / res['attempted']:.6g} ratio")
        for metric, v in res["metrics"].items():
            print(f"  {metric:45s} {v['value']:.6g} {v['unit']}")
        if not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
