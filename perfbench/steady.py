"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 --out first.json
    python3 perfbench/steady.py --runs 10 --compare first.json

Each run is ``run.py --trace 0`` in its own process with its own seed
(``--first-seed``, then the next ones), for BENCHMARK.json's
``run_seconds``.  For every workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over the median) and the metric's bound, and marks a
spread that is not below a third of its bound.  ``setup_s`` is exempt from
the spread rule.  With ``--compare`` it also prints how far each median
moved, in the worse direction, against an earlier ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if metric["better"] == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="save every run's values here")
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args()

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    values: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        values[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            values[workload].append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {values[workload][-1]}", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))

    steady = True
    header = f"{'workload':10} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    print(header + ("  median moved" if earlier else ""))
    for workload, runs in values.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = [r[name] for r in runs]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread >= metric["bound"] / 3:
                flag = "  UNSTEADY"
                steady = False
            line = (
                f"{workload:10} {name:14} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                f"{spread:7.3f} {metric['bound']:6.2f}"
            )
            if workload in earlier:
                before = statistics.median(r[name] for r in earlier[workload])
                moved = worse_by(metric, before, median)
                line += f"  {moved:+.3f}"
                if moved > metric["bound"]:
                    flag += "  WORSE"
                    steady = False
            print(line + flag)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
