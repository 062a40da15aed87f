"""Steadiness check and baseline: each workload on several seeds.

    python3 perfbench/prove.py [--seeds 10] [--seconds 38] [--workloads a,b]
                               [--write-baseline]

Runs ``run.py --workload W --seed N --trace 0`` for seeds 0..N-1, one
process at a time, then one ``--trace 1`` run at seed 0.  For every
end-to-end metric it prints the median over the seeds and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--write-baseline`` stores
the figures, each seed's value, the digests and the traced run in
``perfbench/baseline.json``, so a later change can pair its runs with
these seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith(f"digest {workload} "))
    record = json.loads(next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("record: ")))
    return {"result": json.loads(lines[-1]), "digest": digest, "record": record}


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seeds))

    baseline = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        start = time.monotonic()
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        per_run_s = (time.monotonic() - start) / len(seeds)
        traced = _run(workload, 0, seconds, 1)
        entry = {
            "seeds": seeds,
            "attempted_legs": sum(r["result"]["attempted"] for r in runs),
            "failed_legs": sum(r["result"]["failed"] for r in runs),
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "end_to_end": {},
            "per_layer_seed0": {k: round(v["value"], 6) for k, v in traced["result"]["metrics"].items()},
        }
        print(f"{workload}: {per_run_s:.1f} s per run, {entry['failed_legs']} of {entry['attempted_legs']} legs failed")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = _spread(values)
            unit = runs[0]["result"]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                                         "spread": round(spread, 6), "unit": unit,
                                         "values": [round(v, 6) for v in values]}
            ok = name == "setup_s" or spread < bound
            steady &= ok
            print(f"  {name:22s} {median:>12.5g} {unit:4s} spread {spread:.3f} (bound {bound}){'' if ok else '  TOO WIDE'}")
        baseline["workloads"][workload] = entry
        baseline["machine"] = {k: runs[0]["record"][k] for k in ("nproc", "cpu", "python", "numpy", "blas", "threads")}
    if args.write_baseline:
        # workloads not run this time keep their stored figures
        path = os.path.join(HERE, "baseline.json")
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        baseline["workloads"] = {**old.get("workloads", {}), **baseline["workloads"]}
        baseline = {"commit": old.get("commit"), **baseline}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
