"""deskrl benchmark: three training workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--all`` runs every workload in both modes and prints
every metric by name with its unit, plus ``ops_failed_frac``.
``--smoke`` does the same at tiny sizes and checks that each workload
reports exactly the metrics ``BENCHMARK.json`` declares; it is the
benchmark's own test.

Workload processes run one at a time, each single-threaded (the worker
sets the BLAS thread variables to 1 before it imports numpy) and with
fixed glibc malloc thresholds.  Times are read from a reference-speed
clock (``refclock.py``).  Set-up time is the median over several fresh
processes.  Scratch output lives under ``.perfbench/`` in the checkout
and is removed after each job; trace files and ``--all`` summaries stay
there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import metrics  # noqa: E402  (stdlib only, like this file)

WORKLOADS = ("ppo_reach", "bc_gather", "grid_pushbox")
SETUP_PROBES = 5  # fresh processes timed for set-up, besides the measuring one
RUN_LIMIT_S = 170.0  # a run must end within 180 s, set-up included
# glibc's malloc moves its mmap threshold up as large blocks are freed, so
# how fast the program allocates depended on the sizes it had freed before:
# in fresh processes the BC update ran 1.5x slower on some seeds than on
# others.  Fixed thresholds take that history out of every workload process.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(64 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, **MALLOC_ENV},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process passed the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One run: set-up probes (untraced only), then the measuring process."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "deskrl", "__init__.py")):
        raise BenchError(f"no deskrl sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--work-dir", work_dir]
    setups = []
    if not trace:
        setups = [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    out = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    values = out["metrics"]
    if not trace:
        values["setup_s"]["value"] = statistics.median([*setups, out["setup_s"]])

    jobs = out["jobs"]
    reference = jobs[0]["digest"]
    attempted = sum(j["legs"] for j in jobs)
    failed = 0
    problems = []
    for i, j in enumerate(jobs):
        bad = j["failed"]
        if j["digest"] != reference:
            problems.append(f"job {i} digest {j['digest']} differs from job 0 {reference}")
            bad = j["legs"]
        failed += bad
        problems += [f"job {i}: {p}" for p in j["problems"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "record": {**out["record"], "setup_samples_s": setups + [out["setup_s"]]},
        "job_raw_walls_s": [j["raw_wall_s"] for j in jobs],
        "job_ref_factors": [j["ref_factor"] for j in jobs],
        "digest": reference,
        "jobs": len(jobs),
        "job_walls_s": [j["wall_s"] for j in jobs],
        "job_cpu_s": [j["cpu_s"] for j in jobs],
        "problems": problems,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": values,
        },
    }


def _print_run(run: dict) -> None:
    res = run["result"]
    print(f"perfbench {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"{run['jobs']} jobs, {res['failed']} of {res['attempted']} legs failed, "
          f"ops_failed_frac {res['failed'] / res['attempted']:.4f}")
    print(f"record: {json.dumps(run['record'])}")
    print(f"jobs: wall_s {json.dumps(run['job_walls_s'])} raw_wall_s {json.dumps(run['job_raw_walls_s'])} "
          f"cpu_s {json.dumps(run['job_cpu_s'])} ref_factor {json.dumps(run['job_ref_factors'])}")
    print(f"digest {run['workload']} seed {run['seed']}: {run['digest']}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, size: str) -> list[dict]:
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(workload, seed, seconds, trace, size)
            _print_run(run)
            runs.append(run)
    _print_table(runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"summary-{size}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print(f"summary: {os.path.relpath(path, ROOT)}")
    return runs


def _print_table(runs: list[dict]) -> None:
    """Every end-to-end metric, plus ops_failed_frac, by workload."""
    plain = {r["workload"]: r["result"] for r in runs if not r["trace"]}
    print(f"\n{'metric':24s} {'unit':6s}" + "".join(f"{w:>16s}" for w in plain))
    for name, (unit, _) in metrics.END_TO_END.items():
        cells = "".join(f"{plain[w]['metrics'][name]['value']:>16.6g}" for w in plain)
        print(f"{name:24s} {unit:6s}{cells}")
    fracs = {}
    for r in runs:
        acc = fracs.setdefault(r["workload"], [0, 0])
        acc[0] += r["result"]["failed"]
        acc[1] += r["result"]["attempted"]
    cells = "".join(f"{fracs[w][0] / fracs[w][1]:>16.6g}" for w in plain)
    print(f"{'ops_failed_frac':24s} {'ratio':6s}{cells}")


def smoke() -> bool:
    """Tiny sizes, every workload, both modes: each run must be correct and
    report exactly the declared metrics, each a finite number with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for run in run_all(seed=0, seconds=0.0, size="smoke"):
        res = run["result"]
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        label = f"{run['workload']} trace {run['trace']}"
        if got != declared[run["trace"]]:
            missing = sorted(set(declared[run["trace"]]) - set(got))
            extra = sorted(set(got) - set(declared[run["trace"]]))
            units = sorted(n for n in got if n in declared[run["trace"]] and got[n] != declared[run["trace"]][n])
            print(f"smoke FAIL {label}: missing {missing} extra {extra} unit mismatch {units}")
            ok = False
        bad = [n for n, m in res["metrics"].items() if not math.isfinite(m["value"])]
        if bad or not res["correct"]:
            print(f"smoke FAIL {label}: correct={res['correct']} non-finite {bad} problems {run['problems']}")
            ok = False
    print("smoke OK" if ok else "smoke FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, both modes, with a table")
    mode.add_argument("--smoke", action="store_true", help="tiny sizes; check every declared metric")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=38.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.all:
            runs = run_all(args.seed, args.seconds, "full")
            return 0 if all(r["result"]["correct"] for r in runs) else 1
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_run(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
