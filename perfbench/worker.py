"""One workload process: set up, run jobs until the time is spent, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --work-dir DIR [--size full|smoke] [--setup-only]

``run.py`` starts this; it is not meant to be called by hand.  The BLAS
thread variables are pinned to 1 here, before numpy is imported, and
``deskrl`` is imported from the ``src`` directory of the checkout this
file sits in, never from an installed copy.  Set-up (imports, config
resolution, warm-up) is timed from the first line of this file and scaled
to the reference speed (``refclock.py``); jobs are timed on a
``refclock.RefClock``.

A run first runs one unmeasured smoke-size job, then repeats one job
(the workload's command lines on the same seed) until starting another
would pass ``--seconds``.  Every measured job must write outputs with the
same digest.  With ``--trace 1`` jobs alternate between
coarse timing and full tracing, starting with coarse, so the same run
gives the tracing overhead.  The last line of stdout is one JSON object
for ``run.py``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SLICES = 9  # calibration slices that scale the set-up time


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "deskrl", "__init__.py")):
        sys.exit(f"perfbench: no deskrl sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import deskrl

    if os.path.dirname(os.path.abspath(deskrl.__file__)) != os.path.join(SRC, "deskrl"):
        sys.exit(f"perfbench: deskrl was imported from {deskrl.__file__}, not {SRC}")
    import deskrl.cli  # noqa: F401  (loads every deskrl module the tracer patches)


def _warm_up(workload: str, size: str, seed: int) -> None:
    """Resolve the workload's config and push one step through the env and
    the single and batched encoders, so lazy set-up is not timed."""
    from deskrl import config, envs, nn, pointnet, policy
    from deskrl.rng import make_generator

    import workloads

    resolved = config.resolve_config(None, workloads.overrides(workload, size, seed))
    env_cfg = config.env_config(resolved)
    spec = policy.build_policy_spec(env_cfg.task)
    store = nn.ParamStore()
    policy.init_policy(store, spec, make_generator(seed, "perfbench", "warm-up"))
    env = envs.make_env(env_cfg)
    obs = env.reset(seed)
    env.step(policy.mean_action(store, spec, obs))
    pointnet.encode_batch(store, spec.encoder, obs.points[None], obs.proprio[None])


def _run_record() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy before 1.25 has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": {v: os.environ.get(v) for v in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
        "loadavg_start": list(os.getloadavg()),
    }


def _run_job(workload: str, size: str, seed: int, job_dir: str, traced: bool, clock) -> dict:
    from deskrl import cli

    import refclock
    import tracer
    import workloads

    problems = []
    with tracer.Tracer(tracer.SPANS if traced else tracer.COARSE_SPANS, detail=traced, clock=clock) as tr:
        start, raw_start, cpu_start = clock.now(), time.perf_counter(), time.process_time()
        first_sample = len(clock.samples["step"])
        for argv in workloads.commands(workload, size, seed, job_dir):
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception:  # a crash fails the job's legs; the run goes on
                problems.append(f"deskrl {argv[0]} raised:\n{traceback.format_exc()}")
                break
            if code != 0:
                problems.append(f"deskrl {argv[0]} exited {code}: {err.getvalue().strip()}")
                break
        wall = clock.now() - start
        raw = time.perf_counter() - raw_start
        cpu = time.process_time() - cpu_start
        speed = {kind: samples[first_sample:] for kind, samples in clock.samples.items()}
    outcome = workloads.check(workload, size, seed, job_dir)
    legs = workloads.legs(workload, size)
    report = tr.report()
    eval_steps, _ = tr.edge("policy.evaluate_policy", "envs.step")
    demo_steps, _ = tr.edge("envs.generate_demos", "envs.step")
    job = {
        "traced": traced,
        "wall_s": wall,
        "raw_wall_s": raw,
        "cpu_s": cpu,
        # reference seconds per wall second over the job, per kind of work
        "ref_factor": {kind: round(refclock.reference_factor(s, kind), 4) for kind, s in speed.items() if s},
        "legs": legs,
        "failed": legs if problems else outcome["failed"],
        "problems": problems + outcome["problems"],
        "digest": outcome["digest"],
        "transitions": outcome["transitions"],
        "trainer_samples": outcome["trainer_samples"],
        "rows": outcome["rows"],
        "nan_rows": outcome["nan_rows"],
        "horizon": workloads.horizon(workload),
        "eval_steps": eval_steps,
        "eval_s": report["spans"]["policy.evaluate_policy"]["total_s"],
        "demo_steps": demo_steps,
        "demo_s": report["spans"]["envs.generate_demos"]["total_s"],
    }
    if traced:
        job["trace"] = report
    else:
        # training time without the evaluations the trainers run, whose
        # length depends on how often the seed's policy succeeds early
        trainers = ("ppo.train_ppo", "bc.train_bc")
        job["trainer_s"] = sum(report["spans"][k]["total_s"] - tr.edge(k, "policy.evaluate_policy")[1]
                               for k in trainers)
    return job


def _write_trace(path: str, jobs: list[dict]) -> None:
    """Per traced job: span totals and the parent -> child edges."""
    out = []
    for j in jobs:
        if j["traced"]:
            t = j["trace"]
            spans = {k: {f: v[f] for f in ("calls", "total_s", "self_s")} for k, v in t["spans"].items()}
            out.append({"wall_s": j["wall_s"], "top_level_s": t["top_level_s"],
                        "spans": spans, "edges": t["edges"], "iterations": t["iterations"]})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_program()
    _warm_up(args.workload, args.size, args.seed)
    setup_wall_s = time.perf_counter() - _T0
    import refclock

    # set-up is timed on the wall clock, then scaled to the reference speed
    # by per-step slices run right after it
    setup_s = setup_wall_s * refclock.reference_factor(
        [refclock.calibration_slice() for _ in range(SETUP_SLICES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import metrics

    record = _run_record()
    jobs = []
    min_jobs = 2 if args.trace else 1
    try:
        # one unmeasured smoke-size job first: the first pass through the
        # program pays for allocator growth and first calls, later jobs do not
        clock = refclock.RefClock()
        _run_job(args.workload, "smoke", args.seed, os.path.join(args.work_dir, "prime"), False, clock)
        start = time.perf_counter()
        while True:
            job_dir = os.path.join(args.work_dir, f"job{len(jobs)}")
            traced = bool(args.trace) and len(jobs) % 2 == 1
            jobs.append(_run_job(args.workload, args.size, args.seed, job_dir, traced, clock))
            shutil.rmtree(job_dir, ignore_errors=True)
            elapsed = time.perf_counter() - start
            typical = statistics.median(j["raw_wall_s"] for j in jobs)
            if len(jobs) >= min_jobs and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        values = metrics.per_layer(jobs)
        trace_file = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        _write_trace(trace_file, jobs)
        record["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        values = metrics.end_to_end(jobs, peak_rss_mb, setup_s)
    print(json.dumps({
        "setup_s": setup_s,
        "record": record,
        "jobs": [{k: j[k] for k in ("traced", "wall_s", "raw_wall_s", "cpu_s", "ref_factor", "legs", "failed",
                                    "problems", "digest")} for j in jobs],
        "metrics": values,
    }))


if __name__ == "__main__":
    main()
