"""Span tracer that wraps deskrl's public functions from outside the program.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each
named function with a timing wrapper in every loaded ``deskrl`` module
that holds a reference to it, so names imported with ``from .x import f``
(``ppo``/``bc`` binding ``save_checkpoint``, ``twostage`` binding
``load_checkpoint``, ``policy`` binding ``encode``, ...) are wrapped too.
``uninstall`` puts the originals back.

Each call pushes a frame on a span stack.  When it returns, its duration
goes to its own totals and to its parent frame's child time, so a span's
self time is its duration minus the time its traced children covered.
Everything stays in memory until ``report`` is called.

Durations are read from a ``refclock.RefClock``, and every wrapped call
first lets that clock recalibrate (``tick``), so the calibration slices
land between program calls and are never timed as part of one.  The
spans in ``BATCH_SPANS`` switch the clock to its batched-work rate while
they run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys

# span name -> (module, attribute); "method" spans wrap the attribute on
# every class of the module that defines it
SPANS = {
    "envs.step": ("envs", "step", "method"),
    "envs.reset": ("envs", "reset", "method"),
    "envs.expert_action": ("envs", "expert_action", "method"),
    "envs.generate_demos": ("envs", "generate_demos", "function"),
    "controllers.pd_ee_delta_pose": ("controllers", "pd_ee_delta_pose", "function"),
    "controllers.pd_joint_delta_pos": ("controllers", "pd_joint_delta_pos", "function"),
    "pointnet.encode": ("pointnet", "encode", "function"),
    "pointnet.encode_batch_trace": ("pointnet", "encode_batch_trace", "function"),
    "pointnet.encode_batch_backward": ("pointnet", "encode_batch_backward", "function"),
    "nn.forward": ("nn", "forward", "function"),
    "nn.adam_step": ("nn", "adam_step", "function"),
    "policy.sample_action": ("policy", "sample_action", "function"),
    "policy.mean_action": ("policy", "mean_action", "function"),
    "policy.evaluate_policy": ("policy", "evaluate_policy", "function"),
    "ppo.collect_rollout": ("ppo", "collect_rollout", "function"),
    "ppo.compute_gae": ("ppo", "compute_gae", "function"),
    "ppo.ppo_update": ("ppo", "ppo_update", "function"),
    "bc.bc_loss": ("bc", "bc_loss", "function"),
    "bc.stream_indices": ("bc", "stream_indices", "function"),
    "rng.make_generator": ("rng", "make_generator", "function"),
    "persistence.save_checkpoint": ("persistence", "save_checkpoint", "function"),
    "persistence.load_checkpoint": ("persistence", "load_checkpoint", "function"),
    "persistence.append_metrics": ("persistence", "append_metrics", "function"),
    "persistence.save_demos": ("persistence", "save_demos", "function"),
    "persistence.load_demos": ("persistence", "load_demos", "function"),
    "twostage.run_stage_one": ("twostage", "run_stage_one", "function"),
    "config.resolve_config": ("config", "resolve_config", "function"),
}

# spans that reach 1000 calls in one full-size job of some workload; only
# these get a p99, which then has at least ten calls beyond it
P99_SPANS = (
    "envs.step",
    "controllers.pd_ee_delta_pose",
    "controllers.pd_joint_delta_pos",
    "pointnet.encode",
    "nn.forward",
    "policy.sample_action",
    "policy.mean_action",
)
P99_MIN_CALLS = 1000

# the update phases: batched encoder passes over whole minibatches; the
# reference clock runs at its batched-work rate inside them
BATCH_SPANS = ("ppo.ppo_update", "bc.bc_loss", "nn.adam_step")

# the untraced runs time only these, so the end-to-end numbers carry almost
# no tracing cost: envs.step is the one span called per step, and it is
# there only to count the steps taken inside evaluation and demo generation;
# the update spans switch the reference clock's rate, and they and
# envs.step give it its chances to recalibrate in every phase of a job
COARSE_SPANS = {
    "envs.step": SPANS["envs.step"],
    "ppo.ppo_update": SPANS["ppo.ppo_update"],
    "bc.bc_loss": SPANS["bc.bc_loss"],
    "nn.adam_step": SPANS["nn.adam_step"],
    "envs.generate_demos": SPANS["envs.generate_demos"],
    "policy.evaluate_policy": SPANS["policy.evaluate_policy"],
    "ppo.train_ppo": ("ppo", "train_ppo", "function"),
    "bc.train_bc": ("bc", "train_bc", "function"),
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    """Wraps the given spans while installed; use as a context manager.

    With ``detail`` on it also digests the parameter vector at each
    ``evaluate_policy`` entry and times each PPO iteration from
    ``collect_rollout`` entry to ``ppo_update`` exit.
    """

    def __init__(self, spans: dict, detail: bool, clock):
        self.spans = spans
        self.detail = detail
        self.clock = clock
        self.stats = {name: SpanStats() for name in spans}
        self.edges = {}  # (parent span or None, span) -> [calls, seconds]
        self.eval_keys = []  # (parameter digest, split) per evaluate_policy call
        self.iterations = []  # seconds per PPO iteration
        self._stack = []
        self._iter_start = None
        self._patched = []  # (owner, attribute, original)

    # -- hooks run outside the span's own timing ---------------------------
    def _enter(self, name, args, kwargs):
        if name == "policy.evaluate_policy":
            store = args[0] if args else kwargs["store"]
            env_cfg = args[2] if len(args) > 2 else kwargs["env_cfg"]
            digest = hashlib.sha256(store.flat.tobytes()).hexdigest()
            self.eval_keys.append((digest, env_cfg.split))
        elif name == "ppo.collect_rollout":
            self._iter_start = self.clock.now()

    def _leave(self, name):
        if name == "ppo.ppo_update" and self._iter_start is not None:
            self.iterations.append(self.clock.now() - self._iter_start)
            self._iter_start = None

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        clock, tick, use = self.clock.now, self.clock.tick, self.clock.use
        batch = name in BATCH_SPANS
        hooked = self.detail and name in (
            "policy.evaluate_policy", "ppo.collect_rollout", "ppo.ppo_update"
        )
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tick()
            if hooked:
                enter(name, args, kwargs)
            frame = [0.0, name]  # child seconds, span name
            stack.append(frame)
            if batch:
                kind = use("batch")
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if batch:
                    use(kind)
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                stats.durations.append(elapsed)
                parent = None
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                edge = edges.get((parent, name))
                if edge is None:
                    edges[(parent, name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if hooked:
                    leave(name)

        return span

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "deskrl" or n.startswith("deskrl.")]
        for name, (module, attr, kind) in self.spans.items():
            home = sys.modules[f"deskrl.{module}"]
            if kind == "method":
                for cls in vars(home).values():
                    if inspect.isclass(cls) and cls.__module__ == home.__name__ and attr in vars(cls):
                        self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------
    def edge(self, parent, span) -> tuple[int, float]:
        """(calls, seconds) of ``span`` called directly from ``parent``."""
        calls, seconds = self.edges.get((parent, span), (0, 0.0))
        return calls, seconds

    def top_level_seconds(self) -> float:
        return sum(sec for (parent, _), (_, sec) in self.edges.items() if parent is None)

    def report(self) -> dict:
        """Plain-data view: per span calls, seconds and per-call durations."""
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "durations": s.durations,
                }
                for name, s in self.stats.items()
            },
            "edges": [
                {"parent": parent, "span": span, "calls": calls, "seconds": sec}
                for (parent, span), (calls, sec) in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
            "top_level_s": self.top_level_seconds(),
            "eval_keys": self.eval_keys,
            "iterations": self.iterations,
        }
