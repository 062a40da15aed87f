"""The lane driver: the only caller of reset and step, and its tick rows.

envs.run_lanes holds the one rule for resets, episode ends and step
budgets (see the envs docstring); PPO rollouts, evaluation and demo
generation hand it their lanes.  A `.reset(` or `.step(` call anywhere
else in the package would be a loop with rules of its own.  No other
object in the package has a method of either name, so the walk flags
every call of an attribute so named, with the function it sits in.

Each tick the driver hands out its lanes' rows in arrays built for all
of them at once; every row must equal that lane run alone, bit for bit.
"""

import ast
import os

import numpy as np
import pytest

import probes
from deskrl import envs
from deskrl.rng import make_generator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "deskrl")

DRIVER = "envs.run_lanes"


def _env_calls() -> list[tuple[str, str]]:
    """(enclosing function or class, qualified by module; method name) of
    each `.reset(` and `.step(` call in src/deskrl."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in ("reset", "step"):
                    found.append((scope, child.func.attr))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), name[: -len(".py")])
    return found


def test_only_the_driver_resets_or_steps_an_environment():
    calls = _env_calls()
    outside = sorted({f"{scope} calls .{method}(" for scope, method in calls if scope != DRIVER})
    assert not outside, outside
    assert {method for scope, method in calls if scope == DRIVER} == {"reset", "step"}


# -- the tick rows ------------------------------------------------------------

# per task, success thresholds under which some short episodes end early
# (as in test_policy's staggered panels), so lanes end and reset on
# different ticks, by success as well as at their horizons
_WIDE_SUCCESS = {
    "reach2d": {"tolerance": 0.4},
    "pushbox2d": {"tolerance": 0.4},
    "gather2d": {"target_radius": 1.0, "success_fraction": 0.25},
}


def _lane_specs(task, K):
    """Per lane: its config (split and horizon vary), its episode seeds
    (one to three, so some lanes leave when their seeds run out) and its
    budget (so others leave mid-episode)."""
    specs = []
    for k in range(K):
        cfg = envs.make_config(task, envs.SPLITS[k % 2], seed=k % 3, horizon=2 + k % 5)
        specs.append((cfg, [100 * k + j for j in range(1 + k % 3)], 3 + (5 * k) % 13))
    return specs


def _action(env, proprio, gen):
    """A lane's action: the expert's on about half the ticks, else the
    proprio's entries 4 and 5 halved plus noise, clamped to the box; row
    by row, so the lockstep and the lone run compute it alike."""
    if gen.uniform() < 0.5:
        return env.expert_action()
    return np.clip(0.5 * proprio[4:6] + gen.uniform(-0.5, 0.5, size=2), -1.0, 1.0)


def _alone(cfg, seeds, budget, gen):
    """One lane stepped by hand: per transition, the observation's bytes,
    the action's, the reward, the done and success flags and the next
    observation's bytes, each observation built on this lane alone."""
    env = envs.make_env(cfg)
    seeds = iter(seeds)
    obs = env.reset(next(seeds))
    rows = []
    for _ in range(budget):
        action = _action(env, obs.proprio, gen)
        res = env.step(action)
        after = env.observe()
        rows.append((_bits(obs), action.tobytes(), res.reward, res.done, res.success, _bits(after)))
        if res.done:
            seed = next(seeds, None)
            if seed is None:
                break
            after = env.reset(seed)
        obs = after
    return rows


def _bits(obs):
    return obs.points.tobytes(), obs.proprio.tobytes()


def _tick_bits(tick):
    return [a.tobytes() for a in tick]


@pytest.mark.parametrize("K", [1, 3, 16, 20])
@pytest.mark.parametrize("task", [*envs.TASKS, "probe"])
def test_tick_rows_equal_each_lane_run_alone(task, K, monkeypatch):
    # every row run_lanes hands out (observation, action, reward, flags,
    # next observation) equals that lane's own transition, its
    # observations built alone; the lanes end episodes, reset and leave on
    # different ticks; no array of a tick changes after it is yielded.
    # The probe is reach2d with the step index as the proprio's first
    # entry (probes.SecondStepReward), which must reach the tick arrays
    probe = task == "probe"
    if probe:
        monkeypatch.setitem(envs._ENV_CLASSES, "reach2d", probes.SecondStepReward)
        task = "reach2d"
    for attr, value in _WIDE_SUCCESS[task].items():
        monkeypatch.setattr(envs._ENV_CLASSES[task], attr, value)
    specs = _lane_specs(task, K)
    lanes = [envs.Lane(envs.make_env(cfg), iter(seeds), budget) for cfg, seeds, budget in specs]
    gens = [make_generator(11, "tick rows", k) for k in range(K)]

    def act(live, points, proprios):
        assert points.shape == (len(live), envs.N_POINTS, 5) and proprios.shape[0] == len(live)
        return [_action(lanes[k].env, proprios[i], gens[k]) for i, k in enumerate(live.tolist())]

    got = [[] for _ in range(K)]
    kept = []
    for tick in envs.run_lanes(lanes, act):
        kept.append((tick, _tick_bits(tick)))
        assert np.all(np.diff(tick.lanes) > 0)
        for i, k in enumerate(tick.lanes.tolist()):
            got[k].append((
                (tick.points[i].tobytes(), tick.proprios[i].tobytes()),
                tick.actions[i].tobytes(),
                tick.rewards[i].item(),
                tick.dones[i].item(),
                tick.successes[i].item(),
                (tick.next_points[i].tobytes(), tick.next_proprios[i].tobytes()),
            ))
    for k, (cfg, seeds, budget) in enumerate(specs):
        assert got[k] == _alone(cfg, seeds, budget, make_generator(11, "tick rows", k)), k
    for tick, bits in kept:
        assert _tick_bits(tick) == bits
    if probe:
        # the step index within the episode, before and after each step
        for lane in got:
            t = 0
            for (obs, _, _, done, _, after) in lane:
                assert np.frombuffer(obs[1])[0] == t and np.frombuffer(after[1])[0] == t + 1
                t = 0 if done else t + 1
    if K >= 16:
        # episodes ended at the horizon and, but on the probe, by success;
        # the lanes took transitions of several counts
        endings = {row[4] for lane in got for row in lane if row[3]}
        assert endings == ({False} if probe else {False, True})
        assert len({len(lane) for lane in got}) > 3
