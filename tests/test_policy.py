"""Gaussian policy layer: spec validation, density and entropy math,
sampling determinism, and the evaluation panel."""

import os
import subprocess
import sys

import numpy as np
import pytest

from blas_kernels import each_kernel, kernel_test
from deskrl import envs, nn, pointnet, policy as pol, ppo
from deskrl.envs import make_config, make_env
from deskrl.errors import NonFiniteError, ShapeMismatchError
from deskrl.pointnet import EncoderSpec
from deskrl.rng import generator_from_words, make_generator, panel_seeds, state_words


def fresh(task="reach2d", seed=0, log_std0=-0.5):
    spec = pol.build_policy_spec(task)
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(seed, "pol", "init"), log_std0)
    return store, spec


def first_obs(task="reach2d", episode_seed=123):
    env = make_env(make_config(task))
    return env.reset(episode_seed)


class TestPolicySpec:
    def test_head_widths_must_match_encoder(self):
        good = pol.build_policy_spec("reach2d")
        bad_mean = nn.NetSpec((good.encoder.out_width + 1, 64, 2), hidden="tanh")
        with pytest.raises(ShapeMismatchError):
            pol.PolicySpec(good.encoder, bad_mean, good.value, 2)

    def test_mean_head_must_emit_action_dim(self):
        good = pol.build_policy_spec("reach2d")
        with pytest.raises(ShapeMismatchError):
            pol.PolicySpec(good.encoder, good.mean, good.value, 3)

    def test_value_head_must_be_scalar(self):
        good = pol.build_policy_spec("reach2d")
        wide = nn.NetSpec((good.encoder.out_width, 64, 2), hidden="tanh")
        with pytest.raises(ShapeMismatchError):
            pol.PolicySpec(good.encoder, good.mean, wide, 2)

    def test_task_specs_match_observation_shapes(self):
        for task in ("reach2d", "gather2d", "pushbox2d"):
            spec = pol.build_policy_spec(task)
            obs = first_obs(task)
            assert spec.encoder.per_point.in_width == obs.points.shape[1]
            assert spec.encoder.proprio_width == obs.proprio.shape[0]


class TestGaussianMath:
    def test_logp_matches_scipy_style_formula(self):
        g = np.random.default_rng(0)
        x = g.normal(size=(5, 3))
        mean = g.normal(size=(5, 3))
        log_std = g.uniform(-1.0, 0.5, size=3)
        got = pol.gaussian_logp(x, mean, log_std)
        sigma = np.exp(log_std)
        dim_logp = (
            -0.5 * ((x - mean) / sigma) ** 2 - log_std - 0.5 * np.log(2.0 * np.pi)
        )
        assert np.allclose(got, dim_logp.sum(axis=1), atol=1e-12)

    def test_logp_single_row(self):
        got = pol.gaussian_logp(np.zeros(2), np.zeros(2), np.zeros(2))
        assert got == pytest.approx(-np.log(2.0 * np.pi))

    def test_entropy_closed_form(self):
        log_std = np.array([-0.5, 0.3])
        expected = float(np.sum(log_std + 0.5 * (np.log(2.0 * np.pi) + 1.0)))
        assert pol.gaussian_entropy(log_std) == pytest.approx(expected, abs=1e-12)

    def test_entropy_grows_with_log_std(self):
        assert pol.gaussian_entropy(np.array([0.0, 0.0])) > pol.gaussian_entropy(
            np.array([-1.0, -1.0])
        )


class TestLogStdClamp:
    def test_within_bounds_passes_through(self):
        store, spec = fresh(log_std0=-0.5)
        assert np.array_equal(pol.log_std_of(store), np.full(2, -0.5))
        assert np.array_equal(pol.log_std_grad_mask(store), np.ones(2))

    def test_out_of_bounds_clamps_and_masks(self):
        store, spec = fresh(log_std0=-0.5)
        store.get("log_std")[0, 0] = -30.0
        store.get("log_std")[0, 1] = 5.0
        assert np.array_equal(pol.log_std_of(store), np.array([pol.LOG_STD_MIN, pol.LOG_STD_MAX]))
        assert np.array_equal(pol.log_std_grad_mask(store), np.zeros(2))

    def test_floor_makes_sampling_deterministic(self):
        # at the clamp floor the noise scale is e^-20: the sampled action is
        # the clamped mean to a few machine epsilons, which clip rounds away
        store, spec = fresh(log_std0=-20.0)
        obs = first_obs()
        s = pol.sample_action(store, spec, obs, make_generator(4, "noise"))
        assert np.allclose(s.action, pol.mean_action(store, spec, obs), atol=1e-7)


class TestSampling:
    def test_same_generator_state_same_sample(self):
        store, spec = fresh()
        obs = first_obs()
        a = pol.sample_action(store, spec, obs, make_generator(11, "n"))
        b = pol.sample_action(store, spec, obs, make_generator(11, "n"))
        assert a.action.tobytes() == b.action.tobytes()
        assert a.raw.tobytes() == b.raw.tobytes()
        assert a.logp == b.logp and a.value == b.value

    def test_density_recipe_is_documented_and_stable(self):
        # replaying the published draw recipe on a cloned generator must
        # land on the same raw action, and the stored logp must price it:
        # z = gen.standard_normal(action_dim); raw = mean + exp(log_std) * z
        store, spec = fresh()
        obs = first_obs()
        gen = make_generator(11, "n")
        clone = generator_from_words(state_words(gen))
        s = pol.sample_action(store, spec, obs, gen)

        # fresh-init means sit well inside [-1, 1], so the clipped mean
        # equals the raw network mean and the recipe closes bit for bit
        mean = pol.mean_action(store, spec, obs)
        assert np.abs(mean).max() < 1.0
        z = clone.standard_normal(spec.action_dim)
        log_std = pol.log_std_of(store)
        assert np.array_equal(s.raw, mean + np.exp(log_std) * z)
        assert s.logp == pytest.approx(
            float(pol.gaussian_logp(s.raw, mean, log_std)), abs=1e-12
        )

    def test_sample_consumes_exactly_action_dim_normals(self):
        store, spec = fresh()
        obs = first_obs()
        gen = make_generator(11, "n")
        sentinel = generator_from_words(state_words(gen))
        _ = sentinel.standard_normal(spec.action_dim)
        expected_next = sentinel.standard_normal()
        pol.sample_action(store, spec, obs, gen)
        assert gen.standard_normal() == expected_next

    def test_action_is_clipped_raw(self):
        store, spec = fresh(log_std0=1.5)
        obs = first_obs()
        gen = make_generator(2, "wide")
        seen_clip = False
        for _ in range(50):
            s = pol.sample_action(store, spec, obs, gen)
            assert np.array_equal(s.action, np.clip(s.raw, -1.0, 1.0))
            assert np.abs(s.action).max() <= 1.0
            seen_clip = seen_clip or bool((np.abs(s.raw) > 1.0).any())
        assert seen_clip

    def test_mean_action_is_deterministic(self):
        store, spec = fresh()
        obs = first_obs()
        a = pol.mean_action(store, spec, obs)
        b = pol.mean_action(store, spec, obs)
        assert a.tobytes() == b.tobytes()
        assert np.abs(a).max() <= 1.0

    def test_state_values_match_sampled_values(self):
        # the batched values carry the bits sample_actions records, row by
        # row, whatever observations share the call
        store, spec = fresh()
        env = make_env(make_config("reach2d"))
        obs = [env.reset(seed) for seed in range(5)]
        gens = [make_generator(1, "v", k) for k in range(5)]
        s = pol.sample_actions(store, spec, obs, gens)
        values = pol.state_values(store, spec, obs)
        assert values.shape == (5,)
        assert values.tobytes() == s.value.tobytes()
        assert pol.state_values(store, spec, obs[2:3])[0] == s.value[2]

    def test_sample_actions_needs_one_generator_per_observation(self):
        store, spec = fresh()
        obs = first_obs()
        with pytest.raises(ShapeMismatchError):
            pol.sample_actions(store, spec, [obs, obs], [make_generator(0)])

    @pytest.mark.parametrize("part", ["points", "proprio"])
    @pytest.mark.parametrize("call", ["mean_actions", "sample_actions", "state_values"])
    def test_ragged_batch_raises_shape_mismatch(self, call, part):
        # observations that do not stack (63 points after 64, or a proprio
        # one entry short) break the batch's one shape rule
        store, spec = fresh()
        obs = first_obs()
        batch = [obs, obs._replace(**{part: getattr(obs, part)[:-1]})]
        gens = [[make_generator(0), make_generator(1)]] if call == "sample_actions" else []
        with pytest.raises(ShapeMismatchError, match="differ in shape"):
            getattr(pol, call)(store, spec, batch, *gens)

    @pytest.mark.parametrize("task", envs.TASKS)
    def test_sample_actions_rows_equal_each_row_alone(self, task):
        # row k of a K-row call equals sample_action on that observation
        # with a copy of row k's generator, for K in 1..20 from both ends of
        # the list, and each row's generator advances by action_dim normals
        store, spec = fresh(task, seed=3)
        store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE  # means of order one, so some clip
        env = make_env(make_config(task))
        act = make_generator(3, "rows", "actions", task)
        obs = []
        for seed in range(20):
            o = env.reset(seed)
            for _ in range(seed % 5):
                o = env.step(act.uniform(-1.0, 1.0, size=2)).obs
            obs.append(o)
        for k in range(1, 21):
            for start in (0, 20 - k):
                gens = [make_generator(5, "rows", start + i) for i in range(k)]
                clones = [generator_from_words(state_words(g)) for g in gens]
                rows = pol.sample_actions(store, spec, obs[start : start + k], gens)
                for i, clone in enumerate(clones):
                    alone = pol.sample_action(store, spec, obs[start + i], clone)
                    assert rows.action[i].tobytes() == alone.action.tobytes()
                    assert rows.raw[i].tobytes() == alone.raw.tobytes()
                    assert (rows.logp[i], rows.value[i]) == (alone.logp, alone.value)
                    assert gens[i].standard_normal() == clone.standard_normal()


# per task: policy init seed and the widened success threshold under which
# each split's 7-episode panel (run seed 4, horizon 80) ends at several ticks
_STAGGERED = {
    "reach2d": (4, "tolerance", 0.4),
    "pushbox2d": (0, "tolerance", 0.4),
    "gather2d": (6, "success_fraction", 0.6),
}


class TestEvaluation:
    def test_panel_is_deterministic(self):
        store, spec = fresh()
        cfg = make_config("reach2d")
        a = pol.evaluate_policy(store, spec, cfg, episodes=6, run_seed=9)
        b = pol.evaluate_policy(store, spec, cfg, episodes=6, run_seed=9)
        assert a == b

    def test_panel_differs_across_splits(self):
        # split changes the variant range, so the panel seeds and scenes
        # both differ; rates are in [0, 1] either way, and one call runs
        # both panels whatever split its config names
        store, spec = fresh()
        assert panel_seeds(9, "train", 6) != panel_seeds(9, "test", 6)
        train, test = pol.evaluate_policy(store, spec, make_config("reach2d", split="train"), 6, 9)
        assert 0.0 <= train <= 1.0
        assert 0.0 <= test <= 1.0
        assert pol.evaluate_policy(store, spec, make_config("reach2d", split="test"), 6, 9) == (train, test)

    def test_rate_is_fraction_of_episodes(self):
        store, spec = fresh()
        rates = pol.evaluate_policy(store, spec, make_config("reach2d"), episodes=7, run_seed=1)
        assert len(rates) == 2
        for rate in rates:
            assert rate * 7 == pytest.approx(round(rate * 7))

    @pytest.mark.parametrize("task", envs.TASKS)
    def test_one_env_step_per_transition(self, task, monkeypatch):
        # every step call advances its episode by exactly one transition,
        # and no call follows the one that ends the episode; the panel's
        # episodes run side by side, so each env keeps its own log
        episodes = []
        logs = {}
        step, reset = envs.ToyEnv.step, envs.ToyEnv.reset

        def logged_reset(env, episode_seed):
            logs[env] = []
            episodes.append(logs[env])
            return reset(env, episode_seed)

        def logged_step(env, action):
            t = env.t
            res = step(env, action)
            logs[env].append((env.t - t, res.done))
            return res

        monkeypatch.setattr(envs.ToyEnv, "reset", logged_reset)
        monkeypatch.setattr(envs.ToyEnv, "step", logged_step)
        store, spec = fresh(task)
        pol.evaluate_policy(store, spec, make_config(task, horizon=25), episodes=3, run_seed=4)
        assert len(episodes) == 2 * 3  # both splits' panels
        for calls in episodes:
            assert calls == [(1, False)] * (len(calls) - 1) + [(1, True)]

    @pytest.mark.parametrize("task", envs.TASKS)
    def test_lockstep_panel_equals_each_episode_alone(self, task, monkeypatch):
        # an untrained policy seldom ends an episode early; a wider success
        # threshold makes these panels' episodes end at different ticks, so
        # the live set shrinks and the padded batch changes size; every
        # episode of both splits must equal its split's seed run alone
        init_seed, attr, value = _STAGGERED[task]
        cfg = make_config(task, horizon=80)
        monkeypatch.setattr(type(make_env(cfg)), attr, value)
        store, spec = fresh(task, init_seed)
        store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE  # means of order one
        logs = {}
        step = envs.ToyEnv.step

        def logged_step(env, action):
            res = step(env, action)
            logs.setdefault(env, []).append((np.asarray(action).tobytes(), res.success))
            return res

        monkeypatch.setattr(envs.ToyEnv, "step", logged_step)
        rates = pol.evaluate_policy(store, spec, cfg, episodes=7, run_seed=4)
        alone = {}
        for split in envs.SPLITS:
            split_cfg = make_config(task, split=split, horizon=80)
            alone[split] = []
            for seed in panel_seeds(4, split, 7):
                env = make_env(split_cfg)
                obs = env.reset(seed)
                taken = []
                while True:
                    action = pol.mean_action(store, spec, obs)
                    res = step(env, action)
                    taken.append((action.tobytes(), res.success))
                    if res.done:
                        break
                    obs = res.obs
                alone[split].append(taken)
        # every env steps at tick one: the train panel, then the test panel
        assert list(logs.values()) == alone["train"] + alone["test"]
        for split in envs.SPLITS:
            assert len({len(taken) for taken in alone[split]}) > 1
        assert rates == tuple(sum(taken[-1][1] for taken in alone[split]) / 7 for split in envs.SPLITS)


_MEAN_ACTION_ROWS = """
import hashlib
import numpy as np
from deskrl import nn, policy as pol
from deskrl.envs import TASKS, make_config, make_env
from deskrl.rng import make_generator

h = hashlib.sha256()
mismatches = 0
for task in TASKS:
    spec = pol.build_policy_spec(task)
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(3, "rows", task))
    store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE
    env = make_env(make_config(task))
    gen = make_generator(3, "rows", "actions", task)
    obs = []
    for seed in range(20):
        o = env.reset(seed)
        for _ in range(seed % 5):
            o = env.step(gen.uniform(-1.0, 1.0, size=2)).obs
        obs.append(o)
    alone = [pol.mean_action(store, spec, o) for o in obs]
    for k in range(1, 21):
        for start in (0, 20 - k):
            rows = pol.mean_actions(store, spec, obs[start:start + k])
            mismatches += sum(r.tobytes() != a.tobytes() for r, a in zip(rows, alone[start:start + k]))
    h.update(np.stack(alone).tobytes())
print(mismatches, h.hexdigest())
"""


def test_mean_actions_rows_equal_mean_action_bits():
    # each row of a K-row call equals that observation alone, for K in
    # 1..20 from both ends of the list, and the bits are the same under one
    # and two BLAS threads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _MEAN_ACTION_ROWS], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1
    assert outputs.pop().split()[0] == "0"


def checked_heads(store, spec, obs):
    """The padded forward composed from the checked entry points: the
    per-point net, the max pool, the concatenate-and-pad, the post net and
    both heads, each through nn.forward_batch; (K, A) means and (K,) values."""
    K = len(obs)
    enc = spec.encoder
    points = np.stack([o.points for o in obs])
    proprio = np.stack([o.proprio for o in obs])
    N, C = points.shape[1:]
    feats = nn.forward_batch(store, enc.per_point, points.reshape(K * N, C), "enc.pp")
    x = np.concatenate([np.max(feats.reshape(K, N, enc.feature_dim), axis=1), proprio], axis=1)
    x = np.concatenate([x, x[:1].repeat(-K % pointnet.POST_ROW_MULTIPLE, axis=0)])
    feat = nn.forward_batch(store, enc.post, x, "enc.post")
    mean = nn.forward_batch(store, spec.mean, feat, "mean")[:K]
    return mean, nn.forward_batch(store, spec.value, feat, "value")[:K, 0]


def _check_padded_forward(store, spec, obs):
    """Every padded-forward entry point against checked_heads, on K = 1..len(obs)
    observations from both ends of `obs`."""
    n = len(obs)
    log_std = pol.log_std_of(store)
    for k in range(1, n + 1):
        for start in (0, n - k):
            rows = obs[start : start + k]
            mean, value = checked_heads(store, spec, rows)
            assert pol.mean_actions(store, spec, rows).tobytes() == np.clip(mean, -1.0, 1.0).tobytes()
            assert pol.state_values(store, spec, rows).tobytes() == value.tobytes()
            gens = [make_generator(7, "lean", start + i) for i in range(k)]
            clones = [generator_from_words(state_words(g)) for g in gens]
            z = np.stack([c.standard_normal(spec.action_dim) for c in clones])
            raw = mean + np.exp(log_std) * z
            s = pol.sample_actions(store, spec, rows, gens)
            assert s.raw.tobytes() == raw.tobytes()
            assert s.action.tobytes() == np.clip(raw, -1.0, 1.0).tobytes()
            assert s.logp.tobytes() == pol.gaussian_logp(raw, mean, log_std).tobytes()
            assert s.value.tobytes() == value.tobytes()


# clouds in the padded forward's test: evaluation sends 2 x eval_episodes
# per tick, 40 at the default of 20 episodes
_PADDED_CLOUDS = 41


@pytest.mark.parametrize("task", envs.TASKS)
def test_padded_forward_matches_checked_composition(task):
    # mean_actions, sample_actions and state_values run the lean padded
    # forward, which pools before the last per-point bias and ReLU; each
    # must give the checked composition's bits at K = 1..41, with the
    # initial zero last-layer biases and with negative ones, which leave
    # more pooled features dead (the pool's zero branch)
    store, spec = fresh(task, seed=7)
    store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE  # means of order one, so some clip
    env = make_env(make_config(task))
    act = make_generator(7, "lean", "actions", task)
    obs = []
    for seed in range(_PADDED_CLOUDS):
        o = env.reset(seed)
        for _ in range(seed % 4):
            o = env.step(act.uniform(-1.0, 1.0, size=2)).obs
        obs.append(o)
    _check_padded_forward(store, spec, obs)
    b = store.get("enc.pp.b1")
    b[:] = -make_generator(7, "lean", "bias", task).uniform(0.0, 0.6, size=b.shape)
    enc = spec.encoder
    points = np.stack([o.points for o in obs])
    feats = nn.forward_batch(store, enc.per_point, points.reshape(-1, points.shape[2]), "enc.pp")
    dead = np.max(feats.reshape(len(obs), -1, enc.feature_dim), axis=1) == 0.0
    assert 0.2 < dead.mean() < 0.8
    _check_padded_forward(store, spec, obs)


@each_kernel
def test_padded_forward_matches_checked_composition_on_each_blas_kernel(kernel):
    # the lean loop and the checked one must make the same BLAS calls on
    # the same shapes under every kernel OpenBLAS picks on x86-64
    returncode, stdout = kernel_test(kernel, "test_policy.py::test_padded_forward_matches_checked_composition")
    assert returncode == 0, stdout
    assert f"{len(envs.TASKS)} passed" in stdout


@pytest.mark.parametrize("run", ["evaluate_policy", "collect_rollout"])
def test_nonfinite_parameters_raise_before_any_env_step(run, monkeypatch):
    # the padded forward does not check its inputs; a NaN parameter must
    # still stop evaluation and rollouts before a NaN action steps an env,
    # in the last per-point layer too, which the pool applies after the max
    steps = []
    step = envs.ToyEnv.step

    def logged_step(env, action):
        steps.append(action)
        return step(env, action)

    monkeypatch.setattr(envs.ToyEnv, "step", logged_step)
    cfg = make_config("pushbox2d", horizon=20)
    for param in ("enc.pp.W0", "enc.pp.W1", "enc.pp.b1"):
        store, spec = fresh("pushbox2d")
        store.get(param)[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            if run == "evaluate_policy":
                pol.evaluate_policy(store, spec, cfg, episodes=3, run_seed=0)
            else:
                ppo.collect_rollout(store, spec, cfg, 60, make_generator(0, "rollout"))
        assert steps == [], param
