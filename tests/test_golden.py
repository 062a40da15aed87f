"""Golden behaviour digests of short training runs and of file bytes.

Each training case pins SHA-256 digests of the final parameter vector,
the Adam moments m and v, and the stamp-free trend-line export.  A
refactor that keeps the numerics keeps every digest; a change that moves
one on purpose must say which and why.  Every eval_period here is a
multiple of the trainer's step unit, so the stage-one evaluation cadence
is the plain uninterrupted one.  The file cases pin the exact bytes of a
checkpoint, a demo bundle and the default manifest, so a change to how
they are written shows even when the numbers they hold do not move.
The transition cases pin every observation and StepResult of a few
episodes per task and split, under the scripted expert and under fixed
action streams, plus the policy's mean and sampled actions on those
observations.  Without the
policy's actions, those transitions and a demo bundle per task must hash
the same under every OpenBLAS kernel this CPU can run: the environments
make no BLAS call.
"""

import glob
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from blas_kernels import each_kernel, kernel_checks, running_target
from deskrl import bc, nn, pointnet, policy as pol, ppo, twostage as ts
from deskrl.config import resolve_config, write_manifest
from deskrl.envs import SPLITS, TASKS, generate_demos, make_config, make_env
from deskrl.persistence import Checkpoint, export_trendline, load_checkpoint, read_metrics, save_demos
from deskrl.rng import make_generator

# the OpenBLAS kernel every digest below that hashes policy actions or
# trained parameters was computed on; another kernel gives other matmul bits
PINNED_ON = "SkylakeX"


def _kernels() -> str:
    return f"{running_target()}, digests pinned on {PINNED_ON}"


GOLDEN = {
    "ppo_reach2d": {
        "params": "0d07056514695099fd83f5bf14d5d3256873b36350c38bcb20d04a0ce9ba1cb1",
        "adam_m": "b2e645b7e41b0cde060d3e732c7225e101ea3f70cdff31910657da2fb27aa953",
        "adam_v": "408fa3655ca18a69b0051999f528539dfefc3465a15005a632b33380c08ab810",
        "trendline": "a0b1632bd3eeb11ce8f2e0c3a6639b5dce7cd6c84ceee919fd32e5ff65a91fdc",
    },
    "ppo_pushbox2d": {
        "params": "439225292acf3c0bc4abac582a4f181030f5a723e2dc56484122e86d05831119",
        "adam_m": "d58cdf1e1cf772c2b2e4ec64eaf92794960c09871e175da4d432444aebf05af3",
        "adam_v": "b44250064d19137aa753d17b1401756d277bbc70ae6f082c1c9b422022869ea3",
        "trendline": "a0b1632bd3eeb11ce8f2e0c3a6639b5dce7cd6c84ceee919fd32e5ff65a91fdc",
    },
    "bc_gather2d": {
        "params": "5e08d588c7a63f9059c8390131f206feace07027abf982c5749c281abe684dca",
        "adam_m": "72b5ff961f4897b32f25a7460f509e96b8140d1fbd2b626335ff15d24afd6b0c",
        "adam_v": "e6a276071df00ffc9ad9e20aaf6ffe4e082ce8d48a6b658bc6ba1e4cf38ce47b",
        "trendline": "df788257f0954b07076c943f783e3f6674224a1f6137c75a08049fda6d620ee8",
    },
    "two_stage_ppo_reach2d": {
        "params": "11509b913784d39590fe467c01b023b2670c43ea3ee5e51e527732a6a49a9d05",
        "adam_m": "b0524ddbb132f87ac9b6e99db268699aa6258afa64b347acde1ba971603c7d09",
        "adam_v": "abd49fbe4169a7ff9b8b8ccf0aa27d6735290b81621bc8c25437259cd1c23e7d",
        "trendline": "92c18da58c47e0054e93b63a05e6aa5f89ad8e5b312ebb397bf263c13ba6098a",
    },
    "grid_bc_reach2d": {
        "params": "f054451487af96cb85f8438b6e5200da11a2441f84933bae2f6fcfd60da4b699",
        "adam_m": "53fe89f8dd5b552144d802f444525c8af6f6f5c9fdd6cc765c123583b97205b5",
        "adam_v": "92118f716678e2c927b45cf6422ce062a669caffdfcefba49ee55b937b90aa65",
        "trendline": "53c4174f78271d2ed5232fb94935d99443ea0afef732fac3291de1aee85c67ee",
        "results": "6d6a6bea2f6607e28b95d9cfe3eaf0afed185e24485dff950a014e2089bee59f",
    },
}


@pytest.fixture(autouse=True)
def _pools_have_strided_argmax_bits(monkeypatch):
    """In every case here, both pools must give what the argmax over the
    strided point axis of point-major (B, N, F) features gives, bit for
    bit, signed zeros included.  The padded forward pools its last
    per-point layer's product with np.max before the bias and the ReLU; its
    output must have the bits of the point-major composition that pools the
    finished features.  The traced forward's feature-major pool, which
    takes its argmax before the bias and the ReLU, must give the indices
    and values.  So no case here meets two points whose different values
    round to the same biased max."""
    padded, argmax_pool = pol.encode_batch_padded, pointnet._argmax_pool

    def reference(feats):
        idx = np.argmax(feats, axis=1)
        return idx, np.take_along_axis(feats, idx[:, None, :], axis=1)[:, 0, :]

    def checked_padded(store, spec, points, proprio):
        out = padded(store, spec, points, proprio)
        B, N, C = points.shape
        feats = nn.forward_layers(store.layers(spec.per_point, pointnet.PER_POINT), points.reshape(B * N, C))
        x = np.concatenate([reference(feats.reshape(B, N, spec.feature_dim))[1], proprio], axis=1)
        x = np.concatenate([x, x[:1].repeat(-B % pointnet.POST_ROW_MULTIPLE, axis=0)])
        assert out.tobytes() == nn.forward_layers(store.layers(spec.post, pointnet.POST), x).tobytes()
        return out

    def checked_argmax(z, b):
        idx, pooled = argmax_pool(z, b)
        ref_idx, ref_pooled = reference(np.maximum(z.transpose(1, 2, 0) + b, 0.0))
        assert np.array_equal(idx, ref_idx)
        assert pooled.tobytes() == ref_pooled.tobytes()
        return idx, pooled

    monkeypatch.setattr(pol, "encode_batch_padded", checked_padded)
    monkeypatch.setattr(pointnet, "_argmax_pool", checked_argmax)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _f64(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _digests(ckpts: list[Checkpoint], history, scratch: str) -> dict:
    path = os.path.join(scratch, "trendline.csv")
    export_trendline(history, path)
    with open(path, "rb") as fh:
        trend = fh.read()
    return {
        "params": _sha(_f64(c.params for c in ckpts)),
        "adam_m": _sha(_f64(c.adam.m for c in ckpts)),
        "adam_v": _sha(_f64(c.adam.v for c in ckpts)),
        "trendline": _sha(trend),
    }


def _last_checkpoint(run_dir: str) -> Checkpoint:
    return load_checkpoint(sorted(glob.glob(os.path.join(run_dir, "ckpt-*.ckpt")))[-1])


def _ppo_cfg(**overrides) -> ppo.PPOConfig:
    base = dict(
        samples_per_step=80, minibatch_size=40, epochs=1,
        total_steps=160, eval_period=80, eval_episodes=1,
    )
    base.update(overrides)
    return ppo.PPOConfig(**base)


def _ppo_run(task: str, tmp_path) -> dict:
    out = str(tmp_path / "run")
    hist = ppo.train_ppo(_ppo_cfg(), make_config(task, horizon=40), seed=3, out_dir=out)
    return _digests([_last_checkpoint(out)], hist, str(tmp_path))


def _bc_gather(tmp_path) -> dict:
    env_cfg = make_config("gather2d", horizon=40)
    demos = generate_demos(env_cfg, 2, keep_only_success=False)
    dataset = bc.DemoDataset.from_trajectories(demos, env_cfg.fingerprint())
    cfg = bc.BCConfig(batch_size=16, samples_per_step=32, total_steps=4, eval_period=2, eval_episodes=1)
    out = str(tmp_path / "run")
    hist = bc.train_bc(cfg, dataset, env_cfg, seed=2, out_dir=out)
    return _digests([_last_checkpoint(out)], hist, str(tmp_path))


def _two_stage(tmp_path) -> dict:
    trainer = ts.ppo_trainer(_ppo_cfg(total_steps=0), make_config("reach2d", horizon=40))
    out = str(tmp_path / "t")
    hist, _ = ts.run_two_stage(trainer, ts.ScalePair(0.5, 0.5), 400, 80, seed=1, out_dir=out)
    return _digests([_last_checkpoint(os.path.join(out, "stage2"))], hist, str(tmp_path))


def _grid(tmp_path) -> dict:
    env_cfg = make_config("reach2d", horizon=40)
    demos = generate_demos(env_cfg, 2, keep_only_success=False)
    dataset = bc.DemoDataset.from_trajectories(demos, env_cfg.fingerprint())
    bcfg = bc.BCConfig(batch_size=8, samples_per_step=16, total_steps=0, eval_period=1, eval_episodes=1)
    grid = ts.GridSpec(
        alphas=(1.0, 0.5), betas=(0.5,), base_batch=8, base_samples=16,
        seeds=(0,), stage1_steps=6, stage2_steps=2,
    )
    out = str(tmp_path / "g")
    records = ts.grid_search(ts.bc_trainer(bcfg, dataset, env_cfg), grid, out)
    legs = ["baseline"] + [f"cell-a{r.alpha}-b{r.beta}" for r in records[1:]]
    run_dirs = [os.path.join(out, "seed0", leg) for leg in ["stage1"] + legs]
    history = [r for leg in legs for r in read_metrics(os.path.join(out, "seed0", leg, "metrics.csv"))]
    digests = _digests([_last_checkpoint(d) for d in run_dirs], history, str(tmp_path))
    with open(os.path.join(out, "results.csv"), "rb") as fh:
        digests["results"] = _sha(fh.read())
    return digests


CASES = {
    "ppo_reach2d": lambda tmp_path: _ppo_run("reach2d", tmp_path),
    "ppo_pushbox2d": lambda tmp_path: _ppo_run("pushbox2d", tmp_path),
    "bc_gather2d": _bc_gather,
    "two_stage_ppo_reach2d": _two_stage,
    "grid_bc_reach2d": _grid,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_are_unchanged(case, tmp_path):
    assert CASES[case](tmp_path) == GOLDEN[case], _kernels()


FILE_GOLDEN = {
    "checkpoint": "1fd94a13d0030d73a457b734a9c180b717767139481e751394001508530f9160",
    "demos": "a7cc0a070f32e9d727ac3754043d3c5ed9d143bf2294c855332dc45a2b5afec0",
    "manifest": "6ec7be6313e6b1fe2d99a35dc911ec625404cc3587e45c83854baa38fab661ce",
}


def _checkpoint_file(tmp_path) -> str:
    """The entry checkpoint of a zero-budget PPO run."""
    out = str(tmp_path / "run")
    ppo.train_ppo(_ppo_cfg(total_steps=0), make_config("reach2d", horizon=40), seed=3, out_dir=out)
    return os.path.join(out, "ckpt-00000000.ckpt")


def _demo_file(tmp_path, task: str = "gather2d") -> str:
    env_cfg = make_config(task, horizon=40)
    path = str(tmp_path / "demos.bin")
    save_demos(path, env_cfg, generate_demos(env_cfg, 2, keep_only_success=False))
    return path


def _manifest_file(tmp_path) -> str:
    return write_manifest(str(tmp_path), "grid", 0, resolve_config(None, []))


FILES = {"checkpoint": _checkpoint_file, "demos": _demo_file, "manifest": _manifest_file}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_file_bytes_are_unchanged(kind, tmp_path):
    with open(FILES[kind](tmp_path), "rb") as fh:
        assert _sha(fh.read()) == FILE_GOLDEN[kind]


# SHA-256 over two 25-episode demo bundles per task and split at the task
# horizon, successes only and then every episode; pinned before demos ran
# in lockstep, when each episode ran on its own
DEMO_BUNDLE_GOLDEN = {
    "reach2d-train": "c241f0545bd58332c2850b70792e602951382c1101ad4ba771998b9628e76f50",
    "reach2d-test": "800f516f86fd5d1088040cf21062122472a45aaf344d290bea6d4b9b73c3a31c",
    "pushbox2d-train": "0de95089fdc9bf629e58ea054989ce003bb85ab43153f8b24ce6cce2c35bea4c",
    "pushbox2d-test": "baf08dd08bc1bb951e0793fe36b6a34e024fde782d5a7df14089ba1bfbb4971a",
    "gather2d-train": "f335c4b909253ec6a6b15e44d5a93e1c31ec3db954b12bf91f4e7d0e89822f91",
    "gather2d-test": "4803211822297975fdec19b20e2dd8c861dab24e73f9af2253ae4259d81bf25c",
}


@pytest.mark.parametrize("task,split", [(t, s) for t in TASKS for s in SPLITS])
def test_larger_demo_bundles_are_unchanged(task, split, tmp_path):
    env_cfg = make_config(task, split)
    path = str(tmp_path / "demos.bin")
    h = hashlib.sha256()
    for keep in (True, False):
        save_demos(path, env_cfg, generate_demos(env_cfg, 25, keep_only_success=keep))
        with open(path, "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == DEMO_BUNDLE_GOLDEN[f"{task}-{split}"]


TRANSITION_GOLDEN = {
    "reach2d-train": "8e8910c00ff451bb76a9692cf74650cda0c6627fc97cffd9736d153a306b6087",
    "reach2d-test": "6f4a29449d6a4c1dfa650a1f932cc3fed0e5d972e9b455a02d4d47018dd69850",
    "pushbox2d-train": "ec8ad0bca2ed3756a46f875760eb0bda881c1b4dcbfa6ac5a59ce59d14132f02",
    "pushbox2d-test": "b833d19c51a061687e3062dd0d370f49e1a1e6bf3226d21b9c4616fcd014182f",
    "gather2d-train": "cbf3f6602971486bb6340f1e49000b270bd5bbec9456fd44a351e042f096c18b",
    "gather2d-test": "2c7b2e2e936d9f55799b7d941e0e1420487b892b4a3bbdccc2135173f77903a2",
}


def _array_bytes(h, a: np.ndarray) -> None:
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _policy_bytes(h, store, spec, obs, gen) -> None:
    _array_bytes(h, pol.mean_action(store, spec, obs))
    s = pol.sample_action(store, spec, obs, gen)
    _array_bytes(h, s.action)
    _array_bytes(h, s.raw)
    h.update(f"{s.logp!r};{s.value!r}".encode())


def _transitions(task: str, split: str, policy: bool = True) -> str:
    """SHA-256 over four episodes: the scripted expert at the task horizon,
    uniform actions at horizon 50, and two corner actions at horizon 80,
    held after two zero actions: they drive the joints into their limits,
    and the zero actions leave the robot at rest through a step.  With
    `policy`, every fourth observation also feeds the policy's mean and
    sampled actions in."""
    spec = pol.build_policy_spec(task)
    store = nn.ParamStore()
    pol.init_policy(store, spec, make_generator(0, "golden", "policy", task))
    store.get("mean.W1")[:] /= pol.FINAL_MEAN_SCALE  # means of order one, so some clip
    gen = make_generator(0, "golden", "transitions", task, split)
    h = hashlib.sha256()
    streams = (
        (None, 0),
        ("uniform", 50),
        (np.array([1.0, -1.0]), 80),
        (np.array([-1.0, 1.0]), 80),
    )
    for episode, (stream, horizon) in enumerate(streams):
        overrides = {"horizon": horizon} if horizon else {}
        env = make_env(make_config(task, split, seed=5, **overrides))
        obs = env.reset(episode)
        for t in range(env.cfg.horizon):
            _array_bytes(h, obs.points)
            _array_bytes(h, obs.proprio)
            if policy and t % 4 == 0:
                _policy_bytes(h, store, spec, obs, gen)
            if stream is None:
                action = env.expert_action()
            elif isinstance(stream, str):
                action = gen.uniform(-1.0, 1.0, size=2)
            else:
                action = stream if t >= 2 else np.zeros(2)
            _array_bytes(h, action)
            res = env.step(action)
            h.update(f"{res.reward!r};{res.done!r};{res.success!r}".encode())
            obs = env.observe()
            if res.done:
                break
        _array_bytes(h, obs.points)
        _array_bytes(h, obs.proprio)
    return h.hexdigest()


@pytest.mark.parametrize("task,split", [(t, s) for t in TASKS for s in SPLITS])
def test_transitions_are_unchanged(task, split):
    assert _transitions(task, split) == TRANSITION_GOLDEN[f"{task}-{split}"], _kernels()


_ALL_DIGESTS = """
import json, pathlib, tempfile
from test_golden import CASES, FILES, SPLITS, TASKS, _sha, _transitions
with tempfile.TemporaryDirectory() as tmp:
    def fresh(name):
        path = pathlib.Path(tmp) / name
        path.mkdir()
        return path
    training = {case: run(fresh(case)) for case, run in CASES.items()}
    files = {}
    for kind, write in FILES.items():
        with open(write(fresh(kind)), "rb") as fh:
            files[kind] = _sha(fh.read())
print(json.dumps({
    "transitions": {f"{t}-{s}": _transitions(t, s) for t in TASKS for s in SPLITS},
    "training": training,
    "files": files,
}))
"""


def test_transition_bits_do_not_depend_on_blas_threads():
    # the steps run on floats and the policy pads its batches, so a second
    # OpenBLAS thread must leave every transition digest where it is; the
    # training, two-stage, grid and file digests must stay too
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    golden = {"transitions": TRANSITION_GOLDEN, "training": GOLDEN, "files": FILE_GOLDEN}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _ALL_DIGESTS], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == golden, f"OPENBLAS_NUM_THREADS={threads}; {_kernels()}"


def _env_digests() -> dict:
    """The environments' own digests: transitions without policy bytes and
    the bytes of a demo bundle per task."""
    demos = {}
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            with open(_demo_file(pathlib.Path(tmp), task), "rb") as fh:
                demos[task] = _sha(fh.read())
    transitions = {f"{t}-{s}": _transitions(t, s, policy=False) for t in TASKS for s in SPLITS}
    return {"transitions": transitions, "demos": demos}


@pytest.fixture(scope="module")
def native_env_digests():
    return _env_digests()


@each_kernel
def test_env_bits_do_not_depend_on_the_blas_kernel(kernel, native_env_digests):
    # the simulator and the experts make no BLAS call, so every kernel
    # OpenBLAS picks on x86-64 gives this machine's transitions and demos
    run = kernel_checks(kernel)
    assert run["env"] is not None, run["log"]
    assert run["env"] == native_env_digests, f"OPENBLAS_CORETYPE={kernel}"


def test_grid_legs_record_their_restore_point_rates(tmp_path, monkeypatch):
    """Every grid leg resumes a stage-one checkpoint and records the rates
    stored with it instead of evaluating it again; every digest stays."""
    rates = []
    evaluate = pol.evaluate_policy

    def counted(store, spec, env_cfg, episodes, run_seed):
        rates.append(evaluate(store, spec, env_cfg, episodes, run_seed))
        return rates[-1]

    monkeypatch.setattr(pol, "evaluate_policy", counted)
    assert _grid(tmp_path) == GOLDEN["grid_bc_reach2d"], _kernels()
    seed_dir = os.path.join(str(tmp_path), "g", "seed0")
    stage1 = read_metrics(os.path.join(seed_dir, "stage1", "metrics.csv"))
    best = max(stage1, key=lambda rec: rec.test_success)
    legs = {"baseline": stage1[-1], "cell-a1.0-b0.5": best, "cell-a0.5-b0.5": best}
    evaluated = list(stage1)
    for leg, restore in legs.items():
        first, *rest = read_metrics(os.path.join(seed_dir, leg, "metrics.csv"))
        assert (first.step, first.train_success, first.test_success) == (
            restore.step, restore.train_success, restore.test_success,
        )
        evaluated += rest
    # stage one evaluates at each of its records; a leg (stage two 2 steps,
    # eval_period 1) only after each of its steps: one call for both splits,
    # whose (train, test) rates are what the record holds
    assert len(rates) == len(stage1) + 2 * len(legs)
    assert sorted(rates) == sorted((rec.train_success, rec.test_success) for rec in evaluated)
