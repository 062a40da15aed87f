"""Golden behaviour digests of short training runs and of file bytes.

Each training case pins SHA-256 digests of the final parameter vector,
the Adam moments m and v, and the stamp-free trend-line export.  A
refactor that keeps the numerics keeps every digest; a change that moves
one on purpose must say which and why.  Every eval_period here is a
multiple of the trainer's step unit, so the stage-one evaluation cadence
is the plain uninterrupted one.  The file cases pin the exact bytes of a
checkpoint, a demo bundle and the default manifest, so a change to how
they are written shows even when the numbers they hold do not move.
"""

import glob
import hashlib
import os

import numpy as np
import pytest

from deskrl import bc, ppo, twostage as ts
from deskrl.config import resolve_config, write_manifest
from deskrl.envs import generate_demos, make_config
from deskrl.persistence import Checkpoint, export_trendline, load_checkpoint, read_metrics, save_demos

GOLDEN = {
    "ppo_reach2d": {
        "params": "950e7ec82639be778c2e88b740dc955995a9e86cde7a6b83de386a05e34bda3d",
        "adam_m": "1aaf22291a215b70bf009ec303acce083da7c805d40bfa3b4d4624b79de8794c",
        "adam_v": "a5eed6f9b239c6f99c067fc9dfec79fe0c6cbba3ccfa37c9149d86e3f90b4b4f",
        "trendline": "a0b1632bd3eeb11ce8f2e0c3a6639b5dce7cd6c84ceee919fd32e5ff65a91fdc",
    },
    "ppo_pushbox2d": {
        "params": "7f5aad7869523ebcc3b98d8cb2aa7055dbd0f4b3b0ca33f18960132319674eac",
        "adam_m": "4e0a9951cfe9211f4febd4fd5aba046f1d97362a33bc9d8ed65a0c5efcfa6a61",
        "adam_v": "aeb551c1eec5069b984642fb4f2379d4a446b964936e0ce91f9f909d0810baa6",
        "trendline": "a0b1632bd3eeb11ce8f2e0c3a6639b5dce7cd6c84ceee919fd32e5ff65a91fdc",
    },
    "bc_gather2d": {
        "params": "e46af66c90096e89f95c472463f70959a84b4f97cd88e3e610ff9f26901eb94e",
        "adam_m": "7ec3d8cfd09bf3cb21335a96c6763c7ed1f2f243df61f363d481da0dac689a8a",
        "adam_v": "5c9ad3d5e3370c456dd7183154e15ebd096e45cbdf558ed04a011fc03b92b26d",
        "trendline": "df788257f0954b07076c943f783e3f6674224a1f6137c75a08049fda6d620ee8",
    },
    "two_stage_ppo_reach2d": {
        "params": "a1501ec5b5a4e48d76805e36d112d49cb6158d780ea69d44da1fb6a34f213961",
        "adam_m": "ad6a14165b520f744c768dfaf5aa2c8f415cfa329f9ef99daee23fca69c02679",
        "adam_v": "9c60db6a70e5a890480df58633a2fb05924349f2e82bb2fe4a81c12f5b059919",
        "trendline": "92c18da58c47e0054e93b63a05e6aa5f89ad8e5b312ebb397bf263c13ba6098a",
    },
    "grid_bc_reach2d": {
        "params": "e339e729a43392d199e51b984915c92b21556c5d96c2ad0935a47fd3e28d86a0",
        "adam_m": "9070f9bc50985356d4e94072a86c247efa15bc7461e9d324ce1cf4f10aac69ef",
        "adam_v": "0cdc083654d63ae87612ca92142a69d283a82da5d48199487f92f022b1275955",
        "trendline": "53c4174f78271d2ed5232fb94935d99443ea0afef732fac3291de1aee85c67ee",
        "results": "6d6a6bea2f6607e28b95d9cfe3eaf0afed185e24485dff950a014e2089bee59f",
    },
}


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
    assert CASES[case](tmp_path) == GOLDEN[case]


FILE_GOLDEN = {
    "checkpoint": "1fd94a13d0030d73a457b734a9c180b717767139481e751394001508530f9160",
    "demos": "acdfc3bd9126959d9b5f285837ecbfb65454f04d5c837b2eeb2dc58a78427d6d",
    "manifest": "6ec7be6313e6b1fe2d99a35dc911ec625404cc3587e45c83854baa38fab661ce",
}


def _checkpoint_file(tmp_path) -> str:
    """The entry checkpoint of a zero-budget PPO run."""
    out = str(tmp_path / "run")
    ppo.train_ppo(_ppo_cfg(total_steps=0), make_config("reach2d", horizon=40), seed=3, out_dir=out)
    return os.path.join(out, "ckpt-00000000.ckpt")


def _demo_file(tmp_path) -> str:
    env_cfg = make_config("gather2d", horizon=40)
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
