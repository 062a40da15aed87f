"""Checkpoint files, metrics logs, and result-table export.

The checkpoint container is one self-contained binary file, named
``ckpt-<step, 8 digits>.ckpt`` by `checkpoint_name`:

    bytes 0..16    magic ``DESKRLCHECKPOINT``
    bytes 16..20   u32 format version (little-endian)
    bytes 20..24   u32 reserved, zero
    bytes 24..32   u64 length of the metadata block
    next           UTF-8 JSON metadata (run id, step, slice directory, Adam
                   scalars, generator seed, success rates)
    next           parameter vector, float64 little-endian
    next           Adam first moments m, then second moments v, same layout
    next           generator state words, u64 little-endian
    last 8 bytes   checksum: first 8 bytes of SHA-256 over everything above

Everything numeric rides as raw 64-bit little-endian values, so a
save/load roundtrip is the identity bit for bit; the JSON block carries
only names, counts, and scalars whose text form round-trips exactly.
Demonstration bundles use the same container, written and read by the
same code, with their own magic and metadata; their payload is each
trajectory's points, proprios and actions in turn.

Metrics logs are plain comma-separated lines with steps enforced
non-decreasing over the whole file.  Every file a run directory gets, the
log included, is written whole by `replace_file` (write a temporary file,
fsync it, rename it over the target, fsync the directory), so a crash
leaves the old file or the new one, never a torn write.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .envs import DemoTrajectory, EnvConfig
from .errors import (
    CheckpointIntegrityError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    ConfigError,
    DemoFormatError,
    MetricsFormatError,
    MetricsOrderError,
)
from .nn import AdamState, ParamStore
from .rng import STATE_WORDS

CHECKPOINT_MAGIC = b"DESKRLCHECKPOINT"
DEMO_MAGIC = b"DESKRLDEMOBUNDLE"
CHECKPOINT_VERSION = 1
DEMO_VERSION = 1
TRAINER_KINDS = ("ppo", "bc")

METRICS_HEADER = "step,train_success,test_success,stage,stamp"
TRENDLINE_HEADER = "step,train_success,test_success,stage"
GRID_HEADER = "row,alpha,beta,batch,samples,train_success,test_success,seed,stage2_steps"

_HEAD = struct.Struct("<16sIIQ")  # magic, version, reserved, meta length
_CHECKSUM_BYTES = 8


def replace_file(path: str, data: bytes) -> None:
    """Write `data` as the whole of `path`: to a ``.tmp`` sibling, fsynced,
    then renamed over `path`, so a crash leaves the old file or the new one.
    The directory is fsynced after the rename, so the new name is durable
    too; a write, fsync or rename that raises removes the ``.tmp`` file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    """Full training state at one step: everything a resume needs."""

    run_id: str
    step: int
    trainer_kind: str  # "ppo" | "bc"
    env_fingerprint: str
    params: np.ndarray  # flat float64 parameter vector
    slices: list[tuple[str, int, int]]  # ParamStore directory (name, rows, cols)
    adam: AdamState
    rng_seed: int
    rng_words: np.ndarray  # uint64 generator state words
    train_success: float
    test_success: float
    version: int = CHECKPOINT_VERSION

    def __post_init__(self):
        if self.trainer_kind not in TRAINER_KINDS:
            raise ConfigError(f"trainer kind must be one of {TRAINER_KINDS}")
        self.params = np.asarray(self.params, dtype=np.float64)
        self.rng_words = np.asarray(self.rng_words, dtype=np.uint64)
        if self.rng_words.shape != (STATE_WORDS,):
            raise ConfigError(f"generator state must have {STATE_WORDS} words")
        total = sum(r * c for _, r, c in self.slices)
        if total != self.params.size:
            raise ConfigError(
                f"slice directory covers {total} entries, parameter vector has {self.params.size}"
            )
        if self.adam.m.shape != self.params.shape or self.adam.v.shape != self.params.shape:
            raise ConfigError("Adam moment vectors must match the parameter vector")

    def param_store(self) -> ParamStore:
        return ParamStore.from_directory(self.slices, self.params)


def checkpoint_name(step: int) -> str:
    """File name of the checkpoint a run writes at `step` (docs/FORMATS.md)."""
    return f"ckpt-{step:08d}.ckpt"


def _checksum(blob: bytes) -> bytes:
    return hashlib.sha256(blob).digest()[:_CHECKSUM_BYTES]


def _write_container(path: str, magic: bytes, version: int, meta: dict, arrays) -> None:
    """Write header, JSON metadata, each array's raw bytes in order, then the
    checksum, through `replace_file`, so a crash never leaves a partial file."""
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    parts = [_HEAD.pack(magic, version, 0, len(meta_blob)), meta_blob]
    parts += [np.ascontiguousarray(a).tobytes() for a in arrays]
    blob = b"".join(parts)
    replace_file(path, blob + _checksum(blob))


def _read_container(path: str, what: str, magic: bytes, version: int, errors, layout, decode):
    """Check a container file and decode it; returns decode(metadata, arrays).

    `layout(meta)` lists the (dtype, shape) of each stored array in order.
    `errors` is (missing, damaged, unknown): the error raised when there is
    no file, when it is damaged (too short, wrong magic, checksum mismatch,
    unreadable or overrunning metadata, metadata without an entry the kind
    needs or with one of the wrong type, payload not the size the layout
    implies), and when its format version is not `version`.
    """
    missing, damaged, unknown = errors
    if not os.path.exists(path):
        raise missing(f"no {what} at {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD.size + _CHECKSUM_BYTES:
        raise damaged(f"{path}: file too short to be a {what}")
    body, trailer = raw[:-_CHECKSUM_BYTES], raw[-_CHECKSUM_BYTES:]
    found_magic, found_version, _, meta_len = _HEAD.unpack_from(body, 0)
    if found_magic != magic:
        raise damaged(f"{path}: bad magic, not a {what}")
    if _checksum(body) != trailer:
        raise damaged(f"{path}: checksum mismatch (corrupt or truncated)")
    if found_version != version:
        raise unknown(f"{path}: format version {found_version}, this build reads {version}")
    offset = _HEAD.size + meta_len
    if offset > len(body):
        raise damaged(f"{path}: metadata block overruns the file")
    try:
        meta = json.loads(body[_HEAD.size : offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise damaged(f"{path}: unreadable metadata block") from exc
    try:
        layout = [(np.dtype(dtype), shape) for dtype, shape in layout(meta)]
        need = sum(dtype.itemsize * math.prod(shape) for dtype, shape in layout)
        if len(body) - offset != need:
            raise damaged(f"{path}: payload holds {len(body) - offset} bytes, expected {need}")
        arrays = []
        for dtype, shape in layout:
            count = math.prod(shape)
            stored = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
            arrays.append(stored.astype(dtype.newbyteorder("=")).reshape(shape))
            offset += dtype.itemsize * count
        return decode(meta, arrays)
    except KeyError as exc:
        raise damaged(f"{path}: metadata has no entry {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise damaged(f"{path}: malformed metadata ({exc})") from exc


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write atomically: a crash mid-save never leaves a partial file."""
    meta = {
        "run_id": ckpt.run_id,
        "step": int(ckpt.step),
        "trainer_kind": ckpt.trainer_kind,
        "env_fingerprint": ckpt.env_fingerprint,
        "n_params": int(ckpt.params.size),
        "slices": [[name, int(r), int(c)] for name, r, c in ckpt.slices],
        "adam": {
            "t": int(ckpt.adam.t),
            "lr": ckpt.adam.lr,
            "beta1": ckpt.adam.beta1,
            "beta2": ckpt.adam.beta2,
            "eps": ckpt.adam.eps,
        },
        "rng_seed": int(ckpt.rng_seed),
        "train_success": float(ckpt.train_success),
        "test_success": float(ckpt.test_success),
    }
    arrays = [np.asarray(a, dtype="<f8") for a in (ckpt.params, ckpt.adam.m, ckpt.adam.v)]
    arrays.append(np.asarray(ckpt.rng_words, dtype="<u8"))
    _write_container(path, CHECKPOINT_MAGIC, ckpt.version, meta, arrays)


def load_checkpoint(path: str) -> Checkpoint:
    return _read_container(
        path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        (CheckpointNotFoundError, CheckpointIntegrityError, CheckpointVersionError),
        lambda meta: [("<f8", (int(meta["n_params"]),))] * 3 + [("<u8", (STATE_WORDS,))],
        _decode_checkpoint,
    )


def _decode_checkpoint(meta: dict, arrays: list[np.ndarray]) -> Checkpoint:
    params, m, v, rng_words = arrays
    a = meta["adam"]
    return Checkpoint(
        run_id=str(meta["run_id"]),
        step=int(meta["step"]),
        trainer_kind=str(meta["trainer_kind"]),
        env_fingerprint=str(meta["env_fingerprint"]),
        params=params,
        slices=[(str(s[0]), int(s[1]), int(s[2])) for s in meta["slices"]],
        adam=AdamState(
            m=m, v=v, t=int(a["t"]), lr=float(a["lr"]),
            beta1=float(a["beta1"]), beta2=float(a["beta2"]), eps=float(a["eps"]),
        ),
        rng_seed=int(meta["rng_seed"]),
        rng_words=rng_words,
        train_success=float(meta["train_success"]),
        test_success=float(meta["test_success"]),
    )


# -- metrics logs -------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation: success rates at a step, with a stage marker."""

    step: int
    train_success: float
    test_success: float
    stage: int = 1
    stamp: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.step < 0:
            raise ConfigError("metrics step must be non-negative")
        for rate in (self.train_success, self.test_success):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"success rate {rate} outside [0, 1]")
        if self.stage not in (1, 2):
            raise ConfigError("stage marker must be 1 or 2")


def _format_record(rec: MetricsRecord) -> str:
    return f"{rec.step},{rec.train_success!r},{rec.test_success!r},{rec.stage},{rec.stamp!r}\n"


def _parse_line(line: str) -> MetricsRecord:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 fields, got {len(parts)}")
    return MetricsRecord(
        step=int(parts[0]),
        train_success=float(parts[1]),
        test_success=float(parts[2]),
        stage=int(parts[3]),
        stamp=float(parts[4]),
    )


def _last_step(log: bytes) -> int | None:
    """Step of the last line of `log` (which ends in a newline) that parses
    as a record, scanning back over the whole file; the header never does."""
    end = len(log)
    while end > 0:
        start = log.rfind(b"\n", 0, end - 1) + 1
        try:
            return _parse_line(log[start:end].decode("utf-8", errors="replace")).step
        except (ValueError, ConfigError):
            end = start
    return None


def check_metrics_order(path: str, step: int) -> bytes:
    """The complete lines of the log at `path` (empty if there is none);
    MetricsOrderError if `step` is below the step of its last record."""
    try:
        with open(path, "rb") as fh:
            log = fh.read()
    except FileNotFoundError:
        log = b""
    log = log[: log.rfind(b"\n") + 1]
    prev = _last_step(log)
    if prev is not None and step < prev:
        raise MetricsOrderError(f"step {step} after step {prev} in {path}")
    return log


def append_metrics(path: str, record: MetricsRecord) -> None:
    """Add one record by replacing the whole log; steps must never decrease
    within a file.  A partial last line, which only a log appended to in
    place can hold, is dropped."""
    if record.stamp == 0.0:
        record = MetricsRecord(
            record.step, record.train_success, record.test_success, record.stage, time.time()
        )
    log = check_metrics_order(path, record.step)
    replace_file(path, (log or (METRICS_HEADER + "\n").encode()) + _format_record(record).encode())


def read_metrics(path: str) -> list[MetricsRecord]:
    """Parse every complete record; a truncated final line is ignored, and a
    complete line that does not parse raises MetricsFormatError."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no metrics log at {path}")
    records: list[MetricsRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        if i == 0 and line.rstrip("\n") == METRICS_HEADER:
            continue
        if not line.endswith("\n"):
            break  # crash-truncated tail: the prefix is still valid
        try:
            rec = _parse_line(line)
        except (ValueError, ConfigError) as err:
            raise MetricsFormatError(f"{path}: line {i + 1}: {err}") from None
        if records and rec.step < records[-1].step:
            raise MetricsOrderError(f"{path}: step went backwards at line {i + 1}")
        records.append(rec)
    return records


# -- export -------------------------------------------------------------------


def export_trendline(history, path: str) -> None:
    """Plot-ready success-rate series; wall-clock stamps are dropped so
    re-exporting identical history is byte-identical."""
    history = list(history)
    if not history:
        raise ConfigError("cannot export an empty history")
    lines = [f"{r.step},{r.train_success!r},{r.test_success!r},{r.stage}\n" for r in history]
    replace_file(path, (TRENDLINE_HEADER + "\n" + "".join(lines)).encode())


def export_table(records, path: str) -> None:
    """Write grid-search rows (twostage.RunRecord) under the documented header."""
    records = list(records)
    if not records:
        raise ConfigError("cannot export an empty table")
    lines = [",".join(_cell(x) for x in rec.as_row()) + "\n" for rec in records]
    replace_file(path, (GRID_HEADER + "\n" + "".join(lines)).encode())


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# -- demonstration datasets ----------------------------------------------------


def save_demos(path: str, cfg: EnvConfig, demos: list[DemoTrajectory]) -> None:
    """Persist expert trajectories with the config fingerprint they came from."""
    if not demos:
        raise DemoFormatError("refusing to write an empty demo file")
    first = demos[0]
    n_points, channels = first.points.shape[1], first.points.shape[2]
    proprio_w, action_w = first.proprios.shape[1], first.actions.shape[1]
    episodes = []
    arrays = []
    for d in demos:
        T = d.actions.shape[0]
        if d.points.shape != (T, n_points, channels) or d.proprios.shape != (T, proprio_w):
            raise DemoFormatError("trajectories disagree on observation shape")
        if d.actions.shape != (T, action_w):
            raise DemoFormatError("trajectories disagree on action width")
        episodes.append({"length": int(T), "success": bool(d.success)})
        arrays += [np.asarray(a, dtype="<f8") for a in (d.points, d.proprios, d.actions)]
    meta = {
        "task": cfg.task,
        "fingerprint": cfg.fingerprint(),
        "count": len(demos),
        "n_points": int(n_points),
        "point_channels": int(channels),
        "proprio_width": int(proprio_w),
        "action_dim": int(action_w),
        "episodes": episodes,
    }
    _write_container(path, DEMO_MAGIC, DEMO_VERSION, meta, arrays)


def _demo_layout(meta: dict) -> list[tuple[str, tuple[int, ...]]]:
    """Points, proprios and actions of each trajectory in turn."""
    N, C = int(meta["n_points"]), int(meta["point_channels"])
    P, A = int(meta["proprio_width"]), int(meta["action_dim"])
    shapes = [((T, N, C), (T, P), (T, A)) for T in (int(ep["length"]) for ep in meta["episodes"])]
    return [("<f8", shape) for triple in shapes for shape in triple]


def load_demos(path: str) -> tuple[dict, list[DemoTrajectory]]:
    """Read a demo file back; returns (metadata, trajectories)."""

    def decode(meta: dict, arrays: list[np.ndarray]) -> tuple[dict, list[DemoTrajectory]]:
        if len(meta["episodes"]) != int(meta["count"]):
            raise DemoFormatError(f"{path}: episode count disagrees with header")
        trajectories = [
            DemoTrajectory(
                points=arrays[3 * i], proprios=arrays[3 * i + 1], actions=arrays[3 * i + 2],
                success=bool(ep["success"]),
            )
            for i, ep in enumerate(meta["episodes"])
        ]
        # the callers read these two; a file without them is damaged
        return {**meta, "task": str(meta["task"]), "fingerprint": str(meta["fingerprint"])}, trajectories

    return _read_container(
        path, "demo bundle", DEMO_MAGIC, DEMO_VERSION, (DemoFormatError,) * 3, _demo_layout, decode
    )
