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
episode's points, proprios and actions in turn, slices of an
envs.DemoDataset's pooled arrays, and a load pools them back into one.
A container is written as parts (header, metadata, each array's buffer,
checksum) and read through a view of the file's bytes, so neither side
copies the payload as a whole.

Metrics logs, trend lines and result tables are plain comma-separated
lines, each written by `_row`: the ``str`` of every field, which for a
float (a numpy scalar too) is its shortest round-trip text.  A record
becomes a row through ``dataclasses.astuple``; a log line adds the wall
clock of its append as a fifth field, which the reader checks and drops.
Steps are enforced non-decreasing over a whole log.  A log's one writer
holds it as a `MetricsLog`: `read_log` reads and checks the file once,
and each `append_metrics` writes the lines held plus one row, without
reading the file again.  Every file a run directory gets, the log
included, is written whole by `replace_file` (write a temporary file,
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
from dataclasses import astuple, dataclass

import numpy as np

from .envs import DemoDataset, EnvConfig
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

TRENDLINE_HEADER = "step,train_success,test_success,stage"
METRICS_HEADER = TRENDLINE_HEADER + ",stamp"
GRID_HEADER = "row,alpha,beta,batch,samples,train_success,test_success,seed,stage2_steps"

_HEAD = struct.Struct("<16sIIQ")  # magic, version, reserved, meta length
_CHECKSUM_BYTES = 8


def replace_file(path: str, *parts) -> None:
    """Write `parts`, bytes-like, in order as the whole of `path`: to a
    ``.tmp`` sibling, fsynced, then renamed over `path`, so a crash leaves
    the old file or the new one.  The directory is fsynced after the
    rename, so the new name is durable too; a write, fsync or rename that
    raises removes the ``.tmp`` file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
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


def _checksum(*parts) -> bytes:
    """The first bytes of SHA-256 over `parts`, bytes-like, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()[:_CHECKSUM_BYTES]


def _write_container(path: str, magic: bytes, version: int, meta: dict, arrays) -> None:
    """Write header, JSON metadata, each array's buffer in order, then the
    checksum, as parts through `replace_file`, so a crash never leaves a
    partial file and the payload is never copied whole."""
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    parts = [_HEAD.pack(magic, version, 0, len(meta_blob)), meta_blob, *map(np.ascontiguousarray, arrays)]
    replace_file(path, *parts, _checksum(*parts))


def _read_container(path: str, what: str, magic: bytes, version: int, errors, layout, decode):
    """Check a container file and decode it; returns decode(metadata, arrays).

    `layout(meta)` lists the (dtype, shape) of each stored array in order;
    decode gets each as a read-only view of the file's bytes, in the
    file's byte order, and copies what it keeps.
    `errors` is (missing, damaged, unknown): the error raised when there is
    no file, when it is damaged (too short, wrong magic, checksum mismatch,
    unreadable or overrunning metadata, metadata without an entry the kind
    needs or with one of the wrong type, a negative array dimension,
    entries that contradict each other, payload not the size the layout
    implies), and when its format version is not `version`.
    """
    missing, damaged, unknown = errors
    if not os.path.exists(path):
        raise missing(f"no {what} at {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD.size + _CHECKSUM_BYTES:
        raise damaged(f"{path}: file too short to be a {what}")
    body, trailer = memoryview(raw)[:-_CHECKSUM_BYTES], raw[-_CHECKSUM_BYTES:]
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
        meta = json.loads(str(body[_HEAD.size : offset], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise damaged(f"{path}: unreadable metadata block") from exc
    try:
        layout = [(np.dtype(dtype), shape) for dtype, shape in layout(meta)]
        if any(dim < 0 for _, shape in layout for dim in shape):
            raise damaged(f"{path}: metadata gives an array a negative dimension")
        need = sum(dtype.itemsize * math.prod(shape) for dtype, shape in layout)
        if len(body) - offset != need:
            raise damaged(f"{path}: payload holds {len(body) - offset} bytes, expected {need}")
        arrays = []
        for dtype, shape in layout:
            count = math.prod(shape)
            arrays.append(np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(shape))
            offset += dtype.itemsize * count
        return decode(meta, arrays)
    except KeyError as exc:
        raise damaged(f"{path}: metadata has no entry {exc}") from exc
    except (IndexError, TypeError, ValueError, ConfigError) as exc:  # ConfigError: it contradicts itself
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
    _write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays)


def load_checkpoint(path: str) -> Checkpoint:
    return _read_container(
        path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        (CheckpointNotFoundError, CheckpointIntegrityError, CheckpointVersionError),
        lambda meta: [("<f8", (int(meta["n_params"]),))] * 3 + [("<u8", (STATE_WORDS,))],
        _decode_checkpoint,
    )


def _decode_checkpoint(meta: dict, arrays: list[np.ndarray]) -> Checkpoint:
    params, m, v, rng_words = (stored.astype(stored.dtype.newbyteorder("=")) for stored in arrays)
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

    def __post_init__(self):
        if self.step < 0:
            raise ConfigError("metrics step must be non-negative")
        for rate in (self.train_success, self.test_success):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"success rate {rate} outside [0, 1]")
        if self.stage not in (1, 2):
            raise ConfigError("stage marker must be 1 or 2")


def _row(fields) -> str:
    """One CSV line: the str of each field, comma-joined."""
    return ",".join(map(str, fields)) + "\n"


def _parse_line(line: str) -> MetricsRecord:
    parts = line.split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 fields, got {len(parts)}")
    float(parts[4])  # the stamp: read, checked, not kept
    return MetricsRecord(int(parts[0]), float(parts[1]), float(parts[2]), int(parts[3]))


def _parse_log(path: str, lines: bytes) -> list[MetricsRecord]:
    """The records of `lines`, the complete lines of the log at `path`; the
    one rule that every reader of a log follows.  A complete line that is
    not the header, does not parse or goes back in step raises
    MetricsFormatError naming the file and the line."""
    records: list[MetricsRecord] = []
    for i, line in enumerate(lines.decode("utf-8", errors="replace").split("\n")[:-1]):
        if i == 0 and line == METRICS_HEADER:
            continue
        try:
            rec = _parse_line(line)
        except (ValueError, ConfigError) as err:
            raise MetricsFormatError(f"{path}: line {i + 1}: {err}") from None
        if records and rec.step < records[-1].step:
            raise MetricsFormatError(f"{path}: step went backwards at line {i + 1}")
        records.append(rec)
    return records


def _complete_lines(path: str) -> bytes:
    """The log at `path` up to its last newline: a partial last line, which
    only a log appended to in place can hold, is left out."""
    with open(path, "rb") as fh:
        log = fh.read()
    return log[: log.rfind(b"\n") + 1]


@dataclass
class MetricsLog:
    """A metrics log as its one writer holds it: the file's path, its
    complete lines (empty before the first append) and their records."""

    path: str
    lines: bytes
    records: list[MetricsRecord]

    def check_order(self, step: int) -> None:
        """MetricsOrderError if `step` is below the step of the last record."""
        if self.records and step < self.records[-1].step:
            raise MetricsOrderError(f"step {step} after step {self.records[-1].step} in {self.path}")


def read_log(path: str) -> MetricsLog:
    """The log at `path`, read and checked once by read_metrics' rule; an
    empty log when there is no file."""
    try:
        lines = _complete_lines(path)
    except FileNotFoundError:
        return MetricsLog(path, b"", [])
    return MetricsLog(path, lines, _parse_log(path, lines))


def append_metrics(log: MetricsLog, record: MetricsRecord) -> None:
    """Add one record by replacing the whole file with the lines `log`
    holds plus the record's, which ends with the wall clock; steps must
    never decrease.  The file is not read again: the log's one writer
    holds it, so an edit made to the file since it was read is replaced."""
    log.check_order(record.step)
    lines = (log.lines or (METRICS_HEADER + "\n").encode()) + _row(astuple(record) + (time.time(),)).encode()
    replace_file(log.path, lines)
    log.lines = lines
    log.records.append(record)


def read_metrics(path: str) -> list[MetricsRecord]:
    """Parse every complete record; a truncated final line is ignored, and a
    complete line that does not parse, or goes back in step, raises
    MetricsFormatError."""
    return _parse_log(path, _complete_lines(path))


# -- export -------------------------------------------------------------------


def _export(path: str, header: str, records) -> None:
    """Write `records`, dataclass rows, under `header`; refuses an empty list."""
    lines = [_row(astuple(rec)) for rec in records]
    if not lines:
        raise ConfigError(f"refusing to write an empty table to {path}")
    replace_file(path, (header + "\n" + "".join(lines)).encode())


def export_trendline(history, path: str) -> None:
    """Plot-ready success-rate series: the records hold no wall clock, so
    re-exporting identical history is byte-identical."""
    _export(path, TRENDLINE_HEADER, history)


def export_table(records, path: str) -> None:
    """Write grid-search rows (twostage.RunRecord) under the documented header."""
    _export(path, GRID_HEADER, records)


# -- demonstration datasets ----------------------------------------------------


def save_demos(path: str, cfg: EnvConfig, dataset: DemoDataset) -> None:
    """Persist a demo dataset with the config fingerprint it came from."""
    if dataset.fingerprint != cfg.fingerprint():
        raise ConfigError("demo dataset was recorded on a different environment")
    _, n_points, channels = dataset.points.shape
    meta = {
        "task": cfg.task,
        "fingerprint": cfg.fingerprint(),
        "count": len(dataset.lengths),
        "n_points": int(n_points),
        "point_channels": int(channels),
        "proprio_width": int(dataset.proprios.shape[1]),
        "action_dim": int(dataset.actions.shape[1]),
        "episodes": [{"length": int(T), "success": bool(s)} for T, s in zip(dataset.lengths, dataset.successes)],
    }
    arrays = [np.asarray(a, dtype="<f8") for episode in dataset.episodes() for a in episode]
    _write_container(path, DEMO_MAGIC, DEMO_VERSION, meta, arrays)


def _demo_layout(meta: dict) -> list[tuple[str, tuple[int, ...]]]:
    """Points, proprios and actions of each episode in turn."""
    N, C = int(meta["n_points"]), int(meta["point_channels"])
    P, A = int(meta["proprio_width"]), int(meta["action_dim"])
    shapes = [((T, N, C), (T, P), (T, A)) for T in (int(ep["length"]) for ep in meta["episodes"])]
    return [("<f8", shape) for triple in shapes for shape in triple]


def load_demos(path: str) -> DemoDataset:
    """Read a demo bundle back as the dataset saved, each array pooled from
    the episodes' slices in one copy."""

    def decode(meta: dict, arrays: list[np.ndarray]) -> DemoDataset:
        episodes, fingerprint = meta["episodes"], str(meta["fingerprint"])
        if len(episodes) != int(meta["count"]):
            raise DemoFormatError(f"{path}: episode count disagrees with header")
        if not fingerprint.startswith(f"task={meta['task']};"):
            raise DemoFormatError(f"{path}: task disagrees with the fingerprint")
        points, proprios, actions = (np.concatenate(arrays[i::3], dtype=np.float64) for i in range(3))
        lengths = tuple(int(ep["length"]) for ep in episodes)
        successes = tuple(bool(ep["success"]) for ep in episodes)
        return DemoDataset(points, proprios, actions, fingerprint, lengths, successes)

    return _read_container(
        path, "demo bundle", DEMO_MAGIC, DEMO_VERSION, (DemoFormatError,) * 3, _demo_layout, decode
    )
