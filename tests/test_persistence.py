"""Persistence tests: roundtrip bit-exactness, corruption handling, logs."""

import json
import os

import numpy as np
import pytest

from deskrl import envs, persistence as ps
from deskrl.errors import (
    CheckpointIntegrityError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    ConfigError,
    DemoFormatError,
    MetricsFormatError,
    MetricsOrderError,
)
from deskrl.nn import AdamState, ParamStore
from deskrl.rng import STATE_WORDS, make_generator, state_words
from deskrl.twostage import RunRecord


def make_checkpoint(seed=0, n_a=12, n_b=6):
    gen = make_generator("ckpt-test", seed)
    store = ParamStore()
    store.add("w", gen.normal(size=(3, n_a // 3)))
    store.add("b", gen.normal(size=(1, n_b)))
    n = store.size
    adam = AdamState(
        m=gen.normal(size=n), v=np.abs(gen.normal(size=n)), t=17, lr=1e-3
    )
    return ps.Checkpoint(
        run_id="run-07",
        step=4000,
        trainer_kind="ppo",
        env_fingerprint=envs.make_config("reach2d").fingerprint(),
        params=store.flat,
        slices=store.directory(),
        adam=adam,
        rng_seed=seed,
        rng_words=state_words(gen),
        train_success=0.625,
        test_success=0.4375,
    )


# -- checkpoint container ------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "a.ckpt")
    ckpt = make_checkpoint()
    ps.save_checkpoint(path, ckpt)
    back = ps.load_checkpoint(path)
    assert back.params.tobytes() == ckpt.params.tobytes()
    assert back.adam.m.tobytes() == ckpt.adam.m.tobytes()
    assert back.adam.v.tobytes() == ckpt.adam.v.tobytes()
    assert back.rng_words.tobytes() == ckpt.rng_words.tobytes()
    assert (back.adam.t, back.adam.lr, back.adam.beta1, back.adam.beta2, back.adam.eps) == (
        ckpt.adam.t, ckpt.adam.lr, ckpt.adam.beta1, ckpt.adam.beta2, ckpt.adam.eps
    )
    assert back.slices == ckpt.slices
    assert (back.run_id, back.step, back.trainer_kind) == ("run-07", 4000, "ppo")
    assert back.env_fingerprint == ckpt.env_fingerprint
    assert (back.train_success, back.test_success) == (0.625, 0.4375)
    assert back.rng_seed == 0
    with open(path, "rb") as fh:
        assert int.from_bytes(fh.read(20)[16:20], "little") == ps.CHECKPOINT_VERSION


def test_checkpoint_param_store_reconstruction(tmp_path):
    path = str(tmp_path / "b.ckpt")
    ckpt = make_checkpoint(seed=3)
    ps.save_checkpoint(path, ckpt)
    store = ps.load_checkpoint(path).param_store()
    assert [name for name, _, _ in store.directory()] == ["w", "b"]
    assert store.get("w").shape == (3, 4)
    assert store.flat.tobytes() == ckpt.params.tobytes()


def test_checkpoint_missing_file():
    with pytest.raises(CheckpointNotFoundError):
        ps.load_checkpoint("/nonexistent/path.ckpt")


def _write_checkpoint(path):
    ps.save_checkpoint(path, make_checkpoint())


def _write_demos(path):
    cfg = envs.make_config("reach2d", seed=5)
    ps.save_demos(path, cfg, envs.generate_demos(cfg, 2))


# file kind -> (writer, reader, error for a damaged file, error for an unknown version)
CONTAINERS = {
    "checkpoint": (_write_checkpoint, ps.load_checkpoint, CheckpointIntegrityError, CheckpointVersionError),
    "demos": (_write_demos, ps.load_demos, DemoFormatError, DemoFormatError),
}


def _resealed(path, edit):
    """Apply `edit` to the body of the file at path and write it back with
    a valid checksum, so only the edited field can make it fail."""
    blob = bytearray(open(path, "rb").read())[: -ps._CHECKSUM_BYTES]
    edit(blob)
    body = bytes(blob)
    open(path, "wb").write(body + ps._checksum(body))


def _without_meta_key(path, key):
    """Rewrite the file at path with `key` dropped from its metadata, under
    a valid checksum and a matching metadata length."""
    _with_meta(path, lambda meta: meta.pop(key))


def _with_meta(path, edit):
    """Rewrite the file at path with edit(metadata dict) applied in place,
    under a valid checksum and a matching metadata length."""
    blob = open(path, "rb").read()[: -ps._CHECKSUM_BYTES]
    magic, version, reserved, meta_len = ps._HEAD.unpack_from(blob, 0)
    meta = json.loads(blob[ps._HEAD.size : ps._HEAD.size + meta_len])
    edit(meta)
    meta_blob = json.dumps(meta).encode("utf-8")
    body = ps._HEAD.pack(magic, version, reserved, len(meta_blob)) + meta_blob + blob[ps._HEAD.size + meta_len :]
    open(path, "wb").write(body + ps._checksum(body))


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_missing_meta_key(kind, tmp_path):
    # every metadata entry a reader needs: without it the file is damaged
    write, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "k.bin")
    write(path)
    blob = open(path, "rb").read()
    meta_len = ps._HEAD.unpack_from(blob, 0)[3]
    keys = json.loads(blob[ps._HEAD.size : ps._HEAD.size + meta_len])
    for key in keys:
        open(path, "wb").write(blob)
        _without_meta_key(path, key)
        with pytest.raises(damaged, match=key):
            read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_truncation_always_detected(kind, tmp_path):
    write, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "c.bin")
    write(path)
    blob = open(path, "rb").read()
    for cut in (len(blob) - 3, len(blob) // 2, 20):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(damaged):
            read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_bitflip_detected(kind, tmp_path):
    write, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "d.bin")
    write(path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x40
    open(path, "wb").write(bytes(blob))
    with pytest.raises(damaged):
        read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_wrong_magic(kind, tmp_path):
    _, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "e.bin")
    open(path, "wb").write(b"\x00" * 64)
    with pytest.raises(damaged):
        read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_unknown_version(kind, tmp_path):
    # a future-version file with a valid checksum must fail on version,
    # not on integrity
    write, read, _, unknown = CONTAINERS[kind]
    path = str(tmp_path / "f.bin")
    write(path)
    _resealed(path, lambda blob: blob.__setitem__(slice(16, 20), (99).to_bytes(4, "little")))
    with pytest.raises(unknown):
        read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_metadata_overrun(kind, tmp_path):
    # a metadata length past the end of the file, under a valid checksum
    write, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "g.bin")
    write(path)
    _resealed(path, lambda blob: blob.__setitem__(slice(24, 32), len(blob).to_bytes(8, "little")))
    with pytest.raises(damaged):
        read(path)


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_payload_length_checked(kind, tmp_path):
    # eight bytes past the payload the metadata describes, under a valid checksum
    write, read, damaged, _ = CONTAINERS[kind]
    path = str(tmp_path / "h.bin")
    write(path)
    _resealed(path, lambda blob: blob.extend(bytes(8)))
    with pytest.raises(damaged):
        read(path)


def _swap_demo_lengths(meta):
    # the two episodes' lengths become (T0 + T1 + 1, -1): the same row total
    first, second = meta["episodes"]
    first["length"], second["length"] = first["length"] + second["length"] + 1, -1


# file kind -> case -> (metadata edit that keeps the checksum and contradicts
# the file itself, what the error says); each must read as a damaged file,
# not as a config error
CONTRADICTIONS = {
    "checkpoint": {
        "negative_n_params": (lambda meta: meta.__setitem__("n_params", -1), "negative dimension"),
        "slices_short_of_the_vector": (
            lambda meta: meta["slices"][0].__setitem__(1, meta["slices"][0][1] + 1), "slice directory covers"
        ),
        "unknown_trainer_kind": (lambda meta: meta.__setitem__("trainer_kind", "sac"), "trainer kind"),
    },
    "demos": {
        "negative_point_count": (lambda meta: meta.__setitem__("n_points", -1), "negative dimension"),
        "negative_episode_length": (_swap_demo_lengths, "negative dimension"),
    },
}


@pytest.mark.parametrize(
    "kind, case", [(kind, case) for kind in sorted(CONTRADICTIONS) for case in CONTRADICTIONS[kind]]
)
def test_container_contradictory_metadata(kind, case, tmp_path):
    write, read, damaged, _ = CONTAINERS[kind]
    edit, says = CONTRADICTIONS[kind][case]
    path = str(tmp_path / "i.bin")
    write(path)
    _with_meta(path, edit)
    with pytest.raises(damaged, match=says):
        read(path)


def test_checkpoint_field_validation():
    ckpt = make_checkpoint()
    with pytest.raises(ConfigError):
        ps.Checkpoint(
            run_id="x", step=0, trainer_kind="sac",
            env_fingerprint="", params=ckpt.params, slices=ckpt.slices,
            adam=ckpt.adam, rng_seed=0, rng_words=ckpt.rng_words,
            train_success=0.0, test_success=0.0,
        )
    with pytest.raises(ConfigError):
        ps.Checkpoint(
            run_id="x", step=0, trainer_kind="ppo",
            env_fingerprint="", params=ckpt.params[:-1], slices=ckpt.slices,
            adam=ckpt.adam, rng_seed=0, rng_words=ckpt.rng_words,
            train_success=0.0, test_success=0.0,
        )
    with pytest.raises(ConfigError):
        ps.Checkpoint(
            run_id="x", step=0, trainer_kind="ppo",
            env_fingerprint="", params=ckpt.params, slices=ckpt.slices,
            adam=ckpt.adam, rng_seed=0, rng_words=np.zeros(5, dtype=np.uint64),
            train_success=0.0, test_success=0.0,
        )


# -- metrics log ----------------------------------------------------------------


def test_metrics_append_then_read_back(tmp_path):
    path = str(tmp_path / "m.csv")
    rec = ps.MetricsRecord(step=100, train_success=0.5, test_success=0.25, stage=1)
    ps.append_metrics(ps.read_log(path), rec)
    assert ps.read_metrics(path) == [rec]
    stamp = open(path).read().splitlines()[1].split(",")[4]
    assert float(stamp) > 0.0  # the line carries a real wall-clock stamp


def test_metrics_rejects_backwards_step(tmp_path):
    path = str(tmp_path / "m.csv")
    log = ps.read_log(path)
    ps.append_metrics(log, ps.MetricsRecord(200, 0.5, 0.5, 1))
    ps.append_metrics(log, ps.MetricsRecord(200, 0.6, 0.5, 2))  # equal is fine
    before = open(path, "rb").read()
    with pytest.raises(MetricsOrderError, match=r"step 199 after step 200 in .*m\.csv"):
        ps.append_metrics(log, ps.MetricsRecord(199, 0.5, 0.5, 2))
    assert open(path, "rb").read() == before and [r.step for r in log.records] == [200, 200]
    # a log read back from the file refuses it the same way
    with pytest.raises(MetricsOrderError):
        ps.append_metrics(ps.read_log(path), ps.MetricsRecord(199, 0.5, 0.5, 2))


def test_metrics_order_check_reads_past_a_long_malformed_line(tmp_path):
    # the check reads the whole log by read_metrics' rules: a malformed last
    # line, however long, is refused, not scanned back over
    path = tmp_path / "m.csv"
    path.write_text(ps.METRICS_HEADER + "\n12345,0.5,0.5,1,0.0\n" + "x" * 4091 + "\n")
    before = path.read_bytes()
    with pytest.raises(MetricsFormatError, match=r"m\.csv: line 3"):
        ps.append_metrics(ps.read_log(str(path)), ps.MetricsRecord(100, 0.5, 0.5, 1))
    assert path.read_bytes() == before


def test_metrics_record_validation():
    with pytest.raises(ConfigError):
        ps.MetricsRecord(-1, 0.5, 0.5, 1)
    with pytest.raises(ConfigError):
        ps.MetricsRecord(0, 1.5, 0.5, 1)
    with pytest.raises(ConfigError):
        ps.MetricsRecord(0, 0.5, -0.1, 1)
    with pytest.raises(ConfigError):
        ps.MetricsRecord(0, 0.5, 0.5, 3)


def test_metrics_bulk_10k_appends(tmp_path, monkeypatch):
    # the fsyncs are counted, not made: each append must still sync the
    # new file and then its directory, and 20 000 real ones cost seconds
    synced = []
    monkeypatch.setattr(ps.os, "fsync", synced.append)
    path = str(tmp_path / "bulk.csv")
    log = ps.read_log(path)
    for i in range(10_000):
        ps.append_metrics(log, ps.MetricsRecord(i, 0.5, 0.5, 1 if i < 5000 else 2))
    assert len(synced) == 2 * 10_000
    back = ps.read_metrics(path)
    assert back == log.records
    assert len(back) == 10_000
    assert back[0].step == 0 and back[-1].step == 9_999


def test_metrics_ignores_crash_truncated_tail(tmp_path):
    path = str(tmp_path / "m.csv")
    log = ps.read_log(path)
    for i in range(3):
        ps.append_metrics(log, ps.MetricsRecord(i, 0.1, 0.2, 1))
    with open(path, "a") as fh:
        fh.write("3,0.5,0.5")  # no newline: crashed mid-write
    back = ps.read_metrics(path)
    assert [r.step for r in back] == [0, 1, 2]
    # and appending afterwards still enforces order against the last full line
    ps.append_metrics(ps.read_log(path), ps.MetricsRecord(2, 0.3, 0.4, 2))


def test_metrics_append_after_crash_tail_keeps_every_record(tmp_path):
    # a resumed run appends after a crash mid-write: the partial line is
    # cut, so it cannot fuse with the new record into a malformed line
    path = str(tmp_path / "m.csv")
    log = ps.read_log(path)
    for i in range(3):
        ps.append_metrics(log, ps.MetricsRecord(i, 0.1, 0.2, 1))
    with open(path, "a") as fh:
        fh.write("3,0.5,0.5")
    ps.append_metrics(ps.read_log(path), ps.MetricsRecord(2, 0.3, 0.4, 2))
    back = ps.read_metrics(path)
    assert [(r.step, r.train_success, r.stage) for r in back] == [
        (0, 0.1, 1), (1, 0.1, 1), (2, 0.1, 1), (2, 0.3, 2)
    ]


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    # the rename inside append_metrics fails: the log keeps its old bytes,
    # the held log its old lines, and the run directory holds no
    # metrics.csv.tmp afterwards
    path = str(tmp_path / "metrics.csv")
    log = ps.read_log(path)
    ps.append_metrics(log, ps.MetricsRecord(0, 0.1, 0.2, 1))
    before = open(path, "rb").read()

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(ps.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        ps.append_metrics(log, ps.MetricsRecord(1, 0.1, 0.2, 1))
    assert sorted(os.listdir(tmp_path)) == ["metrics.csv"]
    assert open(path, "rb").read() == before
    assert log == ps.read_log(path)


def test_metrics_append_after_partial_header_writes_the_header(tmp_path):
    path = str(tmp_path / "m.csv")
    with open(path, "w") as fh:
        fh.write(ps.METRICS_HEADER[:9])
    ps.append_metrics(ps.read_log(path), ps.MetricsRecord(0, 0.1, 0.2, 1))
    assert open(path).readline() == ps.METRICS_HEADER + "\n"
    assert [r.step for r in ps.read_metrics(path)] == [0]


def test_metrics_append_keeps_complete_bytes(tmp_path, monkeypatch):
    path = str(tmp_path / "m.csv")
    log = ps.read_log(path)
    monkeypatch.setattr(ps.time, "time", lambda: 1.5)
    ps.append_metrics(log, ps.MetricsRecord(0, 0.1, 0.2, 1))
    before = open(path, "rb").read()
    monkeypatch.setattr(ps.time, "time", lambda: 2.5)
    ps.append_metrics(log, ps.MetricsRecord(1, 0.1, 0.2, 1))
    assert open(path, "rb").read() == before + b"1,0.1,0.2,1,2.5\n"
    assert log == ps.read_log(path)  # the held lines are the file's


def test_metrics_file_is_valid_prefix_under_line_truncation(tmp_path):
    path = str(tmp_path / "m.csv")
    log = ps.read_log(path)
    for i in range(5):
        ps.append_metrics(log, ps.MetricsRecord(i * 10, 0.1, 0.2, 1))
    lines = open(path).readlines()
    open(path, "w").writelines(lines[:3])  # header + 2 records
    assert [r.step for r in ps.read_metrics(path)] == [0, 10]


@pytest.mark.parametrize(
    "line",
    ["10,0.5,0.5,1\n", "10,0.5,half,1,0.0\n", "10,0.5,0.5,1,0.0,7\n", "10,1.5,0.5,1,0.0\n"],
)
def test_metrics_malformed_complete_line_names_path_and_line(tmp_path, line):
    # a complete line mid-log is not a crash tail: it must not be skipped
    # and must not escape as a bare ValueError or a ConfigError
    path = str(tmp_path / "m.csv")
    ps.append_metrics(ps.read_log(path), ps.MetricsRecord(0, 0.1, 0.2, 1))
    with open(path, "a") as fh:
        fh.write(line)
    before = open(path, "rb").read()
    with pytest.raises(MetricsFormatError, match=r"m\.csv: line 3"):
        ps.append_metrics(ps.read_log(path), ps.MetricsRecord(20, 0.1, 0.2, 1))
    assert open(path, "rb").read() == before
    with pytest.raises(MetricsFormatError, match=r"m\.csv: line 3"):
        ps.read_metrics(path)


def test_metrics_append_refuses_a_log_that_does_not_read(tmp_path):
    # appends and reads follow one rule: once a complete line does not
    # parse, the append that follows it fails and writes nothing
    path = str(tmp_path / "m.csv")
    ps.append_metrics(ps.read_log(path), ps.MetricsRecord(10, 0.5, 0.5, 1))
    with open(path, "a") as fh:
        fh.write("garbage,line\n")
    before = open(path, "rb").read()
    with pytest.raises(MetricsFormatError, match="line 3: expected 5 fields, got 2"):
        ps.append_metrics(ps.read_log(path), ps.MetricsRecord(20, 0.5, 0.5, 1))
    with pytest.raises(MetricsFormatError, match="line 3"):
        ps.read_metrics(path)
    assert open(path, "rb").read() == before


def test_metrics_append_refuses_a_log_whose_steps_go_back(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(ps.METRICS_HEADER + "\n20,0.5,0.5,1,0.0\n10,0.5,0.5,1,0.0\n")
    with pytest.raises(MetricsFormatError, match="step went backwards at line 3"):
        ps.append_metrics(ps.read_log(str(path)), ps.MetricsRecord(30, 0.5, 0.5, 1))
    with pytest.raises(MetricsFormatError, match="step went backwards at line 3"):
        ps.read_metrics(str(path))


def test_metrics_missing_file():
    with pytest.raises(FileNotFoundError):
        ps.read_metrics("/nonexistent/metrics.csv")


@pytest.mark.parametrize(
    "section, header",
    [
        ("Metrics logs", ps.METRICS_HEADER),
        ("Trend lines", ps.TRENDLINE_HEADER),
        ("Result tables", ps.GRID_HEADER),
    ],
)
def test_documented_headers_match_the_writers(section, header):
    doc = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "FORMATS.md")
    with open(doc, encoding="utf-8") as fh:
        body = fh.read().split(f"\n## {section}")[1].split("\n## ")[0]
    assert [line.strip() for line in body.splitlines() if line.startswith("    ")] == [header]


# -- exports ---------------------------------------------------------------------


def test_trendline_single_entry(tmp_path):
    path = str(tmp_path / "trend.csv")
    ps.export_trendline([ps.MetricsRecord(100, 0.5, 0.25, 1)], path)
    lines = open(path).read().splitlines()
    assert lines == ["step,train_success,test_success,stage", "100,0.5,0.25,1"]


def test_trendline_reexport_is_byte_identical(tmp_path, monkeypatch):
    # two logs of the same records, appended at two clocks, export the same bytes
    exports = []
    for clock in (1.0, 999.0):
        monkeypatch.setattr(ps.time, "time", lambda: clock)
        log, trend = str(tmp_path / f"m{clock}.csv"), str(tmp_path / f"t{clock}.csv")
        held = ps.read_log(log)
        for i in range(1, 5):
            ps.append_metrics(held, ps.MetricsRecord(i, 0.1 * i, 0.05 * i, 1))
        ps.export_trendline(ps.read_metrics(log), trend)
        exports.append(open(trend, "rb").read())
    assert exports[0] == exports[1]
    assert open(str(tmp_path / "m1.0.csv"), "rb").read() != open(str(tmp_path / "m999.0.csv"), "rb").read()


def test_trendline_rejects_empty(tmp_path):
    with pytest.raises(ConfigError):
        ps.export_trendline([], str(tmp_path / "t.csv"))


TABLE_I_ROWS = [
    RunRecord(1, 1.0, 1.0, 330, 20000, 0.65, 0.60, 0, 0),
    RunRecord(2, 0.9, 1.0, 297, 20000, 0.71, 0.59, 0, 0),
    RunRecord(3, 0.8, 1.0, 264, 20000, 0.57, 0.49, 0, 0),
    RunRecord(4, 0.7, 1.0, 231, 20000, 0.67, 0.59, 0, 0),
    RunRecord(5, 0.9, 0.875, 297, 17500, 0.72, 0.67, 0, 0),
    RunRecord(6, 0.8, 0.875, 264, 17500, 0.65, 0.59, 0, 0),
    RunRecord(7, 0.7, 0.875, 231, 17500, 0.66, 0.60, 0, 0),
    RunRecord(8, 0.9, 0.75, 297, 15000, 0.65, 0.58, 0, 0),
    RunRecord(9, 0.8, 0.75, 264, 15000, 0.66, 0.55, 0, 0),
    RunRecord(10, 0.7, 0.75, 231, 15000, 0.64, 0.54, 0, 0),
]


def test_table_export_shape_and_order(tmp_path):
    path = str(tmp_path / "grid.csv")
    ps.export_table(TABLE_I_ROWS, path)
    lines = open(path).read().splitlines()
    assert lines[0] == ps.GRID_HEADER
    assert len(lines) == 11
    assert lines[1].startswith("1,1.0,1.0,330,20000,")
    assert lines[5].startswith("5,0.9,0.875,297,17500,")


def test_table_reexport_is_byte_identical(tmp_path):
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    ps.export_table(TABLE_I_ROWS, pa)
    ps.export_table(TABLE_I_ROWS, pb)
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_table_rejects_empty(tmp_path):
    with pytest.raises(ConfigError):
        ps.export_table([], str(tmp_path / "g.csv"))


# -- demo files -------------------------------------------------------------------


def test_demo_roundtrip_bit_exact(tmp_path):
    # a dataset saved and loaded back equals the generated one bit for bit,
    # on every task, every episode kept: episodes pooled back in another
    # order would not give the generated arrays
    path = str(tmp_path / "demos.bin")
    for task in envs.TASKS:
        cfg = envs.make_config(task, seed=7)
        demos = envs.generate_demos(cfg, 5, keep_only_success=False)
        ps.save_demos(path, cfg, demos)
        back = ps.load_demos(path)
        for name in ("points", "proprios", "actions"):
            a, b = getattr(back, name), getattr(demos, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (task, name)
            assert a.flags.writeable and a.flags.c_contiguous  # a copy, not a view of the file's bytes
        assert (back.fingerprint, back.lengths, back.successes) == (demos.fingerprint, demos.lengths, demos.successes)


def test_demos_from_another_environment_are_refused(tmp_path):
    cfg = envs.make_config("reach2d", seed=5)
    demos = envs.generate_demos(cfg, 2)
    with pytest.raises(ConfigError):
        ps.save_demos(str(tmp_path / "demos.bin"), envs.make_config("reach2d", horizon=cfg.horizon + 1), demos)
    assert not (tmp_path / "demos.bin").exists()


def test_demo_corruption_detected(tmp_path):
    path = str(tmp_path / "demos.bin")
    cfg = envs.make_config("reach2d", seed=5)
    ps.save_demos(path, cfg, envs.generate_demos(cfg, 2))
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0x01
    open(path, "wb").write(bytes(blob))
    with pytest.raises(DemoFormatError):
        ps.load_demos(path)


def test_demo_missing_and_wrong_file(tmp_path):
    with pytest.raises(DemoFormatError):
        ps.load_demos(str(tmp_path / "missing.bin"))
    path = str(tmp_path / "not_demos.bin")
    open(path, "wb").write(b"\x01" * 128)
    with pytest.raises(DemoFormatError):
        ps.load_demos(path)


def test_numpy_scalar_fields_write_the_bytes_of_python_floats(tmp_path, monkeypatch):
    # every table line goes through one writer: a numpy scalar writes the
    # text of the Python float it equals, and the log it lands in reads back
    monkeypatch.setattr(ps.time, "time", lambda: 1.5)
    files = []
    for cast in (float, np.float64):
        log, table = str(tmp_path / f"{cast.__name__}-m.csv"), str(tmp_path / f"{cast.__name__}-g.csv")
        ps.append_metrics(ps.read_log(log), ps.MetricsRecord(10, cast(0.25), cast(0.25), 1))
        ps.export_table([RunRecord(1, cast(0.9), 1.0, 8, 16, cast(0.25), cast(0.25), 0, 4)], table)
        assert ps.read_metrics(log) == [ps.MetricsRecord(10, 0.25, 0.25, 1)]
        files.append((open(log, "rb").read(), open(table, "rb").read()))
    assert files[1] == files[0]
    assert files[0][0].endswith(b"\n10,0.25,0.25,1,1.5\n")
    assert files[0][1].endswith(b"\n1,0.9,1.0,8,16,0.25,0.25,0,4\n")
