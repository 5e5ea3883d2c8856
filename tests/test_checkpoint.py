"""Tests for the crash-safe checkpoint store and resume.

Covers the frame validation (torn, bad magic, checksum mismatch),
rotation, recovery past corrupt files, recovery past stale files whose
engine blob no longer unpickles, full-scenario resume, and the
journal-evicted caches (touch ledger, resolver memo) after a restore.
"""

import os
import pickle
from datetime import datetime

import pytest

from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.core.export import dataset_to_json
from repro.obs import OBS, MetricsRegistry
from repro.pipeline.engine import Checkpoint, PipelineEngine
from tests.oracles.ct_scan import reference_first_issuance
from repro.pipeline.store import (
    CheckpointCorruptError,
    CheckpointStore,
    atomic_write_bytes,
    decode_checkpoint,
    encode_checkpoint,
)

T0 = datetime(2020, 1, 6)


# -- checkpoint frame ------------------------------------------------------


def _checkpoint(week=3):
    return Checkpoint(week_index=week, at=T0, blob=b"engine-state-" * 64)


def test_checkpoint_frame_roundtrips():
    ckpt = _checkpoint()
    assert decode_checkpoint(encode_checkpoint(ckpt)) == ckpt


def test_checkpoint_frame_rejects_torn_and_corrupt_data():
    data = encode_checkpoint(_checkpoint())
    with pytest.raises(CheckpointCorruptError, match="torn header"):
        decode_checkpoint(data[:10])
    with pytest.raises(CheckpointCorruptError, match="bad magic"):
        decode_checkpoint(b"XXXX" + data[4:])
    with pytest.raises(CheckpointCorruptError, match="torn payload"):
        decode_checkpoint(data[:-7])
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
        decode_checkpoint(bytes(flipped))


def test_checkpoint_frame_rejects_wrong_payload_type():
    import hashlib
    import struct

    payload = pickle.dumps({"not": "a checkpoint"}, protocol=pickle.HIGHEST_PROTOCOL)
    framed = (
        struct.pack("<4sHQ", b"RCKP", 1, len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )
    with pytest.raises(CheckpointCorruptError, match="not Checkpoint"):
        decode_checkpoint(framed)


# -- checkpoint store ------------------------------------------------------


def test_store_save_load_latest_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load_latest() is None
    assert store.last_recovery.loaded is None
    store.save(_checkpoint(week=1))
    store.save(_checkpoint(week=2))
    loaded = store.load_latest()
    assert loaded.week_index == 2
    assert store.last_recovery.loaded is not None
    assert store.last_recovery.skipped == []


def test_store_rotates_to_keep_last_n(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for week in range(5):
        store.save(_checkpoint(week=week))
    paths = store.paths()
    assert len(paths) == 2
    # Sequence numbers keep increasing across rotation.
    assert [os.path.basename(p)[:11] for p in paths] == ["ckpt-000003", "ckpt-000004"]
    assert store.load_latest().week_index == 4


def test_store_recovery_skips_torn_and_corrupt_files(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(_checkpoint(week=1))
    good = store.save(_checkpoint(week=2))
    torn = store.save(_checkpoint(week=3))
    with open(torn, "r+b") as handle:
        handle.truncate(os.path.getsize(torn) // 2)
    loaded = store.load_latest()
    assert loaded.week_index == 2
    report = store.last_recovery
    assert report.loaded == os.path.basename(good)
    assert [name for name, _ in report.skipped] == [os.path.basename(torn)]
    assert "torn payload" in report.skipped[0][1]
    # Corrupt files are evidence, not garbage: never deleted.
    assert os.path.exists(torn)


def test_store_recovery_reports_every_reason(tmp_path):
    store = CheckpointStore(tmp_path, keep=4)
    store.save(_checkpoint(week=1))
    bad_magic = store.save(_checkpoint(week=2))
    data = open(bad_magic, "rb").read()
    atomic_write_bytes(bad_magic, b"JUNK" + data[4:])
    empty = os.path.join(store.directory, "ckpt-999998-w0009.ckpt")
    open(empty, "wb").close()
    assert store.load_latest().week_index == 1
    reasons = dict(store.last_recovery.skipped)
    assert "bad magic" in reasons[os.path.basename(bad_magic)]
    assert "torn header" in reasons[os.path.basename(empty)]


def test_atomic_write_failure_leaves_target_and_no_tmp_litter(tmp_path, monkeypatch):
    target = tmp_path / "dataset.json"
    target.write_text("precious")
    # Temp file cannot even be created (parent directory gone).
    with pytest.raises(OSError):
        atomic_write_bytes(str(tmp_path / "nope" / "dataset.json"), b"x")
    # Crash between the temp write and the rename: the old target stays
    # whole and the temp file is cleaned up.
    monkeypatch.setattr(
        os, "replace",
        lambda src, dst: (_ for _ in ()).throw(OSError("simulated crash at rename")),
    )
    with pytest.raises(OSError, match="simulated crash"):
        atomic_write_bytes(str(target), b"half-written")
    monkeypatch.undo()
    assert target.read_text() == "precious"
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.json"]


# -- full-scenario resume --------------------------------------------------


def test_resume_requires_a_store():
    with pytest.raises(ValueError, match="checkpoint_store"):
        run_scenario(ScenarioConfig.tiny(), resume=True)


def test_interrupted_run_resumes_past_corrupt_newest_checkpoint(tmp_path):
    config = ScenarioConfig.tiny()
    config.weeks = 6
    full = run_scenario(config)
    golden = dataset_to_json(full.dataset, indent=2)

    store = CheckpointStore(tmp_path)
    config2 = ScenarioConfig.tiny()
    config2.weeks = 6
    engine = build_scenario(config2)
    engine.run(max_weeks=4, checkpoint_every=2, on_checkpoint=store.save)
    newest = store.paths()[-1]
    with open(newest, "r+b") as handle:
        handle.truncate(os.path.getsize(newest) // 3)

    resumed = run_scenario(None, checkpoint_store=store, resume=True)
    assert resumed.weeks_run == 6
    report = store.last_recovery
    assert report.loaded is not None
    assert [name for name, _ in report.skipped] == [os.path.basename(newest)]
    assert dataset_to_json(resumed.dataset, indent=2) == golden


def test_resume_skips_checkpoint_whose_engine_no_longer_unpickles(tmp_path):
    config = ScenarioConfig.tiny()
    config.weeks = 6
    golden = dataset_to_json(run_scenario(config).dataset, indent=2)

    store = CheckpointStore(tmp_path)
    config2 = ScenarioConfig.tiny()
    config2.weeks = 6
    engine = build_scenario(config2)
    engine.run(max_weeks=2, checkpoint_every=2, on_checkpoint=store.save)
    # An intact frame whose engine blob pickles a class from a module
    # this build does not have — what a checkpoint written by an older
    # build looks like once a module it pickled has been removed.
    stale = store.save(
        Checkpoint(week_index=4, at=T0, blob=b"crepro_retired_module\nEngine\n.")
    )

    resumed = run_scenario(None, checkpoint_store=store, resume=True)
    assert resumed.weeks_run == 6
    report = store.last_recovery
    assert report.loaded is not None
    ((name, reason),) = report.skipped
    assert name == os.path.basename(stale)
    assert "does not unpickle" in reason
    assert "ModuleNotFoundError" in reason and "repro_retired_module" in reason
    # Stale files are evidence too: never deleted.
    assert os.path.exists(stale)
    assert dataset_to_json(resumed.dataset, indent=2) == golden


def test_resume_rebuilds_the_ct_first_issuance_index(tmp_path):
    """Checkpoints hold the CT log without its index, as older builds wrote it.

    Resume rebuilds the index from the log entries: no stage tick fails
    (the scenario engine degrades a raising stage to a dead-lettered
    tick), the export is the straight run's and every lookup equals the
    scan.
    """
    config = ScenarioConfig.tiny()
    config.weeks = 6
    golden = dataset_to_json(run_scenario(config).dataset, indent=2)

    store = CheckpointStore(tmp_path)
    config2 = ScenarioConfig.tiny()
    config2.weeks = 6
    engine = build_scenario(config2)
    engine.run(max_weeks=4, checkpoint_every=2, on_checkpoint=store.save)
    with open(store.paths()[-1], "rb") as handle:
        assert b"_first_exact" not in handle.read()

    resumed = run_scenario(None, checkpoint_store=store, resume=True)
    assert resumed.weeks_run == 6
    assert not [r for r in resumed.dead_letters if r.item == "<stage-tick>"]
    assert dataset_to_json(resumed.dataset, indent=2) == golden
    ct_log = resumed.internet.ct_log
    names = {san.lstrip("*.") for e in ct_log.entries() for san in e.certificate.sans}
    assert names
    for name in sorted(names | {f"www.{n}" for n in names}):
        assert ct_log.first_issuance_for(name) == reference_first_issuance(ct_log, name)


def test_restore_latest_returns_none_when_every_file_is_stale(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(Checkpoint(week_index=1, at=T0, blob=b"crepro_retired_module\nX\n."))
    assert store.restore_latest() is None
    assert store.last_recovery.loaded is None
    assert len(store.last_recovery.skipped) == 1


def _edit_a_proven_name(engine):
    """Redeploy the first clean-skippable name's site through the journal."""
    result = engine.payload
    monitor = result.monitor
    fqdn = next(
        f for f in result.collector.monitored_sorted
        if monitor.touch_ledger.get(f) is not None
    )
    latest = monitor.store.latest(fqdn)
    site = result.internet.network.host_at(latest.addresses[0]).site_for(fqdn)
    site.put_index("<html><head><title>edited after resume</title></head></html>")
    return fqdn


def test_restored_touch_ledger_follows_the_restored_journal():
    def tiny():
        config = ScenarioConfig.tiny()
        config.weeks = 8
        return config

    straight = build_scenario(tiny())
    straight.run(max_weeks=5)
    straight_fqdn = _edit_a_proven_name(straight)
    straight.run()

    engine = build_scenario(tiny())
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        engine.run(max_weeks=5)
    finally:
        OBS.reset()
    assert registry.counters().get("journal.clean_skips", 0) > 0
    resumed = PipelineEngine.restore(engine.checkpoint())
    fqdn = _edit_a_proven_name(resumed)
    assert fqdn == straight_fqdn
    # The restored ledger caught up with the restored journal: the
    # edit evicted the proof, so the next sweep re-samples the name.
    monitor = resumed.payload.monitor
    assert monitor.touch_ledger.get(fqdn) is None
    states = len(monitor.store.history(fqdn))
    resumed.run(max_weeks=1)
    history = monitor.store.history(fqdn)
    assert len(history) == states + 1
    assert history[-1].features.title == "edited after resume"
    resumed.run()
    assert dataset_to_json(resumed.payload.dataset, indent=2) == dataset_to_json(
        straight.payload.dataset, indent=2
    )
