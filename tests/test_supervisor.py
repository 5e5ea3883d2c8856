"""Tests for the self-healing sweep supervisor and the checkpoint store.

Covers the failure model end to end: workers killed by SIGKILL
mid-shard, workers hung past the deadline, truncated result payloads,
poison-shard bisection down to the single offending FQDN, and the
determinism contract that a recovered sweep's results are identical to
a fault-free run's (modulo quarantined names).  The checkpoint half
covers the frame validation (torn, bad magic, checksum mismatch),
rotation, recovery past corrupt files, and full-scenario resume.
"""

import os
import pickle
from datetime import datetime, timedelta

import pytest

from repro.core.monitoring import WeeklyMonitor
from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.core.export import dataset_to_json
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.parallel import (
    ProcessExecutor,
    SupervisorConfig,
    run_shards_supervised,
)
from repro.parallel.shard import partition
from repro.parallel import supervisor as supervisor_module
from repro.pipeline.engine import Checkpoint, PipelineEngine
from repro.pipeline.store import (
    CheckpointCorruptError,
    CheckpointStore,
    atomic_write_bytes,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.world.internet import Internet
from tests.oracles.serial_sweep import sweep

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


def _world(n=8, fault_config=None):
    internet = Internet(RngStreams(7), SimClock())
    azure = internet.catalog.provider("Azure")
    zone = internet.zones.create_zone("acme.com")
    fqdns = []
    for i in range(n):
        resource = azure.provision("azure-web-app", f"acme-svc{i}", owner="org:acme", at=T0)
        fqdn = f"svc{i}.acme.com"
        zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
        azure.add_custom_domain(resource, fqdn, T0)
        resource.site.put_index(
            f"<html><head><title>Site {i}</title></head><body>s{i}</body></html>"
        )
        fqdns.append(fqdn)
    if fault_config is not None:
        internet.client.fault_plan = FaultPlan.from_seed(fault_config, 11)
    return internet, sorted(fqdns)


def _histories(monitor, fqdns):
    return {
        fqdn: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]
        for fqdn in fqdns
    }


def _apply_sweep(monitor, fqdns, outcome, at, forked=True):
    """Record a supervised sweep's results the way the executor does."""
    executor = ProcessExecutor(workers=1)
    executor._apply(monitor, outcome.results, forked, at, outcome.quarantined)


# -- happy-path parity -----------------------------------------------------


@pytest.mark.parametrize("forked", [False, True])
def test_supervised_sweep_matches_serial_oracle(forked):
    oracle_net, fqdns = _world()
    oracle = WeeklyMonitor(oracle_net.client)
    oracle_failures: list = []
    sweep(oracle, fqdns, T0, failures=oracle_failures)
    internet, _ = _world()
    monitor = WeeklyMonitor(internet.client)
    outcome = run_shards_supervised(
        monitor, partition(fqdns, 3), T0, None, SupervisorConfig(), forked=forked
    )
    assert not outcome.quarantined
    assert outcome.worker_crashes == outcome.worker_hangs == 0
    assert len(outcome.results) == 3
    _apply_sweep(monitor, fqdns, outcome, T0, forked=forked)
    assert _histories(monitor, fqdns) == _histories(oracle, fqdns)
    assert [f for r in outcome.results for f in r.failures] == oracle_failures
    assert monitor.samples_taken == oracle.samples_taken


# -- worker death (SIGKILL mid-shard) --------------------------------------


@pytest.mark.parametrize("forked", [False, True])
def test_crashed_workers_are_redispatched_never_quarantined(forked):
    # Rate 1.0: EVERY shard's first dispatch dies by SIGKILL (forked) or
    # a simulated crash (inline).  The fault is drawn only on the first
    # attempt, so one re-dispatch per shard always recovers — random
    # crashes must never reach quarantine.
    internet, fqdns = _world(
        fault_config=FaultConfig(enabled=True, worker_crash_rate=1.0)
    )
    monitor = WeeklyMonitor(internet.client)
    shards = partition(fqdns, 3)
    outcome = run_shards_supervised(
        monitor, shards, T0, None, SupervisorConfig(), forked=forked
    )
    assert not outcome.quarantined
    assert outcome.worker_crashes == len(shards)
    assert outcome.shard_retries == len(shards)
    assert sum(len(r.sampled) + len(r.failures) for r in outcome.results) == len(fqdns)


def test_crash_recovered_sweep_records_same_store_as_fault_free():
    healthy, fqdns = _world()
    clean = WeeklyMonitor(healthy.client)
    chaotic, _ = _world(
        fault_config=FaultConfig(enabled=True, worker_crash_rate=0.6)
    )
    stormy = WeeklyMonitor(chaotic.client)
    at = T0
    for _ in range(3):
        for monitor in (clean, stormy):
            shards = partition(fqdns, 4)
            forked = monitor is stormy
            outcome = run_shards_supervised(
                monitor, shards, at, None, SupervisorConfig(), forked=forked
            )
            assert not outcome.quarantined
            _apply_sweep(monitor, fqdns, outcome, at)
        at += WEEK
    assert _histories(stormy, fqdns) == _histories(clean, fqdns)


# -- hung workers reaped at the deadline -----------------------------------


@pytest.mark.parametrize("forked", [False, True])
def test_hung_workers_are_reaped_at_deadline_and_redispatched(forked):
    internet, fqdns = _world(
        fault_config=FaultConfig(enabled=True, worker_hang_rate=1.0)
    )
    monitor = WeeklyMonitor(internet.client)
    shards = partition(fqdns, 2)
    outcome = run_shards_supervised(
        monitor, shards, T0, None,
        SupervisorConfig(shard_deadline=0.3), forked=forked,
    )
    assert not outcome.quarantined
    assert outcome.worker_hangs == len(shards)
    assert sum(len(r.sampled) + len(r.failures) for r in outcome.results) == len(fqdns)


# -- truncated result payloads ---------------------------------------------


def test_truncated_payload_is_detected_and_retried(tmp_path, monkeypatch):
    internet, fqdns = _world()
    monitor = WeeklyMonitor(internet.client)
    shards = partition(fqdns, 2)
    latch = tmp_path / "truncated-once"
    real_send = supervisor_module._send_payload

    def flaky_send(write_fd, payload):
        # First worker to report ships half its pickle then dies; the
        # latch file makes the fault one-shot across forked children.
        try:
            fd = os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            real_send(write_fd, payload)
            return
        os.close(fd)
        supervisor_module._write_all(
            write_fd, supervisor_module._LENGTH.pack(len(payload)) + payload[: len(payload) // 2]
        )
        os.close(write_fd)
        os._exit(0)

    monkeypatch.setattr(supervisor_module, "_send_payload", flaky_send)
    outcome = run_shards_supervised(
        monitor, shards, T0, None, SupervisorConfig(), forked=True
    )
    assert latch.exists()
    assert not outcome.quarantined
    assert outcome.worker_crashes == 1
    assert outcome.shard_retries == 1
    assert sum(len(r.sampled) + len(r.failures) for r in outcome.results) == len(fqdns)


# -- poison isolation via bisection ----------------------------------------


@pytest.mark.parametrize("forked", [False, True])
def test_poison_fqdn_is_bisected_to_exact_quarantine(forked):
    internet, fqdns = _world(n=9)
    poison = fqdns[4]
    internet.client.fault_plan = FaultPlan.from_seed(
        FaultConfig(enabled=True, poison_fqdns=(poison,)), 11
    )
    monitor = WeeklyMonitor(internet.client)
    shards = partition(fqdns, 3)
    outcome = run_shards_supervised(
        monitor, shards, T0, None, SupervisorConfig(), forked=forked
    )
    assert [d.fqdn for d in outcome.quarantined] == [poison]
    letter = outcome.quarantined[0]
    assert letter.shard_index == 1
    # The dead-letter reason carries the shard identity of the failure.
    assert "names[" in letter.reason
    # Everything except the poison name was sampled, in order.
    sampled = [
        s if isinstance(s, str) else s.fqdn
        for r in outcome.results
        for s in r.sampled
    ]
    assert sampled == [f for f in fqdns if f != poison]


def test_poison_quarantine_survives_executor_and_stage(tmp_path):
    config = ScenarioConfig.tiny()
    config.weeks = 4
    config.workers = 2
    engine = build_scenario(config)
    engine.run(max_weeks=2)
    result = engine.payload
    poison = result.collector.monitored_sorted[3]
    result.fault_plan = result.monitor.client.fault_plan = FaultPlan.from_seed(
        FaultConfig(enabled=True, poison_fqdns=(poison,)), 11
    )
    engine.run(max_weeks=1)
    quarantined = [r for r in engine.dead_letters if r.item == poison]
    assert quarantined and "poison shard" in quarantined[0].reason


def test_worker_fault_draws_are_per_shard_deterministic():
    plan_a = FaultPlan.from_seed(
        FaultConfig(enabled=True, worker_crash_rate=0.4, worker_hang_rate=0.2), 5
    )
    plan_b = FaultPlan.from_seed(
        FaultConfig(enabled=True, worker_crash_rate=0.4, worker_hang_rate=0.2), 5
    )
    # Same seed, same per-shard streams: identical storms, even when one
    # plan draws its shards in a different order.
    draws_a = [plan_a.worker_fault(i) for i in range(6)]
    draws_b = [plan_b.worker_fault(i) for i in reversed(range(6))]
    assert draws_a == list(reversed(draws_b))


def test_supervisor_config_rejects_zero_retry_budget():
    with pytest.raises(ValueError):
        SupervisorConfig(max_shard_retries=0)


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
