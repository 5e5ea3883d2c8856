"""Tests for the sweep executor (`repro.core.sweep`).

Covers the determinism contract (the in-process sweep records the same
store as the serial oracle), the one sampler's feature parity with the
reference sampler on both transports, per-name failure isolation (a
raising name costs one dead letter and no re-sampling), the shard CPU
accounting and the extraction cache.
"""

from datetime import datetime, timedelta
from types import SimpleNamespace
import time

import pytest

from repro.core.monitoring import (
    TRANSIENT_SAMPLE_STATUSES,
    MonitorConfig,
    SnapshotFeatures,
    TouchEntry,
    WeeklyMonitor,
    fast_path_eligible,
)
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.core import sweep as sweep_module
from repro.core.stages import MonitorSweepStage
from repro.core.sweep import ProcessExecutor
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.obs import OBS, BufferTracer, MetricsRegistry, TimeSeriesRecorder
from repro.sim.clock import SimClock
from repro.sim.revisions import JournalCache
from repro.sim.rng import RngStreams
from repro.world.internet import Internet
from tests.oracles.reference_sampler import reference_sample
from tests.oracles.serial_sweep import SerialExecutor

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


# -- sampler parity --------------------------------------------------------


def _internet(faulty=False):
    if not faulty:
        return Internet(RngStreams(7), SimClock())
    plan = FaultPlan.from_seed(FaultConfig.chaos(0.15), 7)
    return Internet(
        RngStreams(7), SimClock(), fault_plan=plan, breaker=CircuitBreaker()
    )


def _victim(internet, name="shop", body="<html><head><title>Portal</title></head><body>hi</body></html>"):
    azure = internet.catalog.provider("Azure")
    zone = internet.zones.get_zone("acme.com") or internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", f"acme-{name}", owner="org:acme", at=T0)
    fqdn = f"{name}.acme.com"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    azure.add_custom_domain(resource, fqdn, T0)
    resource.site.put_index(body)
    return azure, resource, fqdn


def test_fast_path_requires_quiescent_client_knobs():
    internet = _internet()
    monitor = WeeklyMonitor(internet.client)
    assert fast_path_eligible(monitor)
    monitor.config.prefer_https = True
    assert not fast_path_eligible(monitor)
    monitor.config.prefer_https = False
    monitor.config.retry = RetryPolicy.standard(3)
    assert not fast_path_eligible(monitor)


def test_fast_path_ineligible_under_breaker_or_active_faults():
    internet = _internet()
    internet.client.breaker = CircuitBreaker()
    assert not fast_path_eligible(WeeklyMonitor(internet.client))
    chaotic = _internet()
    chaotic.client.fault_plan = FaultPlan.from_seed(FaultConfig.chaos(0.3), 7)
    assert not fast_path_eligible(WeeklyMonitor(chaotic.client))


def _sampling_world(faulty):
    """A few victims plus a dangling name, and a monitor over them.

    The faulty world runs a chaos storm with a breaker and a retry
    budget; two calls with the same flag build identical worlds whose
    fault streams replay the same draws.
    """
    internet = _internet(faulty)
    victims = [_victim(internet, name=f"shop{i}") for i in range(4)]
    missing = "gone.acme.com"
    internet.zones.get_zone("acme.com").add(
        ResourceRecord(missing, RRType.CNAME, "nosuch.azurewebsites.net"), T0
    )
    config = MonitorConfig(retry=RetryPolicy.standard(3)) if faulty else None
    monitor = WeeklyMonitor(internet.client, config=config)
    return monitor, [resource for _, resource, _ in victims], [
        fqdn for _, _, fqdn in victims
    ] + [missing]


@pytest.mark.parametrize("faulty", [False, True], ids=["quiescent", "faulty"])
def test_sample_matches_reference_sample_feature_for_feature(faulty):
    reference, ref_resources, names = _sampling_world(faulty)
    monitor, resources, _ = _sampling_world(faulty)
    assert fast_path_eligible(monitor) is not faulty
    at = T0
    touches = 0
    for week in range(4):
        if week == 2:
            # One content change mid-run: a full sample again.
            for site_owner in (ref_resources[0], resources[0]):
                site_owner.site.put_index("<html><title>slot gacor</title></html>")
        for name in names:
            expected = reference_sample(reference, name, at)
            actual = monitor.sample(name, at)
            if week == 0:
                assert isinstance(actual, SnapshotFeatures)
            if isinstance(actual, SnapshotFeatures):
                assert actual == expected
            else:
                # A touch marker: the reference sample deduplicates.
                assert actual == name
                assert expected.state_key() == monitor.store.latest(name).state_key()
                monitor.store.touch(name, at)
                touches += 1
            if expected.fetch_status not in TRANSIENT_SAMPLE_STATUSES:
                reference.store.record(expected)
                if isinstance(actual, SnapshotFeatures):
                    monitor.store.record(actual)
        at += WEEK
    assert [monitor.store.history(n) for n in names] == [
        reference.store.history(n) for n in names
    ]
    assert monitor.samples_taken == reference.samples_taken
    assert monitor.sitemap_fetches == reference.sitemap_fetches
    assert monitor.client.retries_total == reference.client.retries_total
    # Both transports touched, and the storm really drew faults.
    assert touches > 0
    assert (monitor.client.retries_total > 0) is faulty


@pytest.mark.parametrize(
    "config", [None, MonitorConfig(retry=RetryPolicy.standard(3))],
    ids=["direct", "client"],
)
def test_sample_returns_touch_marker_only_when_state_is_unchanged(config):
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client, config=config)
    assert fast_path_eligible(monitor) is (config is None)
    first = monitor.sample(fqdn, T0)
    assert isinstance(first, SnapshotFeatures)
    monitor.store.record(first)
    # Unchanged world: the sampler proves the state equal and ships
    # only the name.
    assert monitor.sample(fqdn, T0 + WEEK) == fqdn
    # Content change: a full sample again.
    resource.site.put_index("<html><head><title>slot gacor</title></head></html>")
    second = monitor.sample(fqdn, T0 + 2 * WEEK)
    assert isinstance(second, SnapshotFeatures)
    assert second.title == "slot gacor"


def test_client_transport_touch_drops_the_ledger_proof():
    # Only the direct transport mints proofs; a touch taken through the
    # client must not leave an old proof standing, as a full sample
    # would not.
    internet = _internet()
    _, _, fqdn = _victim(internet)
    monitor = WeeklyMonitor(
        internet.client, config=MonitorConfig(retry=RetryPolicy.standard(3))
    )
    monitor.store.record(monitor.sample(fqdn, T0))
    ledger = JournalCache(internet.revisions)
    ledger.put(fqdn, TouchEntry(fqdn=fqdn, state_key=()), ())
    assert monitor.sample(fqdn, T0 + WEEK, ledger=ledger) == fqdn
    assert ledger.get(fqdn) is None


def test_store_touch_equals_recording_a_duplicate_state():
    def run(use_touch):
        internet = _internet()
        _, _, fqdn = _victim(internet)
        monitor = WeeklyMonitor(internet.client)
        monitor.store.record(monitor.sample(fqdn, T0))
        if use_touch:
            monitor.store.touch(fqdn, T0 + WEEK)
        else:
            monitor.store.record(reference_sample(monitor, fqdn, T0 + WEEK))
        return [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]

    assert run(use_touch=True) == run(use_touch=False)


def test_store_touch_extends_observation_window():
    internet = _internet()
    _, _, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    monitor.store.record(monitor.sample(fqdn, T0))
    monitor.store.touch(fqdn, T0 + WEEK)
    (state,) = monitor.store.history(fqdn)
    assert state.observations == 2
    assert state.first_seen == T0
    assert state.last_seen == T0 + WEEK


# -- executor parity -------------------------------------------------------


def _monitored_world(n=6):
    internet = _internet()
    fqdns = []
    for i in range(n):
        _, _, fqdn = _victim(
            internet, name=f"svc{i}",
            body=f"<html><head><title>Site {i % 2}</title></head><body>s{i % 2}</body></html>",
        )
        fqdns.append(fqdn)
    return internet, sorted(fqdns)


def _sweep_all(executor, weeks=3, mutate=None):
    internet, fqdns = _monitored_world()
    monitor = WeeklyMonitor(internet.client)
    reports = []
    at = T0
    for week in range(weeks):
        if mutate is not None:
            mutate(week, internet, fqdns)
        reports.append(executor.sweep(monitor, fqdns, at))
        at += WEEK
    histories = {
        fqdn: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]
        for fqdn in fqdns
    }
    return reports, histories


def test_process_executor_matches_serial_store_and_changes():
    serial_reports, serial_hist = _sweep_all(SerialExecutor())
    proc_reports, proc_hist = _sweep_all(ProcessExecutor())
    assert proc_hist == serial_hist
    for ours, theirs in zip(proc_reports, serial_reports):
        assert [(c[0], c[1]) for c in ours.changed] == [
            (c[0], c[1]) for c in theirs.changed
        ]
        assert ours.failures == theirs.failures
        assert ours.samples_taken == theirs.samples_taken
        assert ours.sitemap_fetches == theirs.sitemap_fetches


def test_extraction_cache_persists_across_sweeps():
    executor = ProcessExecutor()
    internet, fqdns = _monitored_world()
    monitor = WeeklyMonitor(internet.client)
    executor.sweep(monitor, fqdns, T0)
    misses_after_first = executor.extraction_cache.misses
    assert misses_after_first > 0
    # Same bodies reused across FQDNs: the shared-template pages hit.
    assert executor.extraction_cache.hits > 0
    executor.sweep(monitor, fqdns, T0 + WEEK)
    # Steady state: nothing new to extract.
    assert executor.extraction_cache.misses == misses_after_first
    # The cache is lent for the sweep, not left on the monitor.
    assert monitor.extraction_cache is None


def test_inline_sweep_cpu_is_the_sum_of_shard_cpu():
    # One shard row per sweep, carrying exactly the reported CPU.
    internet, fqdns = _monitored_world()
    series = TimeSeriesRecorder()
    OBS.configure(series=series)
    try:
        report = ProcessExecutor().sweep(WeeklyMonitor(internet.client), fqdns, T0)
    finally:
        OBS.reset()
    rows = series.shard_rows()
    assert list(rows) == [0]
    assert rows[0]["items"] == len(fqdns)
    assert rows[0]["cpu_s"] == report.cpu_seconds
    assert 0.0 < report.cpu_seconds


def test_shard_row_records_measured_cpu_never_wall(monkeypatch):
    # A sweep that measures no CPU (a coarse process clock) must record
    # zero CPU, not its wall time in CPU's place.
    internet, fqdns = _monitored_world()
    monkeypatch.setattr(
        sweep_module, "time",
        SimpleNamespace(perf_counter=time.perf_counter, process_time=lambda: 1.0),
    )
    series = TimeSeriesRecorder()
    OBS.configure(series=series)
    try:
        report = ProcessExecutor().sweep(WeeklyMonitor(internet.client), fqdns, T0)
    finally:
        OBS.reset()
    assert report.cpu_seconds == 0.0
    assert report.wall_seconds > 0.0
    assert series.shard_rows()[0]["cpu_s"] == 0.0


# -- per-name failure isolation --------------------------------------------


def _counting_sampler(monkeypatch, raise_for=None):
    """Interpose the sampler: log every call, optionally raise."""
    calls = []
    real = WeeklyMonitor.sample

    def sampler(monitor, fqdn, *args, **kwargs):
        calls.append(fqdn)
        if fqdn == raise_for:
            # Fail mid-sample, after the counters already moved.
            monitor.samples_taken += 1
            monitor.sitemap_fetches += 1
            raise RuntimeError(f"extractor bug on {fqdn}")
        return real(monitor, fqdn, *args, **kwargs)

    monkeypatch.setattr(WeeklyMonitor, "sample", sampler)
    return calls


def _counting_handler(monkeypatch, raise_for):
    """Interpose both ways a journal-driven sweep handles a name.

    Logs each name once, when it is sampled or clean-skipped, and
    raises for ``raise_for`` on whichever of the two paths it takes,
    after the counters already moved.
    """
    calls = _counting_sampler(monkeypatch, raise_for=raise_for)
    real = WeeklyMonitor.extend_if_clean

    def extend_if_clean(monitor, fqdn, *args, **kwargs):
        if not real(monitor, fqdn, *args, **kwargs):
            return False
        calls.append(fqdn)
        if fqdn == raise_for:
            monitor.sitemap_fetches += 1
            raise RuntimeError(f"extractor bug on {fqdn}")
        return True

    monkeypatch.setattr(WeeklyMonitor, "extend_if_clean", extend_if_clean)
    return calls


def test_raising_name_is_one_dead_letter_sampled_once(monkeypatch):
    config = ScenarioConfig.tiny()
    config.weeks = 4
    engine = build_scenario(config)
    engine.run(max_weeks=3)
    result = engine.payload
    fqdns = list(result.collector.monitored_sorted)
    bad = fqdns[len(fqdns) // 2]
    samples0 = result.monitor.samples_taken
    calls = _counting_handler(monkeypatch, raise_for=bad)
    engine.run(max_weeks=1)
    # Each name is handled exactly once, by a sample or a clean skip,
    # in list order: nothing is re-sampled.
    assert calls == fqdns
    report = result.executor.last_report
    assert report.dead_letters == [(bad, f"RuntimeError: extractor bug on {bad}")]
    # The failed name's counter increments were rolled back.
    assert result.monitor.samples_taken - samples0 == len(fqdns) - 1
    assert report.samples_taken == len(fqdns) - 1
    # MonitorSweepStage quarantines it with the exception in the reason.
    (letter,) = [r for r in engine.dead_letters if r.item == bad]
    assert letter.stage == "monitor-sweep"
    assert "RuntimeError" in letter.reason
    # The failed name kept its last trusted state; its neighbours moved on.
    swept_at = config.start + 3 * WEEK
    assert result.monitor.store.history(bad)[-1].last_seen < swept_at
    assert result.monitor.store.history(fqdns[0])[-1].last_seen == swept_at


def test_poison_name_is_dead_lettered_and_others_sampled_once_in_order(monkeypatch):
    internet, fqdns = _monitored_world()
    poison = fqdns[2]
    internet.client.fault_plan = FaultPlan.from_seed(
        FaultConfig(enabled=True, poison_fqdns=(poison,)), 11
    )
    monitor = WeeklyMonitor(internet.client)
    # Poison fails single names, never the data plane.
    assert fast_path_eligible(monitor)
    calls = _counting_sampler(monkeypatch)
    tracer = BufferTracer()
    OBS.configure(metrics=MetricsRegistry(), tracer=tracer)
    try:
        report = ProcessExecutor().sweep(monitor, fqdns, T0)
    finally:
        OBS.reset()
    healthy = [f for f in fqdns if f != poison]
    assert calls == healthy
    assert report.dead_letters == [
        (poison, f"PoisonedName: poisoned subject {poison}")
    ]
    assert monitor.samples_taken == len(healthy)
    assert monitor.store.latest(poison) is None
    # The traceback goes to the trace, not the quarantine reason.
    (event,) = [e for e in tracer.events if e["name"] == "sweep.dead_letter"]
    assert event["fqdn"] == poison and "PoisonedName" in event["traceback"]
    assert [pair[0].fqdn for pair in report.changed] == healthy


# -- end-to-end defaults ---------------------------------------------------


def test_monitor_stage_defaults_to_one_inline_worker():
    internet, fqdns = _monitored_world(2)
    monitor = WeeklyMonitor(internet.client)

    class Collector:
        monitored_sorted = fqdns

    stage = MonitorSweepStage(monitor, Collector())
    assert isinstance(stage._executor, ProcessExecutor)
    report = stage._executor.sweep(monitor, fqdns, T0)
    assert stage._executor.last_report is report
    assert report.samples_taken == len(fqdns)


def test_default_scenario_sweeps_with_one_inline_worker(tiny_result):
    executor = tiny_result.executor
    assert isinstance(executor, ProcessExecutor)
    # The fused path's extraction cache is live on the default path.
    assert executor.extraction_cache.hits > 0
