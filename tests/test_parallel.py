"""Tests for the sharded sweep executor (`repro.parallel`).

Covers the determinism contract (a fault-free sharded run is
byte-identical to the serial oracle, fork or no fork), the fused
sampling path's feature parity with ``WeeklyMonitor.sample``, the
partition/merge algebra, and the extraction cache.
"""

from datetime import datetime, timedelta

import pytest

from repro.core.export import dataset_to_json
from repro.core.monitoring import (
    ExtractionCache,
    MonitorConfig,
    SnapshotFeatures,
    WeeklyMonitor,
)
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.core.stages import MonitorSweepStage
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.parallel import (
    ProcessExecutor,
    SweepReport,
    fast_path_eligible,
    partition,
)
from repro.parallel.shard import _sample_fused, run_shard
from repro.pipeline.metrics import PipelineMetrics, StageMetrics
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.world.internet import Internet
from tests.oracles.serial_sweep import SerialExecutor

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


# -- partition -------------------------------------------------------------


def test_partition_is_contiguous_balanced_and_order_preserving():
    items = list(range(10))
    shards = partition(items, 3)
    assert [len(s) for s in shards] == [4, 3, 3]
    assert [x for shard in shards for x in shard] == items


def test_partition_with_more_shards_than_items():
    assert partition([1, 2], 5) == [[1], [2]]
    assert partition([], 4) == []


def test_partition_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        partition([1], 0)


# -- merge algebra ---------------------------------------------------------


def _report(n):
    return SweepReport(
        failures=[(f"f{n}.example.com", "timeout")],
        samples_taken=n,
        sitemap_fetches=n * 2,
        retries=n,
        backoff_seconds=float(n),
        breaker_trips=1,
        injected={"dns_servfail": n},
        cache_hits=n,
        cache_misses=1,
        workers=n,
        mode="inline",
        shard_sizes=[n],
        shard_walls=[0.1 * n],
    )


def test_sweep_report_merge_is_associative():
    a, b, c = _report(1), _report(2), _report(3)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.samples_taken == 6
    assert left.injected == {"dns_servfail": 6}
    assert left.failures == a.failures + b.failures + c.failures
    assert left.workers == 3


def test_sweep_report_merge_wall_is_max_and_cpu_is_sum():
    # Regression: merge used to sum wall_seconds, so an N-shard sweep
    # reported N-fold "elapsed" time.  Wall is elapsed (max under
    # merge); cpu is the summed per-shard sampling time.
    a, b = _report(1), _report(2)
    a.wall_seconds, a.cpu_seconds = 2.0, 2.0
    b.wall_seconds, b.cpu_seconds = 3.0, 3.0
    merged = a.merge(b)
    assert merged.wall_seconds == 3.0
    assert merged.cpu_seconds == 5.0
    # Still associative with the third report in either bracketing.
    c = _report(3)
    c.wall_seconds, c.cpu_seconds = 1.0, 1.0
    left, right = a.merge(b).merge(c), a.merge(b.merge(c))
    assert (left.wall_seconds, left.cpu_seconds) == (3.0, 6.0)
    assert (right.wall_seconds, right.cpu_seconds) == (3.0, 6.0)


def test_sweep_report_merge_marks_mixed_modes():
    a = _report(1)
    b = _report(2)
    b.mode = "fork"
    assert a.merge(b).mode == "mixed"
    assert a.merge(_report(3)).mode == "inline"


def test_stage_metrics_merge_sums_and_rejects_name_mismatch():
    a = StageMetrics(name="sweep", ticks=2, wall_time=1.0, items_processed=10)
    b = StageMetrics(name="sweep", ticks=3, wall_time=0.5, retries=1)
    merged = a.merge(b)
    assert (merged.ticks, merged.wall_time, merged.items_processed) == (5, 1.5, 10)
    assert merged.retries == 1
    with pytest.raises(ValueError):
        a.merge(StageMetrics(name="other"))


def test_pipeline_metrics_merge_is_associative():
    def registry(n):
        metrics = PipelineMetrics()
        metrics.record_tick("sweep", 1.0 * n, items=n)
        metrics.record_tick("detect", 0.5, items=1)
        return metrics

    a, b, c = registry(1), registry(2), registry(3)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert [
        (r.name, r.ticks, r.wall_time, r.items_processed) for r in left.stages()
    ] == [
        (r.name, r.ticks, r.wall_time, r.items_processed) for r in right.stages()
    ]
    assert left.stage("sweep").items_processed == 6


def test_extraction_cache_merge_folds_entries_and_counters():
    a = ExtractionCache(html={"h1": {"title": "x"}}, hits=2, misses=1)
    b = ExtractionCache(
        html={"h2": {"title": "y"}}, sitemap={"s1": (10, 2, ("/a",))},
        hits=1, misses=3,
    )
    a.merge(b)
    assert set(a.html) == {"h1", "h2"}
    assert a.sitemap == {"s1": (10, 2, ("/a",))}
    assert (a.hits, a.misses) == (3, 4)


# -- fused path parity -----------------------------------------------------


def _internet():
    return Internet(RngStreams(7), SimClock())


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


def test_fused_sample_matches_generic_sample_feature_for_feature():
    internet = _internet()
    azure, resource, fqdn = _victim(internet)
    missing = "gone.acme.com"
    internet.zones.get_zone("acme.com").add(
        ResourceRecord(missing, RRType.CNAME, "nosuch.azurewebsites.net"), T0
    )
    generic = WeeklyMonitor(internet.client)
    fused = WeeklyMonitor(internet.client)
    headers = {"User-Agent": fused.config.user_agent}
    for name in (fqdn, missing):
        expected = generic.sample(name, T0)
        actual = _sample_fused(fused, name, T0, headers)
        assert isinstance(actual, SnapshotFeatures)
        assert actual == expected


def test_fused_sample_returns_touch_marker_only_when_state_is_unchanged():
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    headers = {"User-Agent": monitor.config.user_agent}
    first = _sample_fused(monitor, fqdn, T0, headers)
    assert isinstance(first, SnapshotFeatures)
    monitor.store.record(first)
    # Unchanged world: the fused path proves the state equal and ships
    # only the name.
    assert _sample_fused(monitor, fqdn, T0 + WEEK, headers) == fqdn
    # Content change: a full sample again.
    resource.site.put_index("<html><head><title>slot gacor</title></head></html>")
    second = _sample_fused(monitor, fqdn, T0 + 2 * WEEK, headers)
    assert isinstance(second, SnapshotFeatures)
    assert second.title == "slot gacor"


def test_store_touch_equals_recording_a_duplicate_state():
    def run(use_touch):
        internet = _internet()
        _, _, fqdn = _victim(internet)
        monitor = WeeklyMonitor(internet.client)
        monitor.store.record(monitor.sample(fqdn, T0))
        if use_touch:
            monitor.store.touch(fqdn, T0 + WEEK)
        else:
            monitor.store.record(monitor.sample(fqdn, T0 + WEEK))
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


@pytest.mark.parametrize("workers,use_fork", [(1, False), (3, False), (3, True)])
def test_process_executor_matches_serial_store_and_changes(workers, use_fork):
    serial_reports, serial_hist = _sweep_all(SerialExecutor())
    proc = ProcessExecutor(workers=workers, use_fork=use_fork)
    proc_reports, proc_hist = _sweep_all(proc)
    assert proc_hist == serial_hist
    for ours, theirs in zip(proc_reports, serial_reports):
        assert [(c[0], c[1]) for c in ours.changed] == [
            (c[0], c[1]) for c in theirs.changed
        ]
        assert ours.failures == theirs.failures
        assert ours.samples_taken == theirs.samples_taken
        assert ours.sitemap_fetches == theirs.sitemap_fetches


def test_forked_sweep_replays_counters_and_observations(tmp_path):
    internet, fqdns = _monitored_world()
    monitor = WeeklyMonitor(internet.client)
    feed = internet.resolver.passive_dns
    before = len(feed) if feed is not None else None
    executor = ProcessExecutor(workers=3, use_fork=True)
    report = executor.sweep(monitor, fqdns, T0)
    assert executor.last_mode == "fork"
    assert report.samples_taken == len(fqdns)
    assert monitor.samples_taken == len(fqdns)
    if before is not None:
        # Index + sitemap resolutions were replayed into the parent feed.
        assert len(feed) >= before


def test_extraction_cache_persists_across_sweeps():
    executor = ProcessExecutor(workers=2, use_fork=False)
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


class _Capturing(ProcessExecutor):
    """Keeps the shard results each sweep merges, optionally after
    overwriting their wall times."""

    def __init__(self, *args, wall=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.results = []
        self._wall = wall

    def _apply(self, monitor, results, forked, at, quarantined=None):
        if self._wall is not None:
            for result in results:
                result.wall_seconds = self._wall
        self.results = list(results)
        return super()._apply(monitor, results, forked, at, quarantined)


def test_inline_sweep_cpu_is_the_sum_of_shard_cpu():
    internet, fqdns = _monitored_world()
    executor = _Capturing(workers=3, use_fork=False)
    report = executor.sweep(WeeklyMonitor(internet.client), fqdns, T0)
    assert len(executor.results) == 3
    assert report.cpu_seconds == sum(r.cpu_seconds for r in executor.results)
    assert report.shard_cpus == [r.cpu_seconds for r in executor.results]


def test_forked_sweep_reports_shard_cpu_not_shard_wall():
    # cpu_seconds is the shards' CPU, not their wall: inflated walls
    # (a slow pipe or reap) must not move it.
    internet, fqdns = _monitored_world()
    executor = _Capturing(workers=3, use_fork=True, wall=100.0)
    report = executor.sweep(WeeklyMonitor(internet.client), fqdns, T0)
    assert executor.last_mode == "fork"
    assert report.shard_walls == [100.0, 100.0, 100.0]
    assert report.cpu_seconds == sum(r.cpu_seconds for r in executor.results)
    assert report.cpu_seconds < 100.0


def test_process_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessExecutor(workers=0)


# -- end-to-end determinism ------------------------------------------------


def test_sharded_scenario_exports_byte_identical_dataset(tiny_result):
    baseline = dataset_to_json(tiny_result.dataset, indent=2)
    config = ScenarioConfig.tiny()
    config.workers = 4
    result = run_scenario(config)
    assert isinstance(result.executor, ProcessExecutor)
    assert dataset_to_json(result.dataset, indent=2) == baseline


def test_monitor_stage_defaults_to_one_inline_worker():
    internet, fqdns = _monitored_world(2)
    monitor = WeeklyMonitor(internet.client)

    class Collector:
        monitored_sorted = fqdns

    stage = MonitorSweepStage(monitor, Collector())
    assert isinstance(stage._executor, ProcessExecutor)
    assert stage._executor.workers == 1
    stage._executor.sweep(monitor, fqdns, T0)
    # One shard never forks, whatever the machine's CPU count.
    assert stage._executor.last_mode == "inline"
    assert stage._executor.last_report.shard_sizes == [len(fqdns)]


def test_default_scenario_sweeps_with_one_inline_worker(tiny_result):
    executor = tiny_result.executor
    assert isinstance(executor, ProcessExecutor)
    assert executor.workers == 1
    assert executor.last_mode == "inline"
    # The fused path's extraction cache is live on the default path.
    assert executor.extraction_cache.hits > 0
