"""The weekly sweep executor.

A :class:`SweepExecutor` runs one weekly sweep of the monitored-FQDN
list and reduces it to a :class:`SweepReport`.  :class:`ProcessExecutor`
is the one production sweep: it cuts the list into contiguous shards,
samples each under the supervisor, and merges the results **in shard
order**, so the snapshot store, the changed-pairs list, the quarantine
list and every counter see the exact same sequence a one-by-one serial
pass would have produced.  At one worker (the default) it runs a single
inline shard, which never forks: on a fault-free world that shard takes
the fused sampler with the resolver memo and the extraction cache, on a
faulty one ``WeeklyMonitor.sample``.  With ``workers > 1`` on a
multi-CPU box the shards run in forked workers.  A fault-free run
exports byte-identical digests for any worker count; the serial
reference sweep lives in the test suite as the oracle it is checked
against.

Under fault injection a sharded run is still fully deterministic —
the same seed and worker count always replay the same storm — but not
byte-identical to the one-worker chaos run: fault streams are
sequential, so sharding re-partitions the draw sequence, and breaker
failure streaks accumulate shard-locally.  See the
determinism-under-sharding contract in the README.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitoring import ExtractionCache, SnapshotFeatures, WeeklyMonitor
from repro.dns.names import Name
from repro.obs import OBS
from repro.parallel.shard import ShardResult, fork_available, partition
from repro.parallel.supervisor import (
    DeadLetter,
    SupervisorConfig,
    run_shards_supervised,
)

ChangedPair = Tuple[SnapshotFeatures, Optional[SnapshotFeatures]]


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class SweepReport:
    """One sweep's merged outcome: changes, failures and counters.

    Reports merge associatively (:meth:`merge`): lists concatenate in
    order and counters sum, so reducing per-shard reports left-to-right
    equals reducing any bracketing of them — the property that makes
    the shard-order merge well-defined.

    Two timing fields with different merge laws: ``cpu_seconds`` is
    the work actually done (the shards' own CPU time — sums under
    merge), while ``wall_seconds`` is elapsed time (concurrent shards
    overlap — max under merge).  Summing walls was the old bug: merging
    N concurrent shard reports inflated "elapsed" N-fold.
    """

    changed: List[ChangedPair] = field(default_factory=list)
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    samples_taken: int = 0
    sitemap_fetches: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    breaker_trips: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Names the supervisor's poison bisection quarantined this sweep,
    #: as (fqdn, reason) pairs in shard order.  Distinct from
    #: ``failures`` (retry-exhausted *samples*): a quarantined name
    #: never produced a sample at all — its worker died every attempt.
    quarantined: List[Tuple[Name, str]] = field(default_factory=list)
    worker_crashes: int = 0
    worker_hangs: int = 0
    shard_retries: int = 0
    workers: int = 1
    mode: str = "inline"
    shard_sizes: List[int] = field(default_factory=list)
    shard_walls: List[float] = field(default_factory=list)
    shard_cpus: List[float] = field(default_factory=list)
    #: Elapsed time of the sweep (max under merge — concurrent parts
    #: overlap; the executor overwrites it with the true elapsed time).
    wall_seconds: float = 0.0
    #: Total CPU time the shards spent sampling (sum under merge).
    cpu_seconds: float = 0.0

    @property
    def fqdns_swept(self) -> int:
        return self.samples_taken

    def merge(self, other: "SweepReport") -> "SweepReport":
        """A new report combining ``self`` then ``other`` (associative)."""
        merged_injected = dict(self.injected)
        for kind, count in other.injected.items():
            merged_injected[kind] = merged_injected.get(kind, 0) + count
        return SweepReport(
            changed=self.changed + other.changed,
            failures=self.failures + other.failures,
            samples_taken=self.samples_taken + other.samples_taken,
            sitemap_fetches=self.sitemap_fetches + other.sitemap_fetches,
            retries=self.retries + other.retries,
            backoff_seconds=self.backoff_seconds + other.backoff_seconds,
            breaker_trips=self.breaker_trips + other.breaker_trips,
            injected=merged_injected,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            quarantined=self.quarantined + other.quarantined,
            worker_crashes=self.worker_crashes + other.worker_crashes,
            worker_hangs=self.worker_hangs + other.worker_hangs,
            shard_retries=self.shard_retries + other.shard_retries,
            workers=max(self.workers, other.workers),
            mode=self.mode if self.mode == other.mode else "mixed",
            shard_sizes=self.shard_sizes + other.shard_sizes,
            shard_walls=self.shard_walls + other.shard_walls,
            shard_cpus=self.shard_cpus + other.shard_cpus,
            wall_seconds=max(self.wall_seconds, other.wall_seconds),
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
        )


class SweepExecutor:
    """Strategy interface: run one weekly sweep over ``fqdns``."""

    workers: int = 1
    #: The most recent sweep's report (benchmarks and the profile
    #: report read timing fields off it).
    last_report: Optional[SweepReport] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        raise NotImplementedError


class ProcessExecutor(SweepExecutor):
    """Supervised sharded sweep, merged in shard order.

    The monitored list is cut into at most ``workers`` contiguous
    slices; each runs under the supervisor — in a forked child against
    the copy-on-write world, or inline — and the parent replays every
    shard's results — store records, quarantines, counters, passive-DNS
    observations, new extraction-cache entries — in shard order.  With
    one worker (the default, and the pipeline's default sweep) or where
    ``os.fork`` is unavailable the shard loop runs inline, fork-free,
    with identical results.

    ``use_fork=None`` (the default) auto-detects: forking pays only
    when more than one CPU is actually available — on a single-CPU box
    copy-on-write page faults on the big world heap cost more per sweep
    than sharding saves, so the shards run inline instead.  The merge
    path is identical either way, so the choice never affects results.

    The executor owns a persistent content-addressed
    :class:`ExtractionCache` that workers inherit through the fork and
    extend back through the merge, so week over week the (dominant)
    unchanged share of the web is never re-parsed.
    """

    def __init__(
        self,
        workers: int = 1,
        extraction_cache: Optional[ExtractionCache] = None,
        use_fork: Optional[bool] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.extraction_cache = (
            extraction_cache if extraction_cache is not None else ExtractionCache()
        )
        self.use_fork = use_fork
        #: Failure-handling knobs of the supervisor every sweep runs under.
        self.supervisor = supervisor if supervisor is not None else SupervisorConfig()
        #: "fork" or "inline" — how the most recent sweep actually ran.
        self.last_mode: Optional[str] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        shards = partition(fqdns, self.workers)
        want_fork = (
            self.use_fork if self.use_fork is not None else effective_cpus() > 1
        )
        forked = len(shards) > 1 and want_fork and fork_available()
        started = time.perf_counter()
        outcome = run_shards_supervised(
            monitor, shards, at, self.extraction_cache,
            config=self.supervisor, forked=forked,
        )
        self.last_mode = "fork" if forked else "inline"
        report = self._apply(monitor, outcome.results, forked, at, outcome.quarantined)
        report.workers = self.workers
        report.mode = self.last_mode
        report.worker_crashes = outcome.worker_crashes
        report.worker_hangs = outcome.worker_hangs
        report.shard_retries = outcome.shard_retries
        report.wall_seconds = time.perf_counter() - started
        self.last_report = report
        return report

    def _apply(
        self,
        monitor: WeeklyMonitor,
        results: List[ShardResult],
        forked: bool,
        at: datetime,
        quarantined: Optional[List[DeadLetter]] = None,
    ) -> SweepReport:
        """Replay shard results into the parent, in shard order."""
        client = monitor.client
        plan = client.fault_plan
        breaker = client.breaker
        resolver = client.resolver
        ledger = (
            monitor.touch_ledger
            if monitor.incremental and monitor.journal is not None
            else None
        )
        report = SweepReport()
        for result in results:
            if forked:
                # The child's mutations died with it: apply the deltas.
                monitor.samples_taken += result.samples_taken
                monitor.sitemap_fetches += result.sitemap_fetches
                client.retries_total += result.retries
                client.backoff_seconds_total += result.backoff_seconds
                if breaker is not None:
                    breaker.trips += result.breaker_trips
                if plan is not None:
                    for kind, count in result.injected.items():
                        plan.stats.injected[kind] = (
                            plan.stats.injected.get(kind, 0) + count
                        )
                if resolver.passive_dns is not None:
                    for record, when in result.observations:
                        resolver.passive_dns.observe(record, when)
                self.extraction_cache.html.update(result.new_html)
                self.extraction_cache.sitemap.update(result.new_sitemap)
                self.extraction_cache.hits += result.cache_hits
                self.extraction_cache.misses += result.cache_misses
                # Shard-local observability reduces like every other
                # delta: registries merge associatively, trace events
                # replay in shard order.
                if result.metrics is not None and OBS.enabled:
                    OBS.metrics.merge_from(result.metrics)
                if result.trace_events:
                    OBS.tracer.replay(result.trace_events)
            for entry in result.sampled:
                if isinstance(entry, SnapshotFeatures):
                    is_new, previous = monitor.store.record(entry)
                    if is_new:
                        report.changed.append((entry, previous))
                    if ledger is not None:
                        # A full sample supersedes any ledger proof: the
                        # name was dirty (or unproven), so the old entry
                        # must not survive into the next sweep.
                        ledger.invalidate(entry.fqdn)
                else:
                    # Touch marker: the shard proved the state unchanged.
                    monitor.store.touch(entry, at)
                    if ledger is not None:
                        fresh = result.ledger_entries.get(entry)
                        if fresh is not None:
                            ledger.put(entry, fresh)
            if ledger is not None:
                for fqdn, _status in result.failures:
                    ledger.invalidate(fqdn)
            report.failures.extend(result.failures)
            report.samples_taken += result.samples_taken
            report.sitemap_fetches += result.sitemap_fetches
            report.retries += result.retries
            report.backoff_seconds += result.backoff_seconds
            report.breaker_trips += result.breaker_trips
            for kind, count in result.injected.items():
                report.injected[kind] = report.injected.get(kind, 0) + count
            report.cache_hits += result.cache_hits
            report.cache_misses += result.cache_misses
            report.shard_sizes.append(result.size)
            report.shard_walls.append(result.wall_seconds)
            report.shard_cpus.append(result.cpu_seconds)
            report.cpu_seconds += result.cpu_seconds
            if OBS.enabled:
                OBS.series.record_shard(
                    result.index, result.size,
                    result.cpu_seconds or result.wall_seconds,
                    result.wall_seconds,
                    result.peak_rss_kb,
                )
        for letter in quarantined or ():
            report.quarantined.append((letter.fqdn, letter.reason))
            if ledger is not None:
                # A quarantined name produced no sample this sweep; any
                # stale cleanliness proof must not carry it past the
                # next one either.
                ledger.invalidate(letter.fqdn)
        if ledger is not None:
            # The world is quiescent during a sweep, so the journal's
            # position now equals its position when the shards computed
            # their dirty sets: every surviving entry's dependencies are
            # unchanged as of this cursor.
            ledger.cursor = monitor.journal.cursor()
        return report
