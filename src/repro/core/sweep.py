"""The weekly monitor sweep.

Section 3.2 samples every monitored FQDN once a week.  A
:class:`SweepExecutor` runs one such sweep of the monitored-FQDN list
and reduces it to a :class:`SweepReport`.  :class:`ProcessExecutor` is
the one production sweep: a single in-process pass over the list that
records each sample — or each touch marker — into the snapshot
store and the touch ledger as soon as it is taken, in list order, the
order the serial reference sweep in the test suite uses.  Every
sampled name goes through the one sampler, ``WeeklyMonitor.sample``,
with the extraction cache on; the sweep only picks its transport once,
by :func:`~repro.core.monitoring.fast_path_eligible`.

The sweep is journal-driven whenever the monitor has a revision
journal, as every built scenario's does.  On the direct transport a
name that still holds a touch-ledger proof — the journal evicts a proof
as soon as a subject it depends on moves — is not sampled at all:
``WeeklyMonitor.extend_if_clean`` extends its stored state instead (a
*clean skip*).  Proofs are only minted on the direct transport, so
faulty worlds sample every name.

Failure isolation is per name.  A name whose sample raises — a bug, an
unsampleable input, a ``FaultConfig.poison_fqdns`` subject — becomes
one ``(fqdn, reason)`` dead letter, the monitor and client counters it
moved are rolled back, and the pass continues with the next name: no
name is ever sampled twice.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional, Sequence, Tuple

from repro.core.monitoring import (
    ExtractionCache,
    SnapshotFeatures,
    TRANSIENT_SAMPLE_STATUSES,
    WeeklyMonitor,
    fast_path_eligible,
)
from repro.dns.names import Name
from repro.faults.plan import PoisonedName
from repro.obs import OBS, peak_rss_kb

ChangedPair = Tuple[SnapshotFeatures, Optional[SnapshotFeatures]]


@dataclass
class SweepReport:
    """One sweep's outcome: changes, failures and cost."""

    changed: List[ChangedPair] = field(default_factory=list)
    #: Retry-exhausted (fqdn, fetch_status) pairs, in list order.
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    #: Names whose sample raised, as (fqdn, reason) pairs in list
    #: order.  Distinct from ``failures``: a dead-lettered name
    #: produced no sample at all.
    dead_letters: List[Tuple[Name, str]] = field(default_factory=list)
    samples_taken: int = 0
    sitemap_fetches: int = 0
    #: Elapsed time of the sweep.
    wall_seconds: float = 0.0
    #: CPU time the sweep spent sampling.
    cpu_seconds: float = 0.0


class SweepExecutor:
    """Strategy interface: run one weekly sweep over ``fqdns``."""

    #: The most recent sweep's report (benchmarks and the profile
    #: report read timing fields off it).
    last_report: Optional[SweepReport] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        raise NotImplementedError


class ProcessExecutor(SweepExecutor):
    """The in-process sweep: one ordered pass, recorded as it goes.

    The executor owns a persistent content-addressed
    :class:`ExtractionCache` that it lends the monitor for each sweep,
    so week over week the (dominant) unchanged share of the web is
    never re-parsed.
    """

    def __init__(self, extraction_cache: Optional[ExtractionCache] = None):
        self.extraction_cache = (
            extraction_cache if extraction_cache is not None else ExtractionCache()
        )

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        started = time.perf_counter()
        cpu0 = time.process_time()
        samples0 = monitor.samples_taken
        sitemap0 = monitor.sitemap_fetches
        report = SweepReport()
        previous_cache = monitor.extraction_cache
        monitor.extraction_cache = self.extraction_cache
        try:
            self._sample_all(monitor, fqdns, at, report)
        finally:
            monitor.extraction_cache = previous_cache
        report.samples_taken = monitor.samples_taken - samples0
        report.sitemap_fetches = monitor.sitemap_fetches - sitemap0
        report.wall_seconds = time.perf_counter() - started
        report.cpu_seconds = time.process_time() - cpu0
        if OBS.enabled:
            OBS.series.record_shard(
                0, len(fqdns), report.cpu_seconds, report.wall_seconds,
                peak_rss_kb(),
            )
        self.last_report = report
        return report

    @staticmethod
    def _sample_all(
        monitor: WeeklyMonitor,
        fqdns: Sequence[Name],
        at: datetime,
        report: SweepReport,
    ) -> None:
        """Sample every name once, recording each result immediately."""
        client = monitor.client
        plan = client.fault_plan
        poison = plan.poison if plan is not None else None
        store = monitor.store
        direct = fast_path_eligible(monitor)
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc(
                "sweep.shards.fused" if direct else "sweep.shards.generic"
            )
        ledger = monitor.touch_ledger if monitor.journal is not None else None
        # Proofs only exist for the direct transport.
        skip = ledger is not None and direct
        # ``seq=0`` pins the span's path id: one shard span per sweep.
        with OBS.tracer.span(
            "sweep.shard", sim=at, seq=0, shard=0, size=len(fqdns),
            mode="fused" if direct else "generic",
        ):
            for fqdn in fqdns:
                counters = (
                    monitor.samples_taken,
                    monitor.sitemap_fetches,
                    client.retries_total,
                    client.backoff_seconds_total,
                )
                try:
                    if poison and fqdn.lower() in poison:
                        raise PoisonedName(fqdn)
                    if skip and monitor.extend_if_clean(fqdn, at):
                        if obs_on:
                            OBS.metrics.inc("monitor.samples")
                            OBS.metrics.inc("journal.clean_skips")
                        store.touch(fqdn, at)
                        continue
                    features = monitor.sample(fqdn, at, direct, ledger)
                    if not isinstance(features, SnapshotFeatures):
                        # Touch marker: the state is unchanged.
                        if obs_on:
                            OBS.metrics.inc("sweep.sample.touch")
                        store.touch(fqdn, at)
                        continue
                    if obs_on:
                        OBS.metrics.inc("sweep.sample.full")
                except Exception as error:
                    (
                        monitor.samples_taken,
                        monitor.sitemap_fetches,
                        client.retries_total,
                        client.backoff_seconds_total,
                    ) = counters
                    report.dead_letters.append(
                        (fqdn, f"{type(error).__name__}: {error}")
                    )
                    if obs_on:
                        OBS.metrics.inc("sweep.dead_letters")
                        OBS.tracer.event(
                            "sweep.dead_letter", sim=at, fqdn=fqdn,
                            traceback=traceback.format_exc(),
                        )
                    if ledger is not None:
                        ledger.discard(fqdn)
                    continue
                if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                    # Retries exhausted and the state is still unknown:
                    # keep the last trusted state, hand the name on.
                    report.failures.append((fqdn, features.fetch_status))
                    if ledger is not None:
                        ledger.discard(fqdn)
                    continue
                is_new, previous = store.record(features)
                if is_new:
                    report.changed.append((features, previous))
                if ledger is not None:
                    # A full sample supersedes any ledger proof: the
                    # name's proof was evicted (or it had none), so no
                    # entry may survive into the next sweep.
                    ledger.discard(fqdn)
