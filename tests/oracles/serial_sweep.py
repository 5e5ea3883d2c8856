"""The serial sweep: the reference the production executor must reproduce.

One in-process pass over the monitored list, sampling every FQDN through
the reference sampler (:func:`~tests.oracles.reference_sampler.reference_sample`)
and recording each sample into the store as soon as it is taken — no
clean skips, no touch markers, no direct transport and no extraction
cache (it resolves through the world's resolver, whose memo is always
on; ``tests/oracles/skip_audit.py`` re-derives states without it).
This is the seed pipeline's sweep verbatim, plus the one
dead-letter rule production also follows: a ``FaultConfig.poison_fqdns``
subject is never sampled and becomes one ``(fqdn, reason)`` dead
letter.  Production runs :class:`~repro.core.sweep.ProcessExecutor`;
it must export the same bytes as this oracle, with and without faults.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.monitoring import TRANSIENT_SAMPLE_STATUSES, WeeklyMonitor
from repro.core.sweep import ChangedPair, SweepExecutor, SweepReport
from repro.dns.names import Name
from repro.faults.plan import PoisonedName
from tests.oracles.reference_sampler import reference_sample

#: Batch size of :func:`sweep_iter` when the caller names none.
DEFAULT_BATCH_SIZE = 256


def sweep_iter(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    batch_size: int = DEFAULT_BATCH_SIZE,
    failures: Optional[List[Tuple[Name, str]]] = None,
    dead_letters: Optional[List[Tuple[Name, str]]] = None,
) -> Iterator[List[ChangedPair]]:
    """Sample in fixed-size batches, yielding each batch's changes.

    Yields one (possibly empty) changed-pairs list per batch; iterating
    to exhaustion is equivalent to :func:`sweep`.  Retry-exhausted
    transient failures are appended to ``failures`` and poisoned names
    to ``dead_letters`` when given (and dropped otherwise).  The batch
    size is validated at call time, not at the first ``next()``.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    sink: List[Tuple[Name, str]] = failures if failures is not None else []
    letters: List[Tuple[Name, str]] = dead_letters if dead_letters is not None else []
    return _sweep_batches(monitor, fqdns, at, batch_size, sink, letters)


def _sweep_batches(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    size: int,
    failures: List[Tuple[Name, str]],
    dead_letters: List[Tuple[Name, str]],
) -> Iterator[List[ChangedPair]]:
    poison = getattr(monitor.client.fault_plan, "poison", frozenset())
    for start in range(0, len(fqdns), size):
        changed: List[ChangedPair] = []
        for fqdn in fqdns[start:start + size]:
            if fqdn.lower() in poison:
                error = PoisonedName(fqdn)
                dead_letters.append((fqdn, f"{type(error).__name__}: {error}"))
                continue
            features = reference_sample(monitor, fqdn, at)
            if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                # Retries exhausted and the state is still unknown: keep
                # the last trusted state and hand the FQDN to quarantine.
                failures.append((fqdn, features.fetch_status))
                continue
            is_new, previous = monitor.store.record(features)
            if is_new:
                changed.append((features, previous))
        yield changed


def sweep(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    failures: Optional[List[Tuple[Name, str]]] = None,
    dead_letters: Optional[List[Tuple[Name, str]]] = None,
) -> List[ChangedPair]:
    """Sample every FQDN once; the ``(new, previous)`` state changes."""
    changed: List[ChangedPair] = []
    batches = sweep_iter(
        monitor, fqdns, at, failures=failures, dead_letters=dead_letters
    )
    for batch in batches:
        changed.extend(batch)
    return changed


class SerialExecutor(SweepExecutor):
    """The serial sweep behind the :class:`SweepExecutor` interface."""

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        samples0 = monitor.samples_taken
        sitemap0 = monitor.sitemap_fetches
        started = time.perf_counter()
        cpu0 = time.process_time()
        failures: List[Tuple[Name, str]] = []
        dead_letters: List[Tuple[Name, str]] = []
        changed = sweep(
            monitor, fqdns, at, failures=failures, dead_letters=dead_letters
        )
        report = SweepReport(
            changed=changed,
            failures=failures,
            dead_letters=dead_letters,
            samples_taken=monitor.samples_taken - samples0,
            sitemap_fetches=monitor.sitemap_fetches - sitemap0,
            wall_seconds=time.perf_counter() - started,
            cpu_seconds=time.process_time() - cpu0,
        )
        self.last_report = report
        return report


def use_serial_sweep(engine) -> SerialExecutor:
    """Make a built scenario engine's sweep stage run the serial oracle."""
    oracle = SerialExecutor()
    (stage,) = [s for s in engine.stages if s.name == "monitor-sweep"]
    stage._executor = oracle
    engine.payload.executor = oracle
    return oracle
