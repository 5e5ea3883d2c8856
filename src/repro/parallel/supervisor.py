"""Self-healing supervision of the sharded sweep.

A bare fork protocol treats any worker failure as fatal: one SIGKILL'd
child aborts the whole sweep, and a hung child blocks the parent
forever in a blocking ``waitpid``.  A three-year weekly campaign cannot
work that way.  This module runs every shard — forked or inline — with
real failure handling:

* **deadlines** — each worker gets a wall-clock budget; the parent
  drains its pipe through ``select`` with a timeout and reaps expired
  workers with SIGKILL plus a ``waitpid(WNOHANG)`` poll loop, so a hung
  worker costs one deadline, never the sweep;
* **death detection** — a worker that dies by signal, exits nonzero, or
  truncates its result pickle is recognized and described with its
  shard identity (index plus FQDN slice bounds), not just a pid;
* **bounded re-dispatch** — a failed span is re-forked up to a retry
  budget; transient faults (a crashed or hung worker) clear on retry;
* **poison isolation via bisection** — a span that keeps failing is
  split in half and each half retried, recursively, until the single
  offending FQDN is isolated and quarantined into a dead-letter record
  with the failure reason.  One pathological subject costs one name,
  not the sweep.

Recovered results are stitched back **in original shard order** (a
bisected span's halves concatenate left-to-right), so the executor's
deterministic merge — and therefore the exported bytes — are identical
to a crash-free run, modulo the quarantined names.

Fault injection: :meth:`~repro.faults.plan.FaultPlan.worker_fault`
draws ``crash``/``hang`` decisions from per-shard RNG streams on a
span's *first* dispatch only, and :meth:`~repro.faults.plan.FaultPlan.poison_hit`
names make the worker die on *every* attempt — so random faults are
always survivable while poison deterministically reaches quarantine,
all without a single real network or scheduler dependency.
"""

from __future__ import annotations

import errno
import os
import pickle
import select
import signal
import struct
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional, Sequence, Tuple

from repro.core.monitoring import ExtractionCache, WeeklyMonitor
from repro.dns.names import Name
from repro.obs import OBS
from repro.parallel.shard import (
    ShardResult,
    _write_all,
    fork_with_pipe,
    run_shard,
    shard_bounds,
    shard_ident,
)

_LENGTH = struct.Struct("<Q")


class WorkerFailure(Exception):
    """One span attempt failed; ``kind`` classifies how.

    ``kind`` is ``"crash"`` (death by signal / nonzero exit / truncated
    or corrupt payload), ``"hang"`` (deadline expired) or ``"error"``
    (the worker itself reported a sampling exception).
    """

    def __init__(self, reason: str, kind: str = "crash"):
        super().__init__(reason)
        self.kind = kind


@dataclass
class SupervisorConfig:
    """Failure-handling knobs of one supervised sweep."""

    #: Wall-clock budget per worker, measured from its fork.  ``None``
    #: waits indefinitely (worker *death* is still detected via pipe
    #: EOF; only true hangs need a deadline).
    shard_deadline: Optional[float] = None
    #: Re-dispatches of one span after its first failure, before the
    #: span is bisected (or, at one name, quarantined).  Must be >= 1
    #: so a once-per-span random fault can never reach quarantine.
    max_shard_retries: int = 2
    #: How long to poll ``waitpid(WNOHANG)`` for a child that already
    #: closed its pipe before escalating to SIGKILL.
    reap_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.max_shard_retries < 1:
            raise ValueError(
                f"max_shard_retries must be >= 1, got {self.max_shard_retries}"
            )


@dataclass
class DeadLetter:
    """One quarantined FQDN: the poison bisection's terminal record."""

    fqdn: Name
    shard_index: int
    reason: str


@dataclass
class SupervisedSweep:
    """Everything one supervised sweep produced.

    ``results`` holds exactly one :class:`ShardResult` per original
    shard, in shard order, with retried/bisected spans already stitched
    back together; ``quarantined`` lists the names bisection isolated.
    """

    results: List[ShardResult] = field(default_factory=list)
    quarantined: List[DeadLetter] = field(default_factory=list)
    worker_crashes: int = 0
    worker_hangs: int = 0
    shard_retries: int = 0


@dataclass
class _Worker:
    """Parent-side handle on one forked span attempt."""

    pid: int
    read_fd: int
    started: float
    index: int
    bounds: Tuple[int, int]


def _describe_exit(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    if os.WIFEXITED(status):
        code = os.WEXITSTATUS(status)
        return f"exited {code}" if code else "exited 0"
    return f"wait status {status}"  # pragma: no cover - stopped/continued


def _reap(pid: int, grace: float) -> int:
    """Non-blocking reap: ``WNOHANG`` poll, then SIGKILL escalation.

    Never blocks the sweep on a child that refuses to die: after
    ``grace`` seconds of polling, the child is SIGKILL'd and the wait
    repeats (SIGKILL is not maskable, so this terminates).
    """
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return 0
        if done == pid:
            return status
        if not killed and time.monotonic() >= deadline:
            _kill(pid)
            killed = True
        time.sleep(0.005)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _send_payload(write_fd: int, payload: bytes) -> None:
    """Child-side result send (module-level so tests can interpose)."""
    _write_all(write_fd, _LENGTH.pack(len(payload)) + payload)


def _simulate_worker_fault(fault: Optional[str], plan, fqdns: Sequence[Name]) -> None:
    """Act out an injected process fault *inside the forked child*.

    A crash is a real ``SIGKILL`` to self — the parent sees pipe EOF
    and a signal exit status, exactly like an OOM kill.  A hang parks
    the child in a sleep loop until the supervisor's deadline reaps it.
    Poison subjects crash the worker on every attempt.
    """
    if plan is not None and plan.poison_hit(fqdns) is not None:
        _kill(os.getpid())
    if fault == "crash":
        _kill(os.getpid())
    elif fault == "hang":
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(0.05)


def _spawn(
    monitor: WeeklyMonitor,
    index: int,
    fqdns: Sequence[Name],
    bounds: Tuple[int, int],
    at: datetime,
    cache: Optional[ExtractionCache],
    fault: Optional[str],
) -> _Worker:
    """Fork one span attempt; the child never returns."""
    pid, read_fd, write_fd = fork_with_pipe()
    if pid == 0:
        os.close(read_fd)
        exit_code = 0
        try:
            _simulate_worker_fault(fault, monitor.client.fault_plan, fqdns)
            try:
                result = run_shard(monitor, index, fqdns, at, cache, forked=True)
                payload = pickle.dumps(
                    ("ok", result), protocol=pickle.HIGHEST_PROTOCOL
                )
            except BaseException:
                payload = pickle.dumps(
                    (
                        "err",
                        f"{shard_ident(index, bounds)}:\n{traceback.format_exc()}",
                    ),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            _send_payload(write_fd, payload)
            os.close(write_fd)
        except BaseException:
            exit_code = 1
        os._exit(exit_code)
    os.close(write_fd)
    return _Worker(
        pid=pid, read_fd=read_fd, started=time.monotonic(), index=index,
        bounds=bounds,
    )


def _collect(worker: _Worker, config: SupervisorConfig) -> ShardResult:
    """Drain one worker's pipe within its deadline; raise on failure.

    The read loop is ``select``-driven so a silent worker costs at most
    the remaining deadline, and the worker is *always* reaped — by the
    ``WNOHANG`` poll loop on the happy path, by SIGKILL on expiry.
    """
    ident = f"{shard_ident(worker.index, worker.bounds)} worker pid {worker.pid}"
    deadline = (
        worker.started + config.shard_deadline
        if config.shard_deadline is not None
        else None
    )
    buffer = bytearray()
    length: Optional[int] = None
    try:
        while True:
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    _kill(worker.pid)
                    status = _reap(worker.pid, config.reap_grace)
                    raise WorkerFailure(
                        f"{ident}: no result within the "
                        f"{config.shard_deadline:g}s deadline; "
                        f"killed ({_describe_exit(status)})",
                        kind="hang",
                    )
            else:
                timeout = None
            try:
                ready, _, _ = select.select([worker.read_fd], [], [], timeout)
            except OSError as error:  # pragma: no cover - EINTR on old kernels
                if error.errno == errno.EINTR:
                    continue
                raise
            if not ready:
                continue
            chunk = os.read(worker.read_fd, 1 << 20)
            if not chunk:
                status = _reap(worker.pid, config.reap_grace)
                raise WorkerFailure(
                    f"{ident}: {_describe_exit(status)} after sending "
                    f"{len(buffer)} of "
                    f"{'?' if length is None else length + _LENGTH.size} "
                    f"result bytes",
                    kind="crash",
                )
            buffer.extend(chunk)
            if length is None and len(buffer) >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer)
            if length is not None and len(buffer) >= _LENGTH.size + length:
                break
    finally:
        os.close(worker.read_fd)
    _reap(worker.pid, config.reap_grace)
    try:
        kind, value = pickle.loads(bytes(buffer[_LENGTH.size:_LENGTH.size + length]))
    except Exception as error:
        raise WorkerFailure(f"{ident}: corrupt result payload ({error})", kind="crash")
    if kind == "err":
        raise WorkerFailure(str(value), kind="error")
    return value


def _run_inline(
    monitor: WeeklyMonitor,
    index: int,
    fqdns: Sequence[Name],
    bounds: Tuple[int, int],
    at: datetime,
    cache: Optional[ExtractionCache],
    fault: Optional[str],
) -> ShardResult:
    """One span attempt without fork (single CPU / no ``os.fork``).

    Injected faults raise *before* any sampling, so a simulated failed
    attempt has zero parent-state side effects; a genuine mid-sample
    exception additionally rolls the monitor/client counters back to
    their pre-attempt values (best effort — the data it mutated on the
    way down is exactly what a real crashed inline process would have
    lost anyway).
    """
    plan = monitor.client.fault_plan
    ident = shard_ident(index, bounds)
    if plan is not None and plan.poison_hit(fqdns) is not None:
        raise WorkerFailure(f"{ident}: worker crashed mid-shard (inline)", kind="crash")
    if fault == "crash":
        raise WorkerFailure(f"{ident}: worker crashed mid-shard (inline)", kind="crash")
    if fault == "hang":
        raise WorkerFailure(
            f"{ident}: worker hung; reaped at deadline (inline)", kind="hang"
        )
    client = monitor.client
    snapshot = (
        monitor.samples_taken,
        monitor.sitemap_fetches,
        client.retries_total,
        client.backoff_seconds_total,
    )
    try:
        return run_shard(monitor, index, fqdns, at, cache, forked=False)
    except Exception:
        (
            monitor.samples_taken,
            monitor.sitemap_fetches,
            client.retries_total,
            client.backoff_seconds_total,
        ) = snapshot
        raise WorkerFailure(
            f"{ident}:\n{traceback.format_exc()}", kind="error"
        )


def _combine(left: ShardResult, right: ShardResult) -> ShardResult:
    """Stitch a bisected span's halves back into one in-order result."""
    merged = ShardResult(index=left.index, size=left.size + right.size)
    merged.sampled = left.sampled + right.sampled
    merged.failures = left.failures + right.failures
    merged.samples_taken = left.samples_taken + right.samples_taken
    merged.sitemap_fetches = left.sitemap_fetches + right.sitemap_fetches
    merged.retries = left.retries + right.retries
    merged.backoff_seconds = left.backoff_seconds + right.backoff_seconds
    merged.breaker_trips = left.breaker_trips + right.breaker_trips
    merged.injected = dict(left.injected)
    for kind, count in right.injected.items():
        merged.injected[kind] = merged.injected.get(kind, 0) + count
    merged.observations = left.observations + right.observations
    merged.new_html = {**left.new_html, **right.new_html}
    merged.new_sitemap = {**left.new_sitemap, **right.new_sitemap}
    merged.cache_hits = left.cache_hits + right.cache_hits
    merged.cache_misses = left.cache_misses + right.cache_misses
    merged.ledger_entries = {**left.ledger_entries, **right.ledger_entries}
    merged.wall_seconds = left.wall_seconds + right.wall_seconds
    # Bisected halves ran sequentially in separate workers: CPU sums,
    # peak RSS is whichever half's process grew larger.
    merged.cpu_seconds = left.cpu_seconds + right.cpu_seconds
    merged.peak_rss_kb = max(left.peak_rss_kb, right.peak_rss_kb)
    merged.fused = left.fused and right.fused
    if left.metrics is not None and right.metrics is not None:
        merged.metrics = left.metrics.merge(right.metrics)
    else:
        merged.metrics = left.metrics if left.metrics is not None else right.metrics
    merged.trace_events = left.trace_events + right.trace_events
    return merged


def _empty_result(index: int, size: int) -> ShardResult:
    return ShardResult(index=index, size=size)


class ShardSupervisor:
    """Drives one sweep's spans through attempt / retry / bisect."""

    def __init__(
        self,
        monitor: WeeklyMonitor,
        at: datetime,
        cache: Optional[ExtractionCache],
        config: SupervisorConfig,
        forked: bool,
    ):
        self.monitor = monitor
        self.at = at
        self.cache = cache
        self.config = config
        self.forked = forked
        self.plan = monitor.client.fault_plan
        self.outcome = SupervisedSweep()

    # -- bookkeeping ------------------------------------------------------

    def _draw_fault(self, shard_index: int) -> Optional[str]:
        if self.plan is None:
            return None
        return self.plan.worker_fault(shard_index)

    def _note_failure(self, failure: WorkerFailure) -> None:
        if failure.kind == "hang":
            self.outcome.worker_hangs += 1
            if OBS.enabled:
                OBS.metrics.inc("supervisor.worker_hangs")
        else:
            self.outcome.worker_crashes += 1
            if OBS.enabled:
                OBS.metrics.inc("supervisor.worker_crashes")

    # -- span execution ---------------------------------------------------

    def _attempt(
        self,
        index: int,
        fqdns: Sequence[Name],
        bounds: Tuple[int, int],
        fault: Optional[str],
    ) -> ShardResult:
        if self.forked:
            worker = _spawn(
                self.monitor, index, fqdns, bounds, self.at, self.cache, fault
            )
            return _collect(worker, self.config)
        return _run_inline(
            self.monitor, index, fqdns, bounds, self.at, self.cache, fault
        )

    def run_span(
        self,
        index: int,
        fqdns: Sequence[Name],
        bounds: Tuple[int, int],
        initial_failure: Optional[WorkerFailure] = None,
    ) -> ShardResult:
        """One span to completion: attempts, then bisection/quarantine.

        ``initial_failure`` is set when the span's first (concurrent)
        dispatch already failed — the retry budget picks up from there.
        Returns the span's results with every recoverable name sampled
        in input order; quarantined names are recorded on the outcome
        and simply absent from the result.
        """
        failure = initial_failure
        first_attempt = 0 if initial_failure is None else 1
        for attempt in range(first_attempt, self.config.max_shard_retries + 1):
            # Random worker faults are drawn once per span, on its
            # first dispatch; retries run fault-free so they always
            # converge.  Poison is consulted inside the worker on
            # every attempt — that is what bisection is for.
            fault = self._draw_fault(index) if attempt == 0 else None
            if attempt > 0:
                self.outcome.shard_retries += 1
                if OBS.enabled:
                    OBS.metrics.inc("supervisor.shard_retries")
            try:
                if attempt > 0:
                    with OBS.tracer.span(
                        "supervisor.redispatch", sim=self.at, shard=index,
                        attempt=attempt, size=len(fqdns),
                    ):
                        return self._attempt(index, fqdns, bounds, fault)
                return self._attempt(index, fqdns, bounds, fault)
            except WorkerFailure as error:
                self._note_failure(error)
                failure = error
        assert failure is not None
        if len(fqdns) == 1:
            self.outcome.quarantined.append(
                DeadLetter(fqdn=fqdns[0], shard_index=index, reason=str(failure))
            )
            if OBS.enabled:
                OBS.metrics.inc("supervisor.poison_quarantined")
            return _empty_result(index, len(fqdns))
        mid = len(fqdns) // 2
        start, end = bounds
        with OBS.tracer.span(
            "supervisor.bisect", sim=self.at, shard=index, size=len(fqdns),
        ):
            left = self.run_span(index, fqdns[:mid], (start, start + mid))
            right = self.run_span(index, fqdns[mid:], (start + mid, end))
        return _combine(left, right)


def run_shards_supervised(
    monitor: WeeklyMonitor,
    shards: List[List[Name]],
    at: datetime,
    cache: Optional[ExtractionCache],
    config: Optional[SupervisorConfig] = None,
    forked: bool = True,
) -> SupervisedSweep:
    """Run every shard under supervision; results in shard order.

    In ``forked`` mode all top-level spans launch concurrently and are
    drained in shard order;
    recovery of any failed span — re-dispatch, then bisection — runs
    sequentially, which keeps the fault-stream draw order, and thus the
    whole storm, deterministic.  With ``forked=False`` every span runs
    inline with identical retry/bisect semantics (injected faults are
    raised instead of signalled).
    """
    config = config if config is not None else SupervisorConfig()
    supervisor = ShardSupervisor(monitor, at, cache, config, forked)
    bounds = shard_bounds(shards)
    outcome = supervisor.outcome
    if not forked:
        for index, shard in enumerate(shards):
            outcome.results.append(supervisor.run_span(index, shard, bounds[index]))
        return outcome
    workers: List[Tuple[int, _Worker]] = []
    for index, shard in enumerate(shards):
        fault = supervisor._draw_fault(index)
        workers.append(
            (index, _spawn(monitor, index, shard, bounds[index], at, cache, fault))
        )
    for index, worker in workers:
        try:
            outcome.results.append(_collect(worker, config))
        except WorkerFailure as failure:
            supervisor._note_failure(failure)
            outcome.results.append(
                supervisor.run_span(
                    index, shards[index], bounds[index], initial_failure=failure
                )
            )
    return outcome
