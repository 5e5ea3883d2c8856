"""Declarative analysis-task registry and parallel task-graph executor.

Every Section 4–6 analysis behind the paper's figures used to run
strictly serially inside one monolithic string-builder; this module
makes the analysis tier a first-class, parallelizable, observable
stage.  An :class:`AnalysisTask` names one pure analysis — a function
of the finished :class:`~repro.core.scenario.ScenarioResult` (plus the
payloads of declared upstream tasks) returning a picklable payload —
and an :class:`AnalysisRegistry` holds them in a fixed order that
doubles as the topological order of the task graph (dependencies must
be registered first).

:func:`run_analyses` executes a registry two ways with byte-identical
results:

* ``workers <= 1`` — the serial parity path: tasks run in registry
  order, in process.
* ``workers > 1`` — a forked task-graph pool: up to ``workers``
  children run concurrently, each executing one task against the
  copy-on-write world and shipping its payload home over a pipe.
  Ready tasks are dispatched highest-static-cost first (LPT-style);
  however the pool schedules them, outcomes are merged **in registry
  order**, so renderers and exports cannot observe the interleaving.

Failures are isolated per task: a task that raises degrades to an
error outcome (one-line deterministic summary plus the full traceback
for diagnostics) and everything downstream of it is marked skipped —
one broken analysis costs its report section, never the report.

Observability: every task runs under an ``analysis.<name>`` span and
bumps ``analysis.<name>.{ok,failed,skipped}`` counter series (children
swap in a fresh registry/buffer tracer and ship both home), so serial
and parallel runs produce the same deterministic counters.

Fault injection is suppressed for the duration of a run: the analyses
are offline measurements over the finished world, and drawing from the
fault streams here would make task outputs depend on execution order.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import OBS, MetricsRegistry, cpu_seconds_now


@dataclass(frozen=True)
class AnalysisTask:
    """One declarative paper analysis.

    ``run`` must be pure with respect to the scenario result — it may
    read anything but mutate nothing — and return a picklable payload
    (usually one of the analysis dataclasses).  ``deps`` names upstream
    tasks whose payloads are passed in; ``inputs`` documents which
    result components the task reads; ``cost`` is a static scheduling
    hint (dispatched highest first when the pool has a free slot).
    """

    name: str
    run: Callable[..., object]
    inputs: Tuple[str, ...] = ()
    deps: Tuple[str, ...] = ()
    cost: float = 1.0


class AnalysisRegistry:
    """An ordered, validated collection of analysis tasks.

    Registration order is the serial execution order and the merge
    order of the parallel path; dependencies must already be registered
    (which makes every registry a topologically sorted DAG by
    construction — cycles cannot be expressed).
    """

    def __init__(self, tasks: Sequence[AnalysisTask] = ()):
        self._tasks: List[AnalysisTask] = []
        self._by_name: Dict[str, AnalysisTask] = {}
        for task in tasks:
            self.register(task)

    def register(self, task: AnalysisTask) -> AnalysisTask:
        if task.name in self._by_name:
            raise ValueError(f"duplicate analysis task {task.name!r}")
        for dep in task.deps:
            if dep not in self._by_name:
                raise ValueError(
                    f"task {task.name!r} depends on {dep!r}, which is not "
                    "registered yet (dependencies must be registered first)"
                )
        self._by_name[task.name] = task
        self._tasks.append(task)
        return task

    @property
    def tasks(self) -> Tuple[AnalysisTask, ...]:
        return tuple(self._tasks)

    def names(self) -> List[str]:
        return [task.name for task in self._tasks]

    def get(self, name: str) -> AnalysisTask:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[AnalysisTask]:
        return iter(self._tasks)


@dataclass
class AnalysisOutcome:
    """What one task produced: a payload, or an isolated failure."""

    task: str
    payload: object = None
    #: One-line deterministic failure summary (``ExcType: message``),
    #: ``None`` on success.  This is what renderers and the JSON export
    #: show, so serial and parallel failures read identically.
    error: Optional[str] = None
    #: Full traceback for diagnostics; never rendered into the report.
    error_detail: Optional[str] = None
    wall_ms: float = 0.0
    #: CPU ms burned by the task — measured inside the worker, so the
    #: pooled path ships the child's own number home (wall-class data,
    #: excluded from determinism diffs like ``wall_ms``).
    cpu_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class AnalysisRun:
    """All outcomes of one engine run, in registry order."""

    outcomes: List[AnalysisOutcome]
    workers: int = 1
    wall_seconds: float = 0.0
    _index: Dict[str, AnalysisOutcome] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {outcome.task: outcome for outcome in self.outcomes}

    def outcome(self, name: str) -> AnalysisOutcome:
        return self._index[name]

    def payload(self, name: str) -> object:
        return self._index[name].payload

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def failed(self) -> List[AnalysisOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


# -- single-task execution (shared by the serial path and the children) ----


def _execute_task(
    task: AnalysisTask, result, deps: Dict[str, object]
) -> AnalysisOutcome:
    """Run one task with span + counter instrumentation, never raising."""
    started = time.perf_counter()
    cpu0 = cpu_seconds_now()
    try:
        with OBS.tracer.span(f"analysis.{task.name}"):
            payload = task.run(result, deps)
    except Exception as error:  # isolation: one broken analysis != no report
        wall_ms = (time.perf_counter() - started) * 1000.0
        cpu_ms = (cpu_seconds_now() - cpu0) * 1000.0
        if OBS.enabled:
            OBS.metrics.inc(f"analysis.{task.name}.failed")
            OBS.metrics.inc("analysis.tasks_failed")
        return AnalysisOutcome(
            task=task.name,
            error=f"{type(error).__name__}: {error}",
            error_detail=traceback.format_exc(),
            wall_ms=wall_ms,
            cpu_ms=cpu_ms,
        )
    wall_ms = (time.perf_counter() - started) * 1000.0
    cpu_ms = (cpu_seconds_now() - cpu0) * 1000.0
    if OBS.enabled:
        OBS.metrics.inc(f"analysis.{task.name}.ok")
        OBS.metrics.inc("analysis.tasks_ok")
    return AnalysisOutcome(
        task=task.name, payload=payload, wall_ms=wall_ms, cpu_ms=cpu_ms
    )


def _skip_outcome(task: AnalysisTask, failed_dep: str) -> AnalysisOutcome:
    if OBS.enabled:
        OBS.metrics.inc(f"analysis.{task.name}.skipped")
        OBS.metrics.inc("analysis.tasks_skipped")
    return AnalysisOutcome(
        task=task.name,
        error=f"SkippedAnalysis: upstream analysis {failed_dep!r} failed",
    )


def _failed_dep(task: AnalysisTask, done: Dict[str, AnalysisOutcome]) -> Optional[str]:
    for dep in task.deps:
        outcome = done.get(dep)
        if outcome is not None and not outcome.ok:
            return dep
    return None


def _deps_ready(task: AnalysisTask, done: Dict[str, AnalysisOutcome]) -> bool:
    return all(dep in done and done[dep].ok for dep in task.deps)


def _dep_payloads(task: AnalysisTask, done: Dict[str, AnalysisOutcome]) -> Dict[str, object]:
    return {dep: done[dep].payload for dep in task.deps}


# -- the engine ------------------------------------------------------------


def run_analyses(
    result,
    registry: Optional[AnalysisRegistry] = None,
    workers: int = 1,
) -> AnalysisRun:
    """Execute a task registry over one finished scenario.

    ``workers <= 1`` runs the serial parity path; ``workers > 1`` runs
    the forked pool (falling back to serial where ``os.fork`` does not
    exist).  Output is byte-identical either way: outcomes are always
    merged in registry order.
    """
    if registry is None:
        from repro.analysis.tasks import default_registry

        registry = default_registry()
    workers = max(1, int(workers))
    plan = getattr(result, "fault_plan", None)
    suppress = plan.suppressed() if plan is not None else nullcontext()
    started = time.perf_counter()
    with suppress:
        if workers == 1 or len(registry) <= 1 or not hasattr(os, "fork"):
            done = _run_serial(result, registry)
            effective_workers = 1
        else:
            done = _run_pool(result, registry, workers)
            effective_workers = workers
    outcomes = [done[task.name] for task in registry]
    if OBS.enabled:
        # Per-task resource rows, fed in registry order from the
        # worker-measured timings (skips carry zeros and are omitted).
        for outcome in outcomes:
            if outcome.wall_ms or outcome.cpu_ms:
                OBS.series.record_stage(
                    f"analysis.{outcome.task}",
                    outcome.cpu_ms / 1000.0,
                    outcome.wall_ms / 1000.0,
                )
    return AnalysisRun(
        outcomes=outcomes,
        workers=effective_workers,
        wall_seconds=time.perf_counter() - started,
    )


def _run_serial(result, registry: AnalysisRegistry) -> Dict[str, AnalysisOutcome]:
    done: Dict[str, AnalysisOutcome] = {}
    for task in registry:
        failed_dep = _failed_dep(task, done)
        if failed_dep is not None:
            done[task.name] = _skip_outcome(task, failed_dep)
            continue
        done[task.name] = _execute_task(task, result, _dep_payloads(task, done))
    return done


@dataclass
class _Child:
    """One in-flight forked task worker."""

    task: AnalysisTask
    pid: int
    read_fd: int


def _run_pool(
    result, registry: AnalysisRegistry, workers: int
) -> Dict[str, AnalysisOutcome]:
    """The forked task-graph pool.

    Dispatches ready tasks (dependencies completed ok) to at most
    ``workers`` concurrent children, highest static cost first.  Child
    observability (fresh registry + buffered spans) is shipped home in
    the result frame; the parent folds registries and replays trace
    events in **registry order** after the pool drains, so the merged
    counters and the sim-clock trace projection match a serial run.
    """
    pending: List[AnalysisTask] = list(registry)
    done: Dict[str, AnalysisOutcome] = {}
    active: Dict[int, _Child] = {}
    obs_freight: Dict[str, Tuple[Optional[MetricsRegistry], List[Dict]]] = {}

    def resolve_skips() -> None:
        # Failure cascades can unlock several rounds of skips.
        while True:
            skipped = [
                task for task in pending if _failed_dep(task, done) is not None
            ]
            if not skipped:
                return
            for task in skipped:
                done[task.name] = _skip_outcome(task, _failed_dep(task, done))
                pending.remove(task)

    def next_ready() -> Optional[AnalysisTask]:
        ready = [task for task in pending if _deps_ready(task, done)]
        if not ready:
            return None
        # LPT-style: largest static cost first; registry order breaks
        # ties so dispatch is deterministic.
        order = {task.name: i for i, task in enumerate(registry)}
        ready.sort(key=lambda task: (-task.cost, order[task.name]))
        return ready[0]

    while pending or active:
        resolve_skips()
        while len(active) < workers:
            task = next_ready()
            if task is None:
                break
            pending.remove(task)
            child = _spawn(task, result, _dep_payloads(task, done))
            active[child.read_fd] = child
        if not active:
            if pending:  # unreachable for a validated registry
                raise RuntimeError(
                    f"analysis pool deadlocked with {len(pending)} tasks pending"
                )
            break
        readable, _, _ = select.select(list(active), [], [])
        for read_fd in readable:
            child = active.pop(read_fd)
            outcome, freight = _collect(child)
            done[child.task.name] = outcome
            if freight is not None:
                obs_freight[child.task.name] = freight

    if OBS.enabled and obs_freight:
        # Deterministic fold: registry order, whatever the completion
        # interleaving was.
        for task in registry:
            freight = obs_freight.get(task.name)
            if freight is None:
                continue
            registry_part, events = freight
            if registry_part is not None:
                OBS.metrics.merge_from(registry_part)
            if events:
                OBS.tracer.replay(events)
    return done


# -- fork plumbing ---------------------------------------------------------


def fork_with_pipe() -> Tuple[int, int, int]:
    """Fork with a result pipe, leaking nothing on failure.

    Returns ``(pid, read_fd, write_fd)``.  If ``os.fork`` raises —
    EAGAIN under pid pressure, ENOMEM — both pipe ends are closed
    before the exception propagates, so a failed spawn can't bleed
    file descriptors across a long campaign.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    return pid, read_fd, write_fd


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, length: int) -> bytes:
    chunks: List[bytes] = []
    remaining = length
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            raise RuntimeError("worker closed its pipe before reporting")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _spawn(task: AnalysisTask, result, deps: Dict[str, object]) -> _Child:
    pid, read_fd, write_fd = fork_with_pipe()
    if pid == 0:
        os.close(read_fd)
        exit_code = 0
        try:
            if OBS.enabled:
                # The child's counters and spans die with it: swap in a
                # fresh registry and a buffer tracer and ship both home.
                OBS.metrics = MetricsRegistry()
                OBS.tracer = OBS.tracer.fork_buffer()
            outcome = _execute_task(task, result, deps)
            registry_part = OBS.metrics if OBS.enabled else None
            # Metrics-only configurations leave the null tracer (which
            # buffers nothing) installed.
            events = getattr(OBS.tracer, "events", []) if OBS.enabled else []
            try:
                payload = pickle.dumps(
                    (outcome, registry_part, events),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception as error:
                # The analysis ran but its payload cannot cross the
                # pipe: degrade to an error outcome rather than a dead
                # worker.
                fallback = AnalysisOutcome(
                    task=task.name,
                    error=f"UnpicklablePayload: {type(error).__name__}: {error}",
                    error_detail=traceback.format_exc(),
                    wall_ms=outcome.wall_ms,
                )
                payload = pickle.dumps(
                    (fallback, registry_part, events),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            _write_all(write_fd, struct.pack("<Q", len(payload)) + payload)
            os.close(write_fd)
        except BaseException:
            exit_code = 1
        os._exit(exit_code)
    os.close(write_fd)
    return _Child(task=task, pid=pid, read_fd=read_fd)


def _collect(
    child: _Child,
) -> Tuple[AnalysisOutcome, Optional[Tuple[Optional[MetricsRegistry], List[Dict]]]]:
    """Read one child's result frame; a dead worker degrades to an error."""
    try:
        header = _read_exact(child.read_fd, 8)
        (length,) = struct.unpack("<Q", header)
        payload = _read_exact(child.read_fd, length)
    except Exception as error:
        os.close(child.read_fd)
        _, status = os.waitpid(child.pid, 0)
        return (
            AnalysisOutcome(
                task=child.task.name,
                error=(
                    f"AnalysisWorkerDied: task {child.task.name!r} worker "
                    f"pid {child.pid} (status {status}): {error}"
                ),
            ),
            None,
        )
    os.close(child.read_fd)
    os.waitpid(child.pid, 0)
    outcome, registry_part, events = pickle.loads(payload)
    return outcome, (registry_part, events)
