"""Per-layer attribution from a traced run.

The program is not instrumented for this: every timing comes from
wrappers that the benchmark installs, from outside, around the public
calls into each layer (named after its module), and every ratio from
the program's own obs counters.  A wrapper records calls, busy time
(wall time inside the outermost call of that boundary) and self time
(busy time minus the wrapped calls made inside it).  Nesting is tracked
on one stack, so over the weekly run the self times of all boundaries
sum to the stage ticks' busy time; the self-time check holds the
wrappers to that.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from typing import Callable, Dict, List, Optional

from run import (
    SELF_TIME_TOLERANCE,
    analyse,
    choose_config,
    cpu_now,
    dead_lettered,
    operations,
    output_checks,
    output_digests,
    step_weeks,
)

_MISSING = object()


@dataclasses.dataclass
class Boundary:
    """Aggregates of one wrapped call site."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    depth: int = 0


class LayerTracer:
    """Wraps layer entry points and aggregates their spans in memory."""

    def __init__(self) -> None:
        self.boundaries: Dict[str, Boundary] = {}
        # Child time accumulated by each open wrapped call.
        self._stack: List[List[float]] = []
        self._patched: list = []

    def timed(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
        cpu: bool = False,
    ) -> Callable:
        """``fn`` wrapped to charge its time to boundary ``name``."""
        boundary = self.boundaries.setdefault(name, Boundary())
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            boundary.calls += 1
            boundary.depth += 1
            children = [0.0]
            stack.append(children)
            cpu0 = cpu_now() if cpu else 0.0
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                if cpu:
                    boundary.cpu_s += cpu_now() - cpu0
                stack.pop()
                boundary.depth -= 1
                boundary.self_s += elapsed - children[0]
                if not boundary.depth:
                    boundary.busy_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (on a class, instance or module) with a wrapper."""
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.timed(name, getattr(owner, attr), **options))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Zero every aggregate at a phase boundary, when no call is open."""
        for boundary in self.boundaries.values():
            boundary.calls = 0
            boundary.busy_s = boundary.self_s = boundary.cpu_s = 0.0

    def snapshot(self) -> Dict[str, Boundary]:
        return {name: dataclasses.replace(b) for name, b in self.boundaries.items()}


def _counter(counters: Dict[str, int], name: str) -> int:
    """Sum of counter ``name`` over all its label sets."""
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Sum:
    """A running total fed from a wrapper's ``on_result`` hook."""

    def __init__(self, field: Callable[[object], float]) -> None:
        self.total = 0
        self._field = field

    def __call__(self, result) -> None:
        self.total += self._field(result)


def measure_layers(workload: str, seed: int):
    """The traced run: per-layer metrics, context and self-checks.

    After the traced pass, the same world runs once more untraced in
    this process: its ``run_s`` gives the tracing overhead, and its
    digests must equal the traced pass's.  The traced pass goes first
    so that its RSS growth is measured on a fresh process.
    """
    import repro.analysis.tasks as analysis_tasks
    from repro.analysis.engine import AnalysisRegistry
    from repro.attacker.campaign import CampaignOrchestrator
    from repro.core.collection import FqdnCollector
    from repro.core.detection import AbuseDetector
    from repro.core.monitoring import SnapshotStore, WeeklyMonitor
    from repro.core.scenario import build_scenario
    from repro.dns.resolver import Resolver
    from repro.obs import OBS
    from repro.obs.metrics import MetricsRegistry
    from repro.web.client import HttpClient
    from repro.web.server import VirtualHostServer
    from repro.world.lifecycle import WorldEngine
    from repro.world.population import PopulationBuilder
    from repro.world.users import UserPopulation

    config, _, _ = choose_config(workload, seed)
    tracer = LayerTracer()
    visits = _Sum(lambda n: n)
    attempts = _Sum(lambda outcome: outcome.attempts)
    reported_cpu = _Sum(lambda report: report.cpu_seconds)
    changes = _Sum(lambda n: n or 0)
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        tracer.patch(PopulationBuilder, "build", "world.build")
        tracer.patch(WorldEngine, "step", "world.step")
        tracer.patch(UserPopulation, "weekly_browse", "world.browse", on_result=visits)
        tracer.patch(CampaignOrchestrator, "step", "attacker.step")
        tracer.patch(FqdnCollector, "ingest", "collection.ingest")
        tracer.patch(
            WeeklyMonitor, "extract_sitemap_fields", "monitoring.sitemap_extract"
        )
        tracer.patch(SnapshotStore, "record", "monitoring.store_record")
        tracer.patch(Resolver, "resolve", "dns.resolve")
        tracer.patch(VirtualHostServer, "serve", "web.serve")
        tracer.patch(HttpClient, "fetch", "web.fetch", on_result=attempts)
        tracer.patch(AbuseDetector, "process_week", "detection.process_week")
        tracer.patch(analysis_tasks, "render_sections", "analysis.render")

        gc.collect()
        engine = build_scenario(config)
        built = tracer.snapshot()
        result = engine.payload
        tracer.patch(
            result.executor, "sweep", "monitoring.sweep", cpu=True,
            on_result=reported_cpu,
        )
        stage_names = [stage.name for stage in engine.stages]
        for stage in engine.stages:
            tracer.patch(
                stage, "tick", f"stage.{stage.name}",
                on_result=changes if stage.name == "change-detect" else None,
            )

        tracer.reset()
        sums = (visits, attempts, reported_cpu, changes)
        for total in sums:
            total.total = 0
        counters0 = registry.counters()
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        step_times: list = []
        fqdn_weeks = step_weeks(engine, step_times, [])
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run_s = sum(step_times)
        spans = tracer.snapshot()
        visits_n, attempts_n, reported_cpu_s, changes_n = (t.total for t in sums)
        counters = {
            key: value - counters0.get(key, 0)
            for key, value in registry.counters().items()
        }

        tracer.reset()
        registry_wrapped = AnalysisRegistry([
            dataclasses.replace(task, run=tracer.timed(f"analysis.{task.name}", task.run))
            for task in analysis_tasks.default_registry()
        ])
        started = time.perf_counter()
        run = analyse(result, registry_wrapped)
        report_s = time.perf_counter() - started
        reporting = tracer.snapshot()
    finally:
        tracer.restore()
        OBS.reset()

    digests = output_digests(result, run)
    checks = output_checks(workload, seed, engine, run, digests)

    # Each boundary must fire in the phase its metrics cover.
    analysis_names = [task.name for task in registry_wrapped]
    phases = [
        (built, ["world.build", "collection.ingest"]),
        (spans, [n for n in spans if n != "world.build" and not n.startswith("analysis.")]),
        (reporting, [n for n in reporting if n.startswith("analysis.")]),
    ]
    unfired = sorted(n for snap, names in phases for n in names if not snap[n].calls)
    checks["boundaries_fired"] = not unfired

    stage_busy = sum(spans[f"stage.{name}"].busy_s for name in stage_names)
    overhead = run_s - stage_busy
    self_sum = sum(b.self_s for b in spans.values())
    residual = self_sum + overhead - run_s
    checks["self_time_sum"] = abs(residual) <= SELF_TIME_TOLERANCE * run_s

    collector = result.collector
    monitored = collector.monitored_count()
    states = result.monitor.store.state_count()
    rss_growth_kb = rss1 - rss0
    sweep = spans["monitoring.sweep"]

    s, n, r = "s", "count", "ratio"
    metrics = {
        "world.build_s": (built["world.build"].busy_s, s),
        "world.step_s": (spans["world.step"].busy_s, s),
        "world.browse_s": (spans["world.browse"].busy_s, s),
        "world.visits": (visits_n, n),
        "attacker.step_s": (spans["attacker.step"].self_s, s),
        "attacker.takeovers": (len(result.ground_truth), n),
        "collection.setup_ingest_s": (built["collection.ingest"].busy_s, s),
        "collection.ingest_s": (spans["collection.ingest"].busy_s, s),
        "collection.monitored": (monitored, n),
        "monitoring.sweep_s": (sweep.busy_s, s),
        "monitoring.self_s": (sweep.self_s, s),
        "monitoring.sweep_cpu_s": (sweep.cpu_s, s),
        "monitoring.reported_cpu_s": (reported_cpu_s, s),
        "monitoring.fqdn_weeks": (fqdn_weeks, n),
        "monitoring.us_per_fqdn_week": (sweep.busy_s / fqdn_weeks * 1e6, "us"),
        "monitoring.sitemap_extract_s": (spans["monitoring.sitemap_extract"].busy_s, s),
        "monitoring.store_record_s": (spans["monitoring.store_record"].busy_s, s),
        "monitoring.states": (states, n),
        "monitoring.failed": (dead_lettered(engine), n),
        "monitoring.touch_share": (_ratio(
            _counter(counters, "sweep.sample.touch")
            + _counter(counters, "journal.clean_skips"),
            fqdn_weeks,
        ), r),
        "monitoring.extract_hit_ratio": (_ratio(
            _counter(counters, "extraction.html.hits"),
            _counter(counters, "extraction.html.hits")
            + _counter(counters, "extraction.html.misses"),
        ), r),
        "monitoring.kb_per_fqdn": (rss_growth_kb / monitored, "kB"),
        "monitoring.kb_per_state": (rss_growth_kb / states, "kB"),
        "dns.resolve_s": (spans["dns.resolve"].busy_s, s),
        "dns.queries": (spans["dns.resolve"].calls, n),
        "dns.zone_memo_hit_ratio": (_ratio(
            _counter(counters, "zone.lookup.memo_hits")
            + _counter(counters, "zone.zone_for.memo_hits"),
            sum(_counter(counters, f"zone.{kind}.memo_{event}")
                for kind in ("lookup", "zone_for") for event in ("hits", "misses")),
        ), r),
        "dns.resolver_memo_hit_ratio": (_ratio(
            _counter(counters, "resolver.memo.hits"),
            _counter(counters, "resolver.memo.hits")
            + _counter(counters, "resolver.memo.misses"),
        ), r),
        "web.serve_s": (spans["web.serve"].busy_s, s),
        "web.fetch_s": (spans["web.fetch"].busy_s, s),
        "web.attempts_per_fetch": (
            _ratio(attempts_n, spans["web.fetch"].calls), r
        ),
        "web.breaker_opens": (_counter(counters, "breaker.open"), n),
        "changes.detect_s": (spans["stage.change-detect"].busy_s, s),
        "changes.events": (changes_n, n),
        "detection.process_week_s": (spans["detection.process_week"].busy_s, s),
        "detection.signatures": (len(result.detector.signatures), n),
        "detection.flagged": (len(result.dataset), n),
        "detection.index_prune_ratio": (_ratio(
            _counter(counters, "detector.index.pruned"),
            _counter(counters, "detector.index.pruned")
            + _counter(counters, "detector.index.candidates"),
        ), r),
        "detection.rescan_skip_ratio": (_ratio(
            _counter(counters, "rescan.skipped"),
            _counter(counters, "rescan.skipped") + _counter(counters, "rescan.visited"),
        ), r),
    }
    for name in analysis_names:
        metrics[f"analysis.{name}_s"] = (reporting[f"analysis.{name}"].busy_s, s)
    metrics["analysis.render_s"] = (reporting["analysis.render"].busy_s, s)
    metrics["analysis.report_s"] = (report_s, s)
    for name in stage_names:
        metrics[f"stage.{name}_s"] = (spans[f"stage.{name}"].busy_s, s)
    metrics["pipeline.run_s"] = (run_s, s)
    metrics["pipeline.overhead_s"] = (overhead, s)
    metrics["pipeline.other_stages_s"] = (
        spans["stage.notify"].busy_s + spans["stage.harvest"].busy_s, s
    )
    attempted, failed = operations(engine, run)
    failed_share = dead_lettered(engine) / fqdn_weeks
    del engine, result, run
    gc.collect()
    base_engine = build_scenario(config)
    base_walls: list = []
    step_weeks(base_engine, base_walls, [])
    base_run = analyse(base_engine.payload)
    checks["baseline_digests"] = output_digests(base_engine.payload, base_run) == digests
    base_run_s = sum(base_walls)
    metrics["pipeline.trace_overhead"] = (run_s / base_run_s, r)

    context = {
        "scenario_seed": config.seed,
        "unfired_boundaries": unfired,
        "self_time_residual_s": residual,
        "self_time_tolerance_s": SELF_TIME_TOLERANCE * run_s,
        "untraced_run_s": base_run_s,
        "failed_share": failed_share,
        "boundary_calls": {name: b.calls for name, b in sorted(spans.items())},
        **digests,
    }
    return metrics, context, checks, attempted, failed
