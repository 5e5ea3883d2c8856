#!/usr/bin/env python3
"""Seeded benchmark spine for the weekly measurement pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

One invocation is one fresh process.  It builds the named workload's
world from ``--seed``, steps it one simulated week at a time, runs the
default analysis registry over the finished world and checks the
outputs.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs the world with every layer boundary wrapped and
reports the per-layer metrics (``perfbench/layers.py``).  The last line
of stdout is the JSON result; the line before it holds the run's
context (seed, weeks, nproc, Python version, digests and checks).
``perfbench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Simulated weeks per run.  At least 100 so that ten week samples lie
#: beyond the 90th percentile.
WEEKS = 100
#: Candidate worlds drawn from each seed.  The run steps the one whose
#: initial monitored set is nearest TARGET_MONITORED FQDNs (the median
#: over seeds 1-30): a world's weekly work is 125 times that count, so
#: without the choice the time metrics would spread by the world's size.
CANDIDATES = 8
TARGET_MONITORED = 1800
#: The speed probe: string-keyed dict inserts, the kind of interpreter
#: work the pipeline spends its time on, sampled PROBE_REPEATS times
#: after every timed week and build.
PROBE_KEYS = 20000
PROBE_REPEATS = 3
#: The probe's mean time on the reference box (2 CPUs, Python 3.11);
#: time metrics are scaled to read as seconds at that box's speed.
PROBE_REF_S = 0.005
#: Floors on detection quality every workload clears by a wide margin;
#: falling below one means the pipeline's output is wrong, not slower.
MIN_PRECISION = 0.9
MIN_RECALL = 0.8
#: Tolerance of the traced run's self-time sum check, as a share of
#: the traced ``run_s``.
SELF_TIME_TOLERANCE = 0.005
#: Digests of earlier runs in this checkout, keyed by workload and seed.
STATE_DIR = os.path.join(HERE, ".state")
#: Committed digests of the seeds the benchmark was proven on.
GOLDEN_FILE = os.path.join(HERE, "digests.json")

WORKLOADS = ("steady", "churn", "chaos")


def make_config(workload: str, seed: int):
    """The paper-default world, varied only by the workload's knob."""
    from repro.core.scenario import ScenarioConfig
    from repro.faults.plan import FaultConfig

    config = ScenarioConfig(seed=seed, weeks=WEEKS)
    if workload == "churn":
        config.lifecycle.weekly_release_rate *= 5
        config.notify_owners = True
    elif workload == "chaos":
        config.faults = FaultConfig.chaos(0.05)
    return config


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (getrusage)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """Peak RSS of this process or any reaped child, in KiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _probe_work() -> int:
    table = {}
    for i in range(PROBE_KEYS):
        table[str(i)] = i
    return len(table)


class SpeedProbe:
    """Tracks how fast the machine runs this process, within one run.

    On a shared machine other tenants slow every process by up to a
    third, for seconds to minutes at a time, and the slowdown does not
    average out within a run.  The probe repeats the same fixed work
    between the timed sections of a run, so its mean time follows that
    slowdown; ``factor`` scales the run's times to the reference box's
    speed.  The probe's own time is never inside a timed section.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> None:
        perf = time.perf_counter
        for _ in range(PROBE_REPEATS):
            started = perf()
            _probe_work()
            self.samples.append(perf() - started)

    def factor(self, samples: Optional[list] = None) -> float:
        """Reference over measured speed, for ``samples`` or all of them."""
        return PROBE_REF_S / statistics.fmean(self.samples if samples is None else samples)

    def week_factors(self, first: int, weeks: int, reach: int = 2) -> list:
        """Per-week factors from the samples taken after each week.

        ``first`` indexes the first week's samples.  Each week is scaled
        by the samples of the weeks within ``reach`` of it (about a
        second of wall time), so a slow spell scales only the weeks it
        touched.
        """
        span = PROBE_REPEATS
        return [
            self.factor(self.samples[first + max(0, i - reach) * span:
                                     first + (i + reach + 1) * span])
            for i in range(weeks)
        ]


def time_build(config):
    from repro.core.scenario import build_scenario

    started = time.perf_counter()
    engine = build_scenario(config)
    return engine, time.perf_counter() - started


def choose_config(workload: str, seed: int, probe: Optional[SpeedProbe] = None):
    """The seed's world: the candidate nearest TARGET_MONITORED in size.

    Returns the chosen config, the candidates' build times and their
    initial monitored counts.  Candidates are freed as they are measured,
    so they never add to the run's peak RSS.
    """
    seeds = [seed * CANDIDATES + k for k in range(CANDIDATES)]
    builds, sizes = [], []
    for scenario_seed in seeds:
        gc.collect()
        engine, elapsed = time_build(make_config(workload, scenario_seed))
        builds.append(elapsed)
        sizes.append(engine.payload.collector.monitored_count())
        del engine
        if probe is not None:
            probe.sample()
    gc.collect()
    best = min(range(CANDIDATES), key=lambda k: abs(sizes[k] - TARGET_MONITORED))
    return make_config(workload, seeds[best]), builds, sizes


def step_weeks(engine, walls: list, cpus: list, probe: Optional[SpeedProbe] = None) -> int:
    """Step ``engine`` to the end of its clock, one timed week at a time.

    Appends each ``engine.step()`` wall and CPU time to ``walls`` and
    ``cpus`` and returns the FQDN-weeks swept: the monitored count after
    each week, which is the list that week's sweep sampled (collector
    refreshes run before the sweep, and nothing after it grows the list).
    ``probe``, if given, is sampled after every week.
    """
    collector = engine.payload.collector
    fqdn_weeks = 0
    perf = time.perf_counter
    while not engine.clock.finished():
        cpu0 = cpu_now()
        started = perf()
        engine.step()
        walls.append(perf() - started)
        cpus.append(cpu_now() - cpu0)
        fqdn_weeks += collector.monitored_count()
        if probe is not None:
            probe.sample()
    # Runs the stages' finish hooks, as run_scenario does.
    engine.run()
    result = engine.payload
    result.weeks_run = engine.week_index
    result.metrics = engine.metrics
    result.dead_letters = engine.dead_letters
    return fqdn_weeks


def analyse(result, registry=None):
    """What ``repro report`` adds: every analysis plus the rendered text."""
    from repro.analysis import run_analyses
    from repro.analysis.tasks import default_registry, render_sections

    run = run_analyses(result, registry if registry is not None else default_registry())
    render_sections(run, result)
    return run


def output_digests(result, run) -> dict:
    """SHA-256 of the ``--export`` dataset and the ``--report-json`` text."""
    from repro.analysis import report_json
    from repro.core.export import dataset_to_json

    return {
        "dataset_sha256": sha256(dataset_to_json(result.dataset, indent=2)),
        "report_sha256": sha256(report_json(run, result)),
    }


def dead_lettered(engine) -> int:
    """FQDN-weeks the sweep dead-lettered (failed or quarantined)."""
    return sum(
        1 for record in engine.dead_letters
        if record.stage == "monitor-sweep" and not record.item.startswith("<")
    )


def failed_ticks(engine) -> int:
    """Stage ticks that failed or were skipped for a failed upstream."""
    return sum(1 for record in engine.dead_letters if record.item.startswith("<"))


def operations(engine, run):
    """``(attempted, failed)``: weekly steps plus analysis tasks."""
    attempted = engine.week_index + len(run.outcomes)
    failed = failed_ticks(engine) + sum(1 for o in run.outcomes if not o.ok)
    return attempted, failed


def output_checks(workload: str, seed: int, engine, run, digests: dict) -> dict:
    """Correctness checks shared by the traced and untraced runs."""
    precision, recall = scores(run)
    checks = {
        "weeks": engine.week_index == WEEKS,
        "stage_ticks": failed_ticks(engine) == 0,
        "analyses": all(outcome.ok for outcome in run.outcomes),
        "precision": precision >= MIN_PRECISION,
        "recall": recall >= MIN_RECALL,
        "detected": len(engine.payload.dataset) > 0,
    }
    checks.update(check_digests(workload, seed, digests))
    return checks


def check_digests(workload: str, seed: int, digests: dict) -> dict:
    """Compare against committed goldens and earlier runs, then record.

    Every run of one workload and seed must export the same dataset and
    analysis report, whatever its trace mode or hash seed.
    """
    key = f"{workload}/{seed}"
    checks = {}
    try:
        with open(GOLDEN_FILE) as handle:
            golden = json.load(handle).get(key)
    except FileNotFoundError:
        golden = None
    if golden is not None:
        checks["golden_digests"] = golden == digests
    path = os.path.join(STATE_DIR, f"{workload}-{seed}.json")
    try:
        with open(path) as handle:
            checks["repeat_digests"] = json.load(handle) == digests
    except FileNotFoundError:
        os.makedirs(STATE_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(digests, handle, sort_keys=True)
        os.replace(tmp, path)
    return checks


def scores(run):
    """``(precision, recall)`` of the ``scoring`` task, zeros if it failed."""
    score = run.payload("scoring") if run.outcome("scoring").ok else None
    return (score.precision, score.recall) if score is not None else (0.0, 0.0)


def measure(workload: str, seed: int):
    """One untraced run: end-to-end metrics, context and checks."""
    probe = SpeedProbe()
    config, builds, sizes = choose_config(workload, seed, probe)
    engine, elapsed = time_build(config)
    builds.append(elapsed)
    probe.sample()
    result = engine.payload

    walls: list = []
    cpus: list = []
    first_sample = len(probe.samples)
    fqdn_weeks = step_weeks(engine, walls, cpus, probe)
    factors = probe.week_factors(first_sample, len(walls))
    week_s = [wall * f for wall, f in zip(walls, factors)]

    run = analyse(result)
    peak_mb = peak_rss_kb() / 1024.0

    digests = output_digests(result, run)
    checks = output_checks(workload, seed, engine, run, digests)
    precision, recall = scores(run)
    dead = dead_lettered(engine)
    attempted, failed = operations(engine, run)

    speed = probe.factor()
    deciles = statistics.quantiles(week_s, n=10)
    metrics = {
        "setup_s": (statistics.median(builds) * speed, "s"),
        "run_s": (sum(week_s), "s"),
        "run_cpu_s": (sum(cpu * f for cpu, f in zip(cpus, factors)), "s"),
        "week_p50_ms": (statistics.median(week_s) * 1e3, "ms"),
        "week_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "delivered_share": (1.0 - dead / fqdn_weeks, "ratio"),
        "precision": (precision, "ratio"),
        "recall": (recall, "ratio"),
    }
    context = {
        "scenario_seed": config.seed,
        "candidate_monitored": sizes,
        "speed_factor": speed,
        "probe_samples": len(probe.samples),
        "raw_run_s": sum(walls),
        "raw_run_cpu_s": sum(cpus),
        "raw_setup_s": builds,
        "week_samples": len(walls),
        "week_samples_beyond_p90": sum(1 for t in week_s if t > deciles[8]),
        "fqdn_weeks": fqdn_weeks,
        "dead_lettered": dead,
        "failed_share": dead / fqdn_weeks,
        **digests,
    }
    return metrics, context, checks, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30,
                        help="the run length WEEKS was sized for (recorded only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.trace:
        from layers import measure_layers

        metrics, context, checks, attempted, failed = measure_layers(
            args.workload, args.seed
        )
    else:
        metrics, context, checks, attempted, failed = measure(args.workload, args.seed)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "weeks": WEEKS,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "checks": checks,
        **context,
    }
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
