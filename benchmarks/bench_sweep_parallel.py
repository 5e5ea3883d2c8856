"""Sweep throughput: the serial oracle, the inline default, N workers.

One deterministic world is run once per sweep variant — the serial
oracle from ``tests/oracles`` (the baseline), the default one-worker
:class:`ProcessExecutor` (a single inline shard), and the executor at 2
and 4 workers in whatever mode it picks on this machine (forked on a
multi-CPU box) — and the monitor-sweep stage's :class:`PipelineMetrics`
row gives each variant's sweep wall time and FQDN throughput.  Two
speedup columns split the gain by cause: the fused/cache share is the
inline default over the oracle (fused sampler, resolver memo and
extraction cache, no parallelism), the worker share is N workers over
one inline worker.  Every variant must export a byte-identical dataset;
the bench asserts it, so the throughput table doubles as an end-to-end
determinism check.

Runs two ways:

* under pytest (``pytest benchmarks/bench_sweep_parallel.py``): the
  laptop-fast small scenario, emitting ``benchmarks/results/``;
* standalone (``python benchmarks/bench_sweep_parallel.py``): the
  paper-scale default scenario (the acceptance run — ≥ 2× sweep
  throughput at 4 workers), or ``--quick`` for the small one.

A second table measures the churn-proportional ``--incremental`` mode:
a full-vs-incremental pair on the low-churn world at one worker (a
single inline shard, isolating the revision journal's clean-skip
savings from fork overhead).  The standalone acceptance gate is ≥ 2×
sweep throughput with a byte-identical export.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

REPO = pathlib.Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    # The serial oracle lives in the test suite.
    sys.path.insert(0, str(REPO))

from repro.core.export import dataset_to_json  # noqa: E402
from repro.core.reporting import render_table  # noqa: E402
from repro.core.scenario import ScenarioConfig, build_scenario  # noqa: E402
from repro.parallel.executor import ProcessExecutor  # noqa: E402
from tests.oracles.serial_sweep import use_serial_sweep  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker counts measured after the serial-oracle baseline row.
WORKER_COUNTS = (1, 2, 4)


def _config(scale: str, workers: int, weeks: Optional[int],
            incremental: bool = False, low_churn: bool = False) -> ScenarioConfig:
    if scale == "tiny":
        config = ScenarioConfig.tiny()
    elif scale == "small":
        config = ScenarioConfig.small()
    else:
        config = ScenarioConfig()
    if weeks is not None:
        config.weeks = weeks
    config.workers = workers
    config.incremental = incremental
    if low_churn:
        # The churn-proportional acceptance scenario: a quiet world
        # where most weeks most names are provably unchanged.
        config.lifecycle.weekly_release_rate = 0.002
    return config


def run_variant(scale: str, workers: int, weeks: Optional[int],
                incremental: bool = False, low_churn: bool = False,
                oracle: bool = False) -> Dict:
    """One full scenario run; sweep cost read off the stage metrics.

    ``oracle`` swaps the sweep stage's executor for the serial oracle.
    """
    engine = build_scenario(
        _config(scale, workers, weeks, incremental=incremental,
                low_churn=low_churn)
    )
    if oracle:
        use_serial_sweep(engine)
    engine.run()
    result = engine.payload
    sweep = engine.metrics.stage("monitor-sweep")
    executor = result.executor
    cache_hits = cache_misses = 0
    mode = "oracle"
    if isinstance(executor, ProcessExecutor):
        cache_hits = executor.extraction_cache.hits
        cache_misses = executor.extraction_cache.misses
        mode = executor.last_mode or "inline"
    # Last week's report: wall is elapsed (max under merge), cpu is
    # the sum of the shards' own CPU time.
    report = executor.last_report
    return {
        "workers": workers,
        "mode": mode,
        "incremental": incremental,
        "wall_s": sweep.wall_time,
        "items": sweep.items_processed,
        "throughput": sweep.items_per_second,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "last_sweep_wall_s": report.wall_seconds if report is not None else 0.0,
        "last_sweep_cpu_s": report.cpu_seconds if report is not None else 0.0,
        "last_sweep_shard_cpus": list(report.shard_cpus) if report is not None else [],
        "digest": hashlib.sha256(
            dataset_to_json(result.dataset, indent=2).encode("utf-8")
        ).hexdigest(),
        "weeks": engine.week_index,
    }


def measure(scale: str, weeks: Optional[int] = None,
            worker_counts: Sequence[int] = WORKER_COUNTS) -> List[Dict]:
    runs = [run_variant(scale, 1, weeks, oracle=True)]
    runs += [run_variant(scale, workers, weeks) for workers in worker_counts]
    # Fault-free sharded runs merge deterministically: every variant
    # must export the byte-identical dataset.
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"export digests diverged across workers: {digests}"
    return runs


def measure_isolated(scale: str, weeks: Optional[int] = None,
                     worker_counts: Sequence[int] = WORKER_COUNTS) -> List[Dict]:
    """Like :func:`measure`, but each variant runs in a fresh interpreter.

    Back-to-back variants in one process are not measured under equal
    conditions: the later runs inherit a grown heap and GC pressure from
    the earlier ones and read 10-20% slower for identical work.  A
    subprocess per variant gives every worker count the same cold start,
    which is what a fair serial-vs-sharded comparison needs.
    """
    script = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(script.parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    runs: List[Dict] = []
    variants = [(1, True)] + [(workers, False) for workers in worker_counts]
    for workers, oracle in variants:
        cmd = [sys.executable, str(script),
               "--variant", str(workers), "--scale", scale]
        if oracle:
            cmd.append("--oracle")
        if weeks is not None:
            cmd += ["--weeks", str(weeks)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench variant workers={workers} oracle={oracle} "
                f"failed:\n{proc.stderr}"
            )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"export digests diverged across workers: {digests}"
    return runs


def _label(run: Dict) -> str:
    if run["mode"] == "oracle":
        return "serial oracle"
    if run["workers"] == 1:
        return "1 (inline, default)"
    return f"{run['workers']} ({run['mode']})"


def _ratio(numerator: float, denominator: float) -> str:
    return f"{numerator / denominator:.2f}x" if denominator else "-"


def render(runs: List[Dict], scale: str) -> str:
    """``runs``: the oracle row first, then one inline worker, then N."""
    oracle = runs[0]["throughput"]
    inline = runs[1]["throughput"]
    rows = [
        (
            _label(run),
            run["items"],
            f"{run['wall_s']:.2f}",
            f"{run['throughput']:,.0f}",
            _ratio(run["throughput"], oracle),
            _ratio(inline, oracle) if index == 1 else "-",
            _ratio(run["throughput"], inline) if index >= 1 else "-",
            f"{run.get('last_sweep_cpu_s', 0.0):.3f}/"
            f"{run.get('last_sweep_wall_s', 0.0):.3f}",
            run["cache_hits"],
            run["cache_misses"],
        )
        for index, run in enumerate(runs)
    ]
    return render_table(
        ["sweep", "fqdns swept", "sweep wall s", "fqdn/s", "vs oracle",
         "fused+cache share", "worker share", "last wk cpu/wall s",
         "cache hits", "cache misses"],
        rows,
        title=(
            f"Sweep throughput, serial oracle vs inline default vs N "
            f"workers ({scale} scenario, {runs[0]['weeks']} weeks, "
            f"{os.cpu_count()} CPUs, digests byte-identical)"
        ),
    )


def emit_results(runs: List[Dict], scale: str, out=sys.stdout) -> str:
    table = render(runs, scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep_parallel.txt").write_text(table + "\n", encoding="utf-8")
    oracle = runs[0]["throughput"]
    inline = runs[1]["throughput"]
    trajectory = {
        "scale": scale,
        "weeks": runs[0]["weeks"],
        "cpus": os.cpu_count(),
        "runs": [
            {key: run[key] for key in
             ("workers", "mode", "items", "wall_s", "throughput")}
            for run in runs
        ],
        # Max workers over the serial oracle: the standalone floor.
        "speedup_at_max_workers": (
            runs[-1]["throughput"] / oracle if oracle else 0.0
        ),
        "fused_cache_share": inline / oracle if oracle else 0.0,
        "worker_share_at_max_workers": (
            runs[-1]["throughput"] / inline if inline else 0.0
        ),
    }
    (RESULTS_DIR / "sweep_parallel.json").write_text(
        json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n=== sweep_parallel ({scale}) ===\n{table}\n", file=out)
    return table


# -- incremental (churn-proportional) variant ------------------------------


def measure_incremental(scale: str, weeks: Optional[int] = None) -> List[Dict]:
    """Full-vs-incremental sweep pair on the low-churn scenario.

    Both runs share the quiet world (0.2%/week release rate) at one
    worker — a single inline shard, so the comparison isolates the
    journal's clean-skip savings from fork overhead.  The incremental
    run must export the byte-identical dataset (only the cost moves).
    """
    pair = [
        run_variant(scale, 1, weeks, incremental=False, low_churn=True),
        run_variant(scale, 1, weeks, incremental=True, low_churn=True),
    ]
    digests = {run["digest"] for run in pair}
    assert len(digests) == 1, f"incremental export diverged from full: {digests}"
    return pair


def measure_incremental_isolated(scale: str,
                                 weeks: Optional[int] = None) -> List[Dict]:
    """The same pair, each run in a fresh interpreter (fair timing)."""
    script = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(script.parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    pair: List[Dict] = []
    for incremental in (False, True):
        cmd = [sys.executable, str(script),
               "--variant", "1", "--scale", scale, "--low-churn"]
        if incremental:
            cmd.append("--incremental")
        if weeks is not None:
            cmd += ["--weeks", str(weeks)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench variant incremental={incremental} failed:\n{proc.stderr}"
            )
        pair.append(json.loads(proc.stdout.splitlines()[-1]))
    digests = {run["digest"] for run in pair}
    assert len(digests) == 1, f"incremental export diverged from full: {digests}"
    return pair


def render_incremental(pair: List[Dict], scale: str) -> str:
    baseline = pair[0]["throughput"]
    rows = [
        (
            "incremental" if run["incremental"] else "full fused",
            run["items"],
            f"{run['wall_s']:.2f}",
            f"{run['throughput']:,.0f}",
            f"{run['throughput'] / baseline:.2f}x" if baseline else "-",
        )
        for run in pair
    ]
    return render_table(
        ["sweep mode", "fqdns swept", "sweep wall s", "fqdn/s", "speedup"],
        rows,
        title=(
            f"Churn-proportional sweep, full vs --incremental "
            f"({scale} scenario, low churn, {pair[0]['weeks']} weeks, "
            f"digests byte-identical)"
        ),
    )


def emit_incremental(pair: List[Dict], scale: str, out=sys.stdout) -> str:
    table = render_incremental(pair, scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep_incremental.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    baseline = pair[0]["throughput"]
    (RESULTS_DIR / "sweep_incremental.json").write_text(
        json.dumps(
            {
                "scale": scale,
                "weeks": pair[0]["weeks"],
                "runs": [
                    {key: run[key] for key in
                     ("incremental", "items", "wall_s", "throughput")}
                    for run in pair
                ],
                "incremental_speedup": (
                    pair[1]["throughput"] / baseline if baseline else 0.0
                ),
            },
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"\n=== sweep_incremental ({scale}) ===\n{table}\n", file=out)
    return table


# -- pytest entry point ----------------------------------------------------


def test_sweep_parallel_throughput(emit):
    """Small-scale parity + throughput record for the bench trajectory."""
    runs = measure("small")
    emit_results(runs, "small")
    emit("sweep_parallel", render(runs, "small"))
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    # The sharded executor must never run slower than the serial
    # baseline; the >= 2x acceptance gate applies to the default-scale
    # standalone run, where steady-state weeks dominate.
    assert speedup >= 1.0, f"4-worker sweep slower than serial: {speedup:.2f}x"
    # The wall/cpu split must be sane on every variant, and the
    # reported CPU is exactly the shards' own CPU summed — never their
    # wall times.
    for run in runs:
        assert run["last_sweep_wall_s"] > 0.0 and run["last_sweep_cpu_s"] > 0.0
        shard_cpu = sum(run["last_sweep_shard_cpus"])
        assert abs(run["last_sweep_cpu_s"] - shard_cpu) < 1e-9


def test_sweep_incremental_throughput(emit):
    """Full-vs-incremental parity + throughput on the low-churn world."""
    pair = measure_incremental("small")
    emit_incremental(pair, "small")
    emit("sweep_incremental", render_incremental(pair, "small"))
    speedup = pair[1]["throughput"] / pair[0]["throughput"]
    # In-process conservative floor; the >= 2x acceptance gate applies
    # to the isolated standalone run.
    assert speedup >= 1.5, f"incremental sweep only {speedup:.2f}x full"


# -- standalone entry point ------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the laptop-fast small scenario instead "
                             "of the paper-scale default")
    parser.add_argument("--weeks", type=int, default=None,
                        help="override the scenario's week count")
    parser.add_argument("--variant", type=int, default=None,
                        help="internal: run one worker-count variant and "
                             "print its result row as JSON")
    parser.add_argument("--oracle", action="store_true",
                        help="internal: run the --variant with the serial "
                             "oracle sweep")
    parser.add_argument("--scale", default=None,
                        help="internal: scenario scale for --variant")
    parser.add_argument("--incremental", action="store_true",
                        help="internal: run the --variant with "
                             "churn-proportional sweeps on")
    parser.add_argument("--low-churn", action="store_true",
                        help="internal: run the --variant on the quiet "
                             "(0.2%%/week release) world")
    args = parser.parse_args(argv)
    if args.variant is not None:
        run = run_variant(args.scale or "full", args.variant, args.weeks,
                          incremental=args.incremental,
                          low_churn=args.low_churn, oracle=args.oracle)
        print(json.dumps(run))
        return 0
    scale = "small" if args.quick else "full"
    runs = measure_isolated(scale, weeks=args.weeks)
    emit_results(runs, scale)
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    floor = 1.0 if args.quick else 2.0
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x below the {floor:.1f}x floor",
              file=sys.stderr)
        return 1
    print(f"speedup at {runs[-1]['workers']} workers: {speedup:.2f}x")
    pair = measure_incremental_isolated(scale, weeks=args.weeks)
    emit_incremental(pair, scale)
    inc_speedup = pair[1]["throughput"] / pair[0]["throughput"]
    inc_floor = 1.5 if args.quick else 2.0
    if inc_speedup < inc_floor:
        print(f"FAIL: incremental sweep {inc_speedup:.2f}x below the "
              f"{inc_floor:.1f}x floor", file=sys.stderr)
        return 1
    print(f"incremental sweep speedup (low churn): {inc_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
