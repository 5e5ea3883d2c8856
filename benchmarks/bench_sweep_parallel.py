"""Sweep throughput: the serial oracle against the default sweep.

One deterministic world is run once per sweep variant — the serial
oracle from ``tests/oracles`` (the baseline) and the default in-process
:class:`ProcessExecutor` — and the monitor-sweep stage's
:class:`PipelineMetrics` row gives each variant's sweep wall time and
FQDN throughput.  The speedup of the default over the oracle is the
journal's clean skips, the fused sampler and the extraction cache
together.  Both
variants must export a byte-identical dataset; the bench asserts it, so
the throughput table doubles as an end-to-end determinism check.  It
also asserts that the CPU time each executor reports for its sweeps is
the CPU time the sweeps actually took, measured around each call.

Runs two ways:

* under pytest (``pytest benchmarks/bench_sweep_parallel.py``): the
  laptop-fast small scenario, emitting ``benchmarks/results/``;
* standalone (``python benchmarks/bench_sweep_parallel.py``): the
  paper-scale default scenario (the acceptance run — ≥ 2× sweep
  throughput over the oracle), or ``--quick`` for the small one
  (≥ 1×).

A second table isolates the revision journal's clean skips on the
low-churn world: the default sweep against the same sweep with the
monitor's journal unwired, so no touch ledger is used and every name
is sampled.  The standalone acceptance gate is ≥ 2× sweep throughput
with a byte-identical export.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Dict, List, Optional

REPO = pathlib.Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    # The serial oracle lives in the test suite.
    sys.path.insert(0, str(REPO))

from repro.core.export import dataset_to_json  # noqa: E402
from repro.core.reporting import render_table  # noqa: E402
from repro.core.scenario import ScenarioConfig, build_scenario  # noqa: E402
from repro.core.sweep import ProcessExecutor  # noqa: E402
from tests.oracles.serial_sweep import use_serial_sweep  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _config(scale: str, weeks: Optional[int],
            low_churn: bool = False) -> ScenarioConfig:
    if scale == "tiny":
        config = ScenarioConfig.tiny()
    elif scale == "small":
        config = ScenarioConfig.small()
    else:
        config = ScenarioConfig()
    if weeks is not None:
        config.weeks = weeks
    if low_churn:
        # The churn-proportional acceptance scenario: a quiet world
        # where most weeks most names are provably unchanged.
        config.lifecycle.weekly_release_rate = 0.002
    return config


class _CpuMeter:
    """Wraps an executor's ``sweep`` to total reported vs measured CPU."""

    def __init__(self, executor):
        self.reported = 0.0
        self.measured = 0.0
        inner = executor.sweep

        def sweep(monitor, fqdns, at):
            cpu0 = time.process_time()
            report = inner(monitor, fqdns, at)
            self.measured += time.process_time() - cpu0
            self.reported += report.cpu_seconds
            return report

        executor.sweep = sweep


def run_variant(scale: str, weeks: Optional[int], no_skip: bool = False,
                low_churn: bool = False, oracle: bool = False) -> Dict:
    """One full scenario run; sweep cost read off the stage metrics.

    ``oracle`` swaps the sweep stage's executor for the serial oracle;
    ``no_skip`` unwires the monitor's journal, so the default sweep
    samples every name.
    """
    engine = build_scenario(_config(scale, weeks, low_churn=low_churn))
    if oracle:
        use_serial_sweep(engine)
    if no_skip:
        # Without a journal the sweep passes no touch ledger: every
        # name is sampled and no proof is minted.
        engine.payload.monitor.journal = None
    executor = engine.payload.executor
    meter = _CpuMeter(executor)
    engine.run()
    result = engine.payload
    sweep = engine.metrics.stage("monitor-sweep")
    cache_hits = cache_misses = 0
    if isinstance(executor, ProcessExecutor):
        cache_hits = executor.extraction_cache.hits
        cache_misses = executor.extraction_cache.misses
    report = executor.last_report
    return {
        # One in-process worker either way; the key ``repro perf``
        # matches bench rows on.
        "workers": 1,
        "mode": "oracle" if oracle else "inline",
        "clean_skips": not (oracle or no_skip),
        "wall_s": sweep.wall_time,
        "items": sweep.items_processed,
        "throughput": sweep.items_per_second,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "last_sweep_wall_s": report.wall_seconds if report is not None else 0.0,
        "last_sweep_cpu_s": report.cpu_seconds if report is not None else 0.0,
        "reported_cpu_s": meter.reported,
        "measured_cpu_s": meter.measured,
        "digest": hashlib.sha256(
            dataset_to_json(result.dataset, indent=2).encode("utf-8")
        ).hexdigest(),
        "weeks": engine.week_index,
    }


def _assert_same_digest(runs: List[Dict], what: str) -> None:
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"{what} export digests diverged: {digests}"


def measure(scale: str, weeks: Optional[int] = None) -> List[Dict]:
    runs = [run_variant(scale, weeks, oracle=True), run_variant(scale, weeks)]
    _assert_same_digest(runs, "oracle vs default")
    return runs


def _run_isolated(scale: str, weeks: Optional[int], flags: List[str]) -> Dict:
    """One variant in a fresh interpreter.

    Back-to-back variants in one process are not measured under equal
    conditions: the later runs inherit a grown heap and GC pressure from
    the earlier ones and read 10-20% slower for identical work.  A
    subprocess per variant gives every variant the same cold start.
    """
    script = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(script.parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    cmd = [sys.executable, str(script), "--variant", "--scale", scale] + flags
    if weeks is not None:
        cmd += ["--weeks", str(weeks)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"bench variant {flags} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_isolated(scale: str, weeks: Optional[int] = None) -> List[Dict]:
    """Like :func:`measure`, but each variant runs in a fresh interpreter."""
    runs = [_run_isolated(scale, weeks, ["--oracle"]),
            _run_isolated(scale, weeks, [])]
    _assert_same_digest(runs, "oracle vs default")
    return runs


def check_reported_cpu(runs: List[Dict]) -> None:
    """Each executor reports the CPU its sweeps took, not their wall time.

    The measured total also covers the call and report construction
    around the executor's own timer, so it may exceed the reported one
    by a little, never by much and never fall below it.
    """
    for run in runs:
        assert run["last_sweep_wall_s"] > 0.0 and run["last_sweep_cpu_s"] > 0.0
        reported, measured = run["reported_cpu_s"], run["measured_cpu_s"]
        slack = measured - reported
        assert -1e-6 <= slack <= 0.005 + 0.05 * measured, (
            f"{run['mode']}: reported sweep CPU {reported:.4f}s vs "
            f"measured {measured:.4f}s"
        )


def _label(run: Dict) -> str:
    return "serial oracle" if run["mode"] == "oracle" else "default (in-process)"


def render(runs: List[Dict], scale: str) -> str:
    """``runs``: the oracle row first, then the default sweep."""
    oracle = runs[0]["throughput"]
    rows = [
        (
            _label(run),
            run["items"],
            f"{run['wall_s']:.2f}",
            f"{run['throughput']:,.0f}",
            f"{run['throughput'] / oracle:.2f}x" if oracle else "-",
            f"{run['last_sweep_cpu_s']:.3f}/{run['last_sweep_wall_s']:.3f}",
            run["cache_hits"],
            run["cache_misses"],
        )
        for run in runs
    ]
    return render_table(
        ["sweep", "fqdns swept", "sweep wall s", "fqdn/s", "vs oracle",
         "last wk cpu/wall s", "cache hits", "cache misses"],
        rows,
        title=(
            f"Sweep throughput, serial oracle vs default sweep "
            f"({scale} scenario, {runs[0]['weeks']} weeks, "
            f"{os.cpu_count()} CPUs, digests byte-identical)"
        ),
    )


def emit_results(runs: List[Dict], scale: str, out=sys.stdout) -> str:
    table = render(runs, scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep_parallel.txt").write_text(table + "\n", encoding="utf-8")
    oracle = runs[0]["throughput"]
    trajectory = {
        "scale": scale,
        "weeks": runs[0]["weeks"],
        "cpus": os.cpu_count(),
        "runs": [
            {key: run[key] for key in
             ("workers", "mode", "items", "wall_s", "throughput")}
            for run in runs
        ],
        # The default sweep over the serial oracle: the floor's ratio.
        "speedup_over_oracle": runs[1]["throughput"] / oracle if oracle else 0.0,
    }
    (RESULTS_DIR / "sweep_parallel.json").write_text(
        json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n=== sweep_parallel ({scale}) ===\n{table}\n", file=out)
    return table


# -- clean skips (churn-proportional) pair --------------------------------


def measure_incremental(scale: str, weeks: Optional[int] = None) -> List[Dict]:
    """No-skip vs default sweep pair on the low-churn scenario.

    Both runs share the quiet world (0.2%/week release rate) and the
    default sweep; only the first one runs without the journal, so the
    comparison isolates the journal's clean-skip savings.  Both must
    export the byte-identical dataset (only the cost moves).
    """
    pair = [
        run_variant(scale, weeks, no_skip=True, low_churn=True),
        run_variant(scale, weeks, low_churn=True),
    ]
    _assert_same_digest(pair, "default vs no-skip")
    return pair


def measure_incremental_isolated(scale: str,
                                 weeks: Optional[int] = None) -> List[Dict]:
    """The same pair, each run in a fresh interpreter (fair timing)."""
    pair = [_run_isolated(scale, weeks, ["--low-churn", "--no-skip"]),
            _run_isolated(scale, weeks, ["--low-churn"])]
    _assert_same_digest(pair, "default vs no-skip")
    return pair


def render_incremental(pair: List[Dict], scale: str) -> str:
    baseline = pair[0]["throughput"]
    rows = [
        (
            "default" if run["clean_skips"] else "no journal (no skips)",
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
            f"Clean skips, sweep without journal vs default sweep "
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
                     ("clean_skips", "items", "wall_s", "throughput")}
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
    speedup = runs[1]["throughput"] / runs[0]["throughput"]
    # The default sweep must never run slower than the serial oracle;
    # the >= 2x acceptance gate applies to the default-scale standalone
    # run, where steady-state weeks dominate.
    assert speedup >= 1.0, f"default sweep slower than the oracle: {speedup:.2f}x"
    check_reported_cpu(runs)


def test_sweep_incremental_throughput(emit):
    """No-skip vs default parity + throughput on the low-churn world."""
    pair = measure_incremental("small")
    emit_incremental(pair, "small")
    emit("sweep_incremental", render_incremental(pair, "small"))
    speedup = pair[1]["throughput"] / pair[0]["throughput"]
    # In-process conservative floor; the >= 2x acceptance gate applies
    # to the isolated standalone run.
    assert speedup >= 1.5, f"clean skips only {speedup:.2f}x no-skip"


# -- standalone entry point ------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the laptop-fast small scenario instead "
                             "of the paper-scale default")
    parser.add_argument("--weeks", type=int, default=None,
                        help="override the scenario's week count")
    parser.add_argument("--variant", action="store_true",
                        help="internal: run one variant and print its "
                             "result row as JSON")
    parser.add_argument("--oracle", action="store_true",
                        help="internal: run the --variant with the serial "
                             "oracle sweep")
    parser.add_argument("--scale", default=None,
                        help="internal: scenario scale for --variant")
    parser.add_argument("--no-skip", action="store_true",
                        help="internal: run the --variant without the "
                             "monitor's journal (no clean skips)")
    parser.add_argument("--low-churn", action="store_true",
                        help="internal: run the --variant on the quiet "
                             "(0.2%%/week release) world")
    args = parser.parse_args(argv)
    if args.variant:
        run = run_variant(args.scale or "full", args.weeks,
                          no_skip=args.no_skip,
                          low_churn=args.low_churn, oracle=args.oracle)
        print(json.dumps(run))
        return 0
    scale = "small" if args.quick else "full"
    runs = measure_isolated(scale, weeks=args.weeks)
    emit_results(runs, scale)
    check_reported_cpu(runs)
    speedup = runs[1]["throughput"] / runs[0]["throughput"]
    floor = 1.0 if args.quick else 2.0
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x below the {floor:.1f}x floor",
              file=sys.stderr)
        return 1
    print(f"default sweep over the serial oracle: {speedup:.2f}x")
    pair = measure_incremental_isolated(scale, weeks=args.weeks)
    emit_incremental(pair, scale)
    inc_speedup = pair[1]["throughput"] / pair[0]["throughput"]
    inc_floor = 1.5 if args.quick else 2.0
    if inc_speedup < inc_floor:
        print(f"FAIL: clean skips {inc_speedup:.2f}x below the "
              f"{inc_floor:.1f}x floor", file=sys.stderr)
        return 1
    print(f"clean-skip speedup over no-skip (low churn): {inc_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
