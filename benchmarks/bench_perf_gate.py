"""The ``repro perf`` regression gate, exercised end-to-end.

Runs the seeded tiny scenario twice with ``--metrics-json`` and drives
the gate through its whole contract in one pass:

* the two same-seed exports must pass ``repro perf --check`` (their
  deterministic views — week-by-week counter deltas plus final
  counters — are equal), and must also pass the timing comparison
  against the committed baseline's *deterministic* view, which is how
  CI catches a seed-breaking change without coupling to machine speed;
* a copy of the export with a synthetic +50% slowdown injected into
  every stage's resource rows must FAIL the timing gate (exit 1);
* a copy with one counter perturbed must FAIL ``--check`` (exit 1);
* garbage must be rejected as malformed (exit 2).

The committed baseline ``benchmarks/results/perf_baseline_tiny.json``
is the deterministic view of the tiny scenario at seed 42 — regenerate
it with ``python benchmarks/bench_perf_gate.py --update-baseline``
whenever an intentional behaviour change moves the counters, exactly
like the golden digests.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

from repro.cli import main as repro_main
from repro.core.reporting import render_table
from repro.obs.perf import EXIT_MALFORMED, EXIT_OK, EXIT_REGRESSION
from repro.obs.timeseries import deterministic_view

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "perf_baseline_tiny.json"

#: The pinned gate scenario: tiny, fault-free, deterministic.  The
#: sweep runs in-process, so its counters, and the committed baseline,
#: check identically on any machine.
RUN_ARGS = ["run", "--scale", "tiny", "--seed", "42", "--weeks", "12"]


class _Sink:
    def write(self, text: str) -> None:
        pass


def _export_metrics(path: pathlib.Path) -> Dict:
    code = repro_main(RUN_ARGS + ["--metrics-json", str(path)], out=_Sink())
    assert code == 0, f"scenario run failed with exit {code}"
    return json.loads(path.read_text())


def _perf(*argv: str) -> int:
    return repro_main(["perf", *argv], out=_Sink())


def run_gate(tmp_dir: pathlib.Path) -> List[Dict]:
    """Drive every gate verdict once; returns render-ready check rows."""
    a_path = tmp_dir / "run_a.json"
    b_path = tmp_dir / "run_b.json"
    export_a = _export_metrics(a_path)
    _export_metrics(b_path)

    rows: List[Dict] = []

    def check(name: str, got: int, want: int) -> None:
        rows.append({"check": name, "exit": got, "expected": want,
                     "verdict": "ok" if got == want else "FAIL"})
        assert got == want, f"{name}: exit {got}, expected {want}"

    check("same-seed rerun, --check", _perf(str(a_path), str(b_path), "--check"),
          EXIT_OK)
    # The timing row exists to exercise the comparison path, not to
    # gate real noise: back-to-back runs on a loaded box can jitter a
    # short stage past the default 1.20x/25ms, so give it headroom.
    check(
        "same-seed rerun, timing",
        _perf(str(a_path), str(b_path), "--threshold", "3.0",
              "--min-ms", "250"),
        EXIT_OK,
    )

    if BASELINE_PATH.exists():
        check(
            "committed baseline, --check",
            _perf(str(BASELINE_PATH), str(a_path), "--check"),
            EXIT_OK,
        )

    slow = json.loads(json.dumps(export_a))
    for row in slow["resources"]["stages"].values():
        row["wall_s"] *= 1.5
        row["cpu_s"] *= 1.5
    slow_path = tmp_dir / "slow.json"
    slow_path.write_text(json.dumps(slow))
    check(
        "+50% stage slowdown, timing",
        _perf(str(a_path), str(slow_path), "--min-ms", "1"),
        EXIT_REGRESSION,
    )

    drifted = json.loads(json.dumps(export_a))
    key = sorted(drifted["counters"])[0]
    drifted["counters"][key] += 1
    drift_path = tmp_dir / "drift.json"
    drift_path.write_text(json.dumps(drifted))
    check("counter drift, --check", _perf(str(a_path), str(drift_path), "--check"),
          EXIT_REGRESSION)

    garbage = tmp_dir / "garbage.txt"
    garbage.write_text("not a telemetry export\n")
    check("malformed input", _perf(str(a_path), str(garbage)), EXIT_MALFORMED)
    return rows


def render(rows: List[Dict]) -> str:
    return render_table(
        ["gate check", "exit", "expected", "verdict"],
        [(r["check"], r["exit"], r["expected"], r["verdict"]) for r in rows],
        title="repro perf gate verdicts (tiny scenario, seed 42)",
    )


def write_baseline(export: Dict) -> None:
    """Commit the deterministic view as the cross-machine baseline.

    Only the seed-determined slice goes in: resource timings would pin
    the baseline to the machine that generated it.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(
        json.dumps(deterministic_view(export), indent=2) + "\n",
        encoding="utf-8",
    )


# -- pytest entry point ----------------------------------------------------


def test_perf_gate_end_to_end(emit, tmp_path):
    rows = run_gate(tmp_path)
    table = render(rows)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_gate.txt").write_text(table + "\n", encoding="utf-8")
    emit("perf_gate", table)


# -- standalone entry point ------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the committed deterministic "
                             "baseline from a fresh seeded run")
    args = parser.parse_args(argv)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = pathlib.Path(tmp)
        if args.update_baseline:
            export = _export_metrics(tmp_dir / "baseline_run.json")
            write_baseline(export)
            print(f"baseline written to {BASELINE_PATH}")
            return 0
        rows = run_gate(tmp_dir)
    table = render(rows)
    (RESULTS_DIR / "perf_gate.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
