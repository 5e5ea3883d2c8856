"""Detector fast-path benchmark: indexed vs linear matching and rescans.

The paper's detection cost (Figure 25) is dominated by two O(world)
scans: every weekly changed state against the full signature store
(``_match_existing``) and every fresh signature against the entire
snapshot history (``_rescan_history``).  This benchmark builds a
synthetic paper-shaped workload — a validated signature store of
conjunctive signatures, a weekly stream of mostly benign changed
states, and a deep snapshot store — and times both scans through the
production detector (inverted indexes) and through the linear oracle
(``tests/oracles/linear_detector.py``).

The two paths must agree bit-for-bit: the bench asserts identical
match results, identical flagged sets and identical export digests, so
the throughput table doubles as a parity check.

Runs two ways:

* under pytest (``pytest benchmarks/bench_detector.py``): a reduced
  workload with a conservative ≥ 1.5× floor, emitting
  ``benchmarks/results/detector_index.txt``;
* standalone (``python benchmarks/bench_detector.py``): the
  paper-scale acceptance run — ≥ 5× combined match+rescan throughput —
  or ``--quick`` for the reduced workload.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import random
import sys
import time
from datetime import datetime, timedelta
from typing import Dict, List, Sequence

REPO = pathlib.Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    # The linear oracle lives in the test suite.
    sys.path.insert(0, str(REPO))

from repro.core.detection import AbuseDetector  # noqa: E402
from repro.core.export import dataset_to_json  # noqa: E402
from repro.core.monitoring import SnapshotFeatures, SnapshotStore  # noqa: E402
from repro.core.reporting import render_table  # noqa: E402
from repro.core.signatures import Signature  # noqa: E402
from tests.oracles.linear_detector import LinearAbuseDetector  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

T0 = datetime(2020, 3, 2)
WEEK = timedelta(weeks=1)

#: Paper-scale workload (standalone acceptance): the signature store
#: and weekly change volume are in the ballpark the paper sustains
#: after three years of monitoring.
PAPER_SCALE = dict(n_signatures=1500, n_pages=3000, n_fqdns=2500,
                   states_per_fqdn=3)
#: Reduced workload for per-PR CI.
QUICK_SCALE = dict(n_signatures=300, n_pages=600, n_fqdns=500,
                   states_per_fqdn=3)

#: Combined speedup gates (linear wall / indexed wall).
PAPER_GATE = 5.0
QUICK_GATE = 1.5


def _token_pool(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{i:05d}" for i in range(count)]


def build_signatures(rng: random.Random, count: int) -> List[Signature]:
    """A validated-store-shaped mix of conjunctive signatures."""
    abuse_pool = _token_pool("abuse", 20_000)
    host_pool = [f"cdn-{i:04d}.bad.example" for i in range(2_000)]
    signatures: List[Signature] = []
    for serial in range(count):
        roll = rng.random()
        keywords = frozenset(rng.sample(abuse_pool, 5))
        if roll < 0.70:
            sig = Signature(f"sig-{serial:05d}", created_at=T0, keywords=keywords)
        elif roll < 0.85:
            sig = Signature(f"sig-{serial:05d}", created_at=T0, keywords=keywords,
                            infrastructure=frozenset(rng.sample(host_pool, 2)))
        elif roll < 0.95:
            sig = Signature(f"sig-{serial:05d}", created_at=T0, keywords=keywords,
                            template_markers=frozenset({"comming soon"}))
        else:
            sig = Signature(f"sig-{serial:05d}", created_at=T0,
                            sitemap_min_count=300 + 10 * (serial % 50))
        signatures.append(sig)
    return signatures


def _page(fqdn: str, at: datetime, keywords, sitemap_count: int = -1,
          urls: Sequence[str] = (), title: str = "") -> SnapshotFeatures:
    return SnapshotFeatures(
        fqdn=fqdn, at=at, dns_status="NOERROR",
        cname_chain=("x.azurewebsites.net",), addresses=("40.0.0.1",),
        fetch_status="ok", http_status=200,
        html_hash=f"h-{fqdn}-{at:%Y%m%d}", html_size=2048,
        title=title, keywords=frozenset(keywords),
        external_urls=tuple(urls),
        sitemap_count=sitemap_count, sitemap_size=max(-1, sitemap_count * 80),
    )


def build_pages(rng: random.Random, signatures: Sequence[Signature],
                count: int) -> List[SnapshotFeatures]:
    """One week of changed states: mostly benign, a few true hits."""
    benign_pool = _token_pool("benign", 20_000)
    pages: List[SnapshotFeatures] = []
    for i in range(count):
        fqdn = f"page-{i:06d}.victim.example.com"
        if rng.random() < 0.03:
            sig = rng.choice(signatures)
            keywords = set(sig.keywords) or set(rng.sample(benign_pool, 6))
            pages.append(_page(
                fqdn, T0, keywords,
                sitemap_count=max(900, sig.sitemap_min_count),
                urls=tuple(f"https://{h}/p.js" for h in sig.infrastructure),
                title="Comming soon" if sig.template_markers else "",
            ))
        else:
            pages.append(_page(fqdn, T0, set(rng.sample(benign_pool, 6))))
    return pages


def build_store(rng: random.Random, n_fqdns: int, states_per_fqdn: int):
    """A snapshot history for the retrospective-rescan half.

    Returns the store plus the keyword sets of the abusive states it
    holds, so rescan signatures can be derived from real history (as
    extraction would) and genuinely back-date hijacks.
    """
    benign_pool = _token_pool("benign", 20_000)
    abuse_pool = _token_pool("abuse", 20_000)
    store = SnapshotStore()
    abusive_states: List[frozenset] = []
    for i in range(n_fqdns):
        fqdn = f"hist-{i:06d}.victim.example.com"
        for week in range(states_per_fqdn):
            if rng.random() < 0.02:
                keywords = frozenset(rng.sample(abuse_pool, 5))
                abusive_states.append(keywords)
            else:
                keywords = frozenset(rng.sample(benign_pool, 6))
            store.record(_page(fqdn, T0 + week * WEEK, keywords))
    return store, abusive_states


def run_variant(detector_class, signatures: Sequence[Signature],
                pages: Sequence[SnapshotFeatures], store: SnapshotStore,
                rescan_signatures: Sequence[Signature]) -> Dict:
    """Time the two hot scans through one detector."""
    detector = detector_class(store)
    detector.signatures.extend(signatures)

    started = time.perf_counter()
    match_results = [detector._match_existing(page) for page in pages]
    match_wall = time.perf_counter() - started

    started = time.perf_counter()
    flagged: List[str] = []
    for signature in rescan_signatures:
        detector.signatures.append(signature)
        flagged.extend(detector._rescan_history(signature))
    rescan_wall = time.perf_counter() - started

    matched_pages = sum(1 for m in match_results if m)
    return {
        "path": "linear" if detector_class is LinearAbuseDetector else "indexed",
        "match_wall_s": match_wall,
        "rescan_wall_s": rescan_wall,
        "wall_s": match_wall + rescan_wall,
        "matched_pages": matched_pages,
        "match_results": [
            [(sig.signature_id, sorted(components)) for sig, components in m]
            for m in match_results
        ],
        "flagged": flagged,
        "digest": hashlib.sha256(
            dataset_to_json(detector.dataset, indent=2).encode("utf-8")
        ).hexdigest(),
    }


def measure(n_signatures: int, n_pages: int, n_fqdns: int,
            states_per_fqdn: int, seed: int = 7) -> List[Dict]:
    rng = random.Random(seed)
    signatures = build_signatures(rng, n_signatures)
    pages = build_pages(rng, signatures, n_pages)
    store, abusive_states = build_store(rng, n_fqdns, states_per_fqdn)
    # The retrospective half replays freshly extracted signatures —
    # derived from real stored abuse states (as extraction would be),
    # so they genuinely hit history and back-date hijacks.
    rescan_rng = random.Random(seed + 1)
    rescan_signatures = [
        Signature(f"re-{serial:03d}", created_at=T0 + 4 * WEEK,
                  keywords=rescan_rng.choice(abusive_states))
        for serial in range(12)
    ]
    runs = [
        run_variant(detector_class, signatures, pages, store, rescan_signatures)
        for detector_class in (LinearAbuseDetector, AbuseDetector)
    ]
    linear, indexed = runs
    # Parity is the contract: identical matches (same signatures, same
    # order), identical flagged sets, identical export digests.
    assert indexed["match_results"] == linear["match_results"], \
        "indexed match results diverged from the linear scan"
    assert indexed["flagged"] == linear["flagged"], \
        "indexed rescan flagged a different set"
    assert indexed["digest"] == linear["digest"], \
        "indexed export digest diverged from the linear path"
    return runs


def render(runs: List[Dict], scale_label: str) -> str:
    linear, indexed = runs
    speedup = linear["wall_s"] / max(indexed["wall_s"], 1e-9)
    rows = [
        (run["path"],
         f"{run['match_wall_s']:.3f}",
         f"{run['rescan_wall_s']:.3f}",
         f"{run['wall_s']:.3f}",
         run["matched_pages"],
         run["digest"][:12])
        for run in runs
    ]
    rows.append(("speedup (linear/indexed)", "-", "-", f"{speedup:.2f}x", "-", "-"))
    return render_table(
        ["path", "match s", "rescan s", "total s", "hits", "digest"],
        rows,
        title=f"Detector hot-scan cost, {scale_label} "
              "(match_existing + rescan_history; digests must agree)",
    )


def _speedup(runs: List[Dict]) -> float:
    linear, indexed = runs
    return linear["wall_s"] / max(indexed["wall_s"], 1e-9)


def test_indexed_detector_speedup(emit):
    runs = measure(**QUICK_SCALE)
    emit("detector_index", render(runs, "quick scale"))
    speedup = _speedup(runs)
    assert speedup >= QUICK_GATE, (
        f"indexed detector only {speedup:.2f}x over linear "
        f"(floor {QUICK_GATE}x at quick scale)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload (CI smoke)")
    args = parser.parse_args(argv)
    scale = QUICK_SCALE if args.quick else PAPER_SCALE
    gate = QUICK_GATE if args.quick else PAPER_GATE
    label = "quick scale" if args.quick else "paper scale"
    runs = measure(**scale)
    table = render(runs, label)
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "detector_index.txt").write_text(table + "\n",
                                                    encoding="utf-8")
    speedup = _speedup(runs)
    if speedup < gate:
        print(f"FAIL: {speedup:.2f}x < {gate}x gate", file=sys.stderr)
        return 1
    print(f"OK: {speedup:.2f}x >= {gate}x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
