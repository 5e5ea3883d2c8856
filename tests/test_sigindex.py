"""Tests for the signature/posting candidate indexes (the fast path).

The hard contract under test: the indexed detector path is a pure
candidate pruner — for any world, matching and retrospective rescans
through the indexes produce byte-identical output (same weekly flagged
sets, same signatures, same export digests) to the paper-faithful
linear scans of the oracle detector
(:class:`~tests.oracles.linear_detector.LinearAbuseDetector`).  The
parity tests drive randomized multi-week worlds and whole tiny
scenarios, with and without faults, through both detectors side by
side.
"""

import random
from datetime import datetime, timedelta

import pytest

from repro.core.changes import detect_changes
from repro.core.detection import AbuseDetector
from repro.core.export import dataset_to_json
from repro.core.monitoring import SnapshotFeatures, SnapshotStore
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.core.sigindex import (
    PostingIndex,
    SignatureIndex,
    signature_anchor,
    state_tokens,
)
from repro.core.signatures import Signature
from repro.faults.plan import FaultConfig
from repro.obs import OBS, MetricsRegistry
from tests.oracles.linear_detector import (
    LinearAbuseDetector,
    use_linear_detector,
)

T0 = datetime(2020, 3, 2)
WEEK = timedelta(weeks=1)

#: Topic-vocabulary tokens (gambling) so extraction's analyst gate fires.
ABUSE_TOKENS = (
    "slot", "judi", "gacor", "daftar", "situs", "terpercaya", "maxwin",
    "joker123", "pulsa", "bola", "slot88", "jackpot",
)
BENIGN_TOKENS = (
    "products", "careers", "support", "contact", "about", "pricing",
    "team", "blog", "press", "docs", "status", "partners",
)


def _page(fqdn, at, keywords, reachable=True, sitemap_count=-1, urls=(),
          title=""):
    return SnapshotFeatures(
        fqdn=fqdn, at=at,
        dns_status="NOERROR" if reachable else "NXDOMAIN",
        cname_chain=("x.azurewebsites.net",),
        addresses=("40.0.0.1",) if reachable else (),
        fetch_status="ok" if reachable else "dns-nxdomain",
        http_status=200 if reachable else 0,
        html_hash=f"h-{fqdn}-{sorted(keywords)}-{sitemap_count}" if reachable else "",
        html_size=100, keywords=frozenset(keywords),
        external_urls=tuple(urls), title=title,
        sitemap_count=sitemap_count, sitemap_size=max(-1, sitemap_count * 80),
    )


def _sig(serial, **kwargs):
    return Signature(signature_id=f"sig-{serial:04d}", created_at=T0, **kwargs)


# -- anchor selection ---------------------------------------------------------


def test_anchor_prefers_most_selective_group():
    assert signature_anchor(
        _sig(1, keywords=frozenset({"a", "b", "c"}),
             infrastructure=frozenset({"evil.example"}),
             template_markers=frozenset({"comming soon"}))
    ) == ("template", frozenset({"comming soon"}))
    assert signature_anchor(
        _sig(2, keywords=frozenset({"a", "b", "c"}),
             infrastructure=frozenset({"evil.example"}))
    ) == ("infrastructure", frozenset({"evil.example"}))
    assert signature_anchor(
        _sig(3, keywords=frozenset({"a", "b", "c"}))
    ) == ("keywords", frozenset({"a", "b", "c"}))


def test_anchor_falls_back_on_unusable_groups():
    # A zero hit floor means the keyword group can fire with no shared
    # token, so it cannot anchor the signature.
    kind, _ = signature_anchor(
        _sig(1, keywords=frozenset({"a", "b"}), min_keyword_hits=0,
             sitemap_min_count=300)
    )
    assert kind == "sitemap"
    assert signature_anchor(_sig(2, sitemap_min_count=300))[0] == "sitemap"
    assert signature_anchor(_sig(3))[0] == "scan"


# -- SignatureIndex -----------------------------------------------------------


def test_signature_index_candidates_are_exact_by_group():
    index = SignatureIndex()
    sigs = [
        _sig(1, keywords=frozenset({"slot", "judi", "gacor"})),
        _sig(2, infrastructure=frozenset({"cdn.evil.example"})),
        _sig(3, template_markers=frozenset({"comming soon"})),
        _sig(4, sitemap_min_count=300),
    ]
    for sig in sigs:
        index.add(sig)
    assert len(index) == 4
    # Keyword hit activates only the keyword-anchored signature (plus
    # the always-checked sitemap bucket).
    assert index.candidates({"slot"}, (), ()) == [0, 3]
    # A keyword that happens to equal an anchored *host* must not
    # activate the host-anchored signature.
    assert index.candidates({"cdn.evil.example"}, (), ()) == [3]
    assert index.candidates((), {"cdn.evil.example"}, ()) == [1, 3]
    assert index.candidates((), (), {"comming soon"}) == [2, 3]
    assert index.candidates({"benign"}, (), ()) == [3]


def test_signature_index_sync_catches_external_appends():
    index = SignatureIndex()
    sigs = [_sig(1, keywords=frozenset({"slot", "judi"}))]
    index.sync(sigs)
    sigs.append(_sig(2, keywords=frozenset({"daftar", "bola"})))
    index.sync(sigs)
    assert len(index) == 2
    assert index.candidates({"bola"}, (), ()) == [1]


# -- PostingIndex -------------------------------------------------------------


def test_posting_index_candidates_and_unknown_tokens():
    postings = PostingIndex()
    postings.add("a.example", {"slot", "judi"})
    postings.add("b.example", {"judi", "careers"})
    assert postings.candidate_fqdns({"slot"}) == {"a.example"}
    assert postings.candidate_fqdns({"judi"}) == {"a.example", "b.example"}
    # Never-seen token: provably no FQDN carries it.
    assert postings.candidate_fqdns({"never-seen"}) == set()
    # Empty anchor: nothing to answer with.
    assert postings.candidate_fqdns(()) is None


def test_posting_index_eviction_is_conservative():
    postings = PostingIndex(cap=4)
    for i in range(4):
        postings.add(f"f{i}.example", {"common"})
    assert postings.evictions == 0
    # The fifth posting pair overflows the cap; the largest list
    # ("common", carried by every FQDN) is evicted and marked
    # unprunable, while the small selective posting survives.
    postings.add("f4.example", {"common", "rare"})
    assert postings.evictions >= 1
    assert postings.candidate_fqdns({"common"}) is None  # cannot prune
    assert postings.candidate_fqdns({"rare"}) == {"f4.example"}
    # Mixed queries touching an evicted token degrade to "cannot prune".
    assert postings.candidate_fqdns({"rare", "common"}) is None


def test_state_tokens_unions_all_component_groups():
    features = _page(
        "v.example.com", T0, {"slot"},
        urls=("https://cdn.evil.example/p.js",), title="Comming Soon!!",
    )
    tokens = state_tokens(features)
    assert "slot" in tokens
    assert "cdn.evil.example" in tokens
    assert "comming soon" in tokens


# -- store-side rescan candidates ---------------------------------------------


def test_store_rescan_candidates_by_token_and_sitemap():
    store = SnapshotStore()
    store.record(_page("v1.example.com", T0, {"slot", "judi"}))
    store.record(_page("v2.example.com", T0, {"careers"}, sitemap_count=900))
    keyword_sig = _sig(1, keywords=frozenset({"slot", "gacor"}), min_keyword_hits=1)
    assert store.rescan_candidates(keyword_sig) == {"v1.example.com"}
    sitemap_sig = _sig(2, sitemap_min_count=500)
    assert store.rescan_candidates(sitemap_sig) == {"v2.example.com"}
    # A degenerate signature with no anchor cannot be pruned for.
    assert store.rescan_candidates(_sig(3)) is None
    # Histories accumulate: an FQDN stays a candidate for tokens any
    # *past* state carried, even after the content moved on.
    store.record(_page("v1.example.com", T0 + WEEK, {"careers"}))
    assert store.rescan_candidates(keyword_sig) == {"v1.example.com"}


# -- indexed-vs-oracle parity (randomized worlds) -----------------------------


def _world_events(seed, weeks=10):
    """One randomized multi-week stream of weekly page batches.

    Mixes co-changing abuse campaigns (shared vocabulary, shared script
    host, bulk sitemaps), benign churn, facade pages and remediations —
    enough variety to exercise every signature component and the
    backlog/rescan/episode machinery.
    """
    rng = random.Random(seed)
    fleet = [f"site-{i}.tenant-{i % 7}.example.com" for i in range(40)]
    weeks_out = []
    for week in range(weeks):
        at = T0 + week * WEEK
        pages = []
        for fqdn in rng.sample(fleet, rng.randint(6, 14)):
            roll = rng.random()
            if roll < 0.45:
                pages.append(_page(fqdn, at, set(rng.sample(BENIGN_TOKENS, 3))))
            elif roll < 0.75:
                campaign = rng.randint(0, 2)
                tokens = set(ABUSE_TOKENS[campaign * 4:campaign * 4 + 4])
                tokens |= {rng.choice(ABUSE_TOKENS)}
                pages.append(_page(
                    fqdn, at, tokens,
                    sitemap_count=rng.choice((-1, 400, 900)),
                    urls=(f"https://cdn-{campaign}.gacor.example/p.js",),
                ))
            elif roll < 0.9:
                pages.append(_page(
                    fqdn, at, set(rng.sample(BENIGN_TOKENS, 2)),
                    title="Comming soon", sitemap_count=rng.choice((-1, 350)),
                ))
            else:
                pages.append(_page(fqdn, at, set(), reachable=False))
        weeks_out.append((at, pages))
    return weeks_out


def _run_world(events, detector_class=AbuseDetector):
    store = SnapshotStore()
    detector = detector_class(store)
    flagged_by_week = []
    for at, pages in events:
        changes = []
        for page in pages:
            is_new, previous = store.record(page)
            if is_new:
                changes.append(detect_changes(previous, page))
        flagged_by_week.append(detector.process_week(changes, at))
    return detector, flagged_by_week


def test_indexed_path_matches_linear_path_on_random_worlds():
    for seed in range(6):
        events = _world_events(seed)
        indexed, flagged_indexed = _run_world(events)
        linear, flagged_linear = _run_world(events, LinearAbuseDetector)
        assert flagged_indexed == flagged_linear, f"seed {seed}"
        assert indexed.signatures == linear.signatures, f"seed {seed}"
        assert sorted(indexed._backlog) == sorted(linear._backlog), f"seed {seed}"
        assert dataset_to_json(indexed.dataset, indent=2) == \
            dataset_to_json(linear.dataset, indent=2), f"seed {seed}"
        assert len(indexed.dataset) > 0, f"seed {seed}: world detected nothing"


def test_indexed_path_actually_prunes():
    """Parity alone could be satisfied by indexing nothing; assert the
    candidate sets are genuinely narrower than the signature store."""
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        _run_world(_world_events(1))
    finally:
        OBS.reset()
    counters = registry.counters()
    assert counters.get("detector.index.lookups", 0) > 0
    assert counters.get("detector.index.pruned", 0) > 0
    assert counters.get("rescan.signatures", 0) > 0
    assert counters.get("rescan.skipped", 0) > 0


def test_parity_survives_posting_eviction():
    """A starved posting cap forces eviction fallbacks mid-world; the
    indexed path must degrade to full scans, never to wrong answers."""
    events = _world_events(2)
    store = SnapshotStore(posting_cap=16)
    detector = AbuseDetector(store)
    flagged = []
    for at, pages in events:
        changes = []
        for page in pages:
            is_new, previous = store.record(page)
            if is_new:
                changes.append(detect_changes(previous, page))
        flagged.append(detector.process_week(changes, at))
    linear, flagged_linear = _run_world(events, LinearAbuseDetector)
    assert store.postings.evictions > 0
    assert flagged == flagged_linear
    assert dataset_to_json(detector.dataset, indent=2) == \
        dataset_to_json(linear.dataset, indent=2)


# -- indexed-vs-oracle parity (whole scenarios) ----------------------------


def _scenario_export(seed, chaos, oracle):
    config = ScenarioConfig.tiny(seed=seed)
    if chaos:
        config.faults = FaultConfig.chaos(0.05)
    engine = build_scenario(config)
    if oracle:
        use_linear_detector(engine)
    engine.run()
    detector = engine.payload.detector
    assert type(detector) is (LinearAbuseDetector if oracle else AbuseDetector)
    return dataset_to_json(detector.dataset, indent=2)


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_detector_exports_match_linear_oracle(seed, chaos):
    indexed = _scenario_export(seed, chaos, oracle=False)
    assert indexed == _scenario_export(seed, chaos, oracle=True)
    assert '"fqdn"' in indexed, "scenario detected nothing"
