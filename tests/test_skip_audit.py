"""The clean-skip audit: every journal-driven skip re-derived from scratch.

``tests/oracles/skip_audit.py`` re-samples each clean-skipped name
through the reference sampler on a fresh resolver and client, and
compares the result with the stored state the skip extended.  These
tests run it over tiny worlds and a churn-style world (every skip must
hold up), over a chaos world (no skip happens: proofs are minted only
on the direct transport), and over a world whose site content was
changed behind the journal's back (the audit must catch it).  An
audited run must also export the same bytes, report and counters as an
unaudited one, or the audit would be measuring a different run.
"""

from datetime import datetime

import pytest

from repro.analysis import report_json, run_analyses
from repro.core.export import dataset_to_json
from repro.core.monitoring import SnapshotFeatures
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import FaultConfig
from repro.obs import OBS, MetricsRegistry
from tests.oracles.skip_audit import STATE_KEY_FIELDS, audit_skips


def _churn(seed):
    config = ScenarioConfig.tiny(seed=seed)
    config.lifecycle.weekly_release_rate *= 5
    config.notify_owners = True
    return config


def _run(config, audit=False):
    engine = build_scenario(config)
    auditor = audit_skips(engine) if audit else None
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        engine.run()
    finally:
        OBS.reset()
    result = engine.payload
    result.weeks_run = engine.week_index
    result.metrics = engine.metrics
    result.dead_letters = engine.dead_letters
    monitor = result.monitor
    outputs = (
        dataset_to_json(result.dataset, indent=2),
        report_json(run_analyses(result), result),
        registry.counters(),
        (monitor.samples_taken, monitor.sitemap_fetches,
         result.internet.client.retries_total),
    )
    return outputs, auditor


def test_state_key_fields_name_the_state_key_in_order():
    features = SnapshotFeatures(
        fqdn="a.example", at=datetime(2020, 1, 6), dns_status="NOERROR",
        cname_chain=("b.example",), addresses=("10.0.0.1",),
        fetch_status="ok", http_status=200, html_hash="abc",
        sitemap_size=12, sitemap_count=3,
    )
    assert features.state_key() == tuple(
        getattr(features, name) for name in STATE_KEY_FIELDS
    )


@pytest.mark.parametrize(
    "config",
    [ScenarioConfig.tiny(seed=1), ScenarioConfig.tiny(seed=2),
     ScenarioConfig.tiny(seed=3), _churn(1)],
    ids=["seed1", "seed2", "seed3", "churn"],
)
def test_every_clean_skip_survives_the_audit(config):
    audited, auditor = _run(config, audit=True)
    assert auditor.audited > 0
    assert auditor.mismatches == []
    counters = audited[2]
    # Each audited skip is one counted clean skip, and nothing else.
    assert counters["journal.clean_skips"] == auditor.audited


def test_audited_run_exports_what_an_unaudited_run_does():
    audited, auditor = _run(ScenarioConfig.tiny(seed=1), audit=True)
    plain, _ = _run(ScenarioConfig.tiny(seed=1))
    assert auditor.audited > 0
    assert audited == plain


def test_faulty_worlds_never_clean_skip():
    config = ScenarioConfig.tiny(seed=1)
    config.faults = FaultConfig.chaos(0.05)
    outputs, auditor = _run(config, audit=True)
    assert auditor.audited == 0
    assert outputs[2].get("journal.clean_skips", 0) == 0


def test_a_change_the_journal_never_saw_is_a_mismatch():
    engine = build_scenario(ScenarioConfig.tiny(seed=1))
    auditor = audit_skips(engine)
    engine.run(max_weeks=6)
    assert auditor.audited > 0 and auditor.mismatches == []
    result = engine.payload
    monitor = result.monitor
    proven = [
        fqdn for fqdn in result.collector.monitored_sorted
        if monitor.touch_ledger.get(fqdn) is not None
    ]
    assert proven
    fqdn = proven[0]
    latest = monitor.store.latest(fqdn)
    last_seen = monitor.store.history(fqdn)[-1].last_seen
    host = result.internet.network.host_at(latest.addresses[0])
    site = host.site_for(fqdn)
    # Edit the page body directly: no ``("site", key)`` bump is published.
    site._pages["/"] = "<html><head><title>silently edited</title></head></html>"
    skipped_before = auditor.audited
    engine.run(max_weeks=1)
    assert auditor.audited > skipped_before
    named = [m for m in auditor.mismatches if m.fqdn == fqdn]
    assert named, f"audit missed the unpublished edit of {fqdn}"
    (mismatch,) = named
    assert mismatch.week > last_seen
    assert "html_hash" in mismatch.fields
    stored, fresh = mismatch.fields["html_hash"]
    assert stored == latest.html_hash and fresh != stored
