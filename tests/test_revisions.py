"""Tests for the revision journal and churn-proportional sweeps.

Covers the `repro.sim.revisions` journal itself (bump/cursor/changed
semantics, event publication), the journal-evicted `JournalCache` the
resolver memo and the touch ledger are built on, the journal wiring of
every world-mutation path, and the sweep contract: journal-driven
sweeps extend clean names' windows from ledger proofs, pick up every
kind of staleness (content mutation, resource re-registration, new
zone registration), and stay byte-identical to a full sweep's.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitoring import WeeklyMonitor
from repro.core.sweep import ProcessExecutor
from repro.dns.records import RRType, ResourceRecord
from repro.obs import OBS, MetricsRegistry
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.revisions import JournalCache, RevisionJournal
from repro.sim.rng import RngStreams
from repro.world.internet import Internet
from tests.oracles.serial_sweep import SerialExecutor

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


# -- RevisionJournal -------------------------------------------------------


def test_bump_advances_monotonic_per_subject_counters():
    journal = RevisionJournal()
    assert journal.revision("dns", "a.example.com") == 0
    assert journal.bump("dns", "a.example.com") == 1
    assert journal.bump("dns", "a.example.com") == 2
    assert journal.bump("web", "a.example.com") == 1  # kinds never collide
    assert journal.revision("dns", "a.example.com") == 2
    assert journal.revision("web", "a.example.com") == 1


def test_changed_since_returns_only_the_suffix_of_the_change_log():
    journal = RevisionJournal()
    journal.bump("dns", "old.example.com")
    cursor = journal.cursor()
    assert journal.changed_since(cursor) == set()
    journal.bump("site", ("Azure", "web", "res-1"))
    journal.bump("dns", "new.example.com")
    journal.bump("dns", "new.example.com")
    assert journal.changed_since(cursor) == {
        ("site", ("Azure", "web", "res-1")),
        ("dns", "new.example.com"),
    }
    # A newer cursor forgets the older churn.
    assert journal.changed_since(journal.cursor()) == set()


def test_publish_records_the_event_and_bumps_the_kind_prefix():
    events = EventLog()
    journal = RevisionJournal(events)
    event = journal.publish(T0, "cloud.release", "app.azurewebsites.net", owner="org")
    assert event is not None and event.kind == "cloud.release"
    assert events.last(kind="cloud.release").subject == "app.azurewebsites.net"
    assert journal.revision("cloud", "app.azurewebsites.net") == 1


# -- JournalCache ----------------------------------------------------------


def test_journal_cache_evicts_entries_whose_deps_are_bumped():
    journal = RevisionJournal()
    cache = JournalCache(journal, "test.evictions")
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    shared = ("dns", "*.azurewebsites.net")
    cache.put("a", 1, (("dns", "a.example.com"), shared))
    cache.put("b", 2, (("dns", "b.example.com"), shared))
    cache.put("c", 3, (("web", "c.example.com"),))
    try:
        journal.bump("dns", "a.example.com")
        journal.bump("web", "unrelated.example.com")
        assert cache.get("a") is None
        assert (cache.get("b"), cache.get("c")) == (2, 3)
        assert registry.counters()["test.evictions"] == 1
        journal.bump("dns", "*.azurewebsites.net")  # evicts every dependent
        assert cache.get("b") is None and cache.get("c") == 3
        assert registry.counters()["test.evictions"] == 2 and len(cache) == 1
    finally:
        OBS.reset()
    # Bumps from before a put do not evict the new entry.
    cache.put("a", 4, (("dns", "a.example.com"),))
    assert cache.get("a") == 4


def test_journal_cache_put_replaces_and_discard_is_a_no_op_when_absent():
    journal = RevisionJournal()
    cache = JournalCache(journal)
    cache.put("a", 1, (("dns", "old.example.com"),))
    cache.put("a", 2, (("dns", "new.example.com"),))
    journal.bump("dns", "old.example.com")  # the replaced deps no longer count
    assert cache.get("a") == 2
    cache.discard("a")
    cache.discard("a")  # absent: no-op
    assert cache.get("a") is None
    journal.bump("dns", "new.example.com")
    assert len(cache) == 0


#: Steps of the brute-force model check: put a key with a dep set, bump
#: a subject, discard a key, or look a key up.
_KEYS = st.sampled_from("abcde")
_SUBJECTS = st.sampled_from(
    [("dns", "x"), ("dns", "y"), ("web", "x"), ("net", "1"), ("site", ("p", 1))]
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.lists(_SUBJECTS, max_size=4)),
        st.tuples(st.just("bump"), _SUBJECTS),
        st.tuples(st.just("discard"), _KEYS),
        st.tuples(st.just("get"), _KEYS),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_journal_cache_matches_a_brute_force_model(steps):
    # The model: an entry is present iff it was put and none of its
    # deps has been bumped since, read off the journal's revisions.
    journal = RevisionJournal()
    cache = JournalCache(journal)
    model = {}
    for value, step in enumerate(steps):
        if step[0] == "put":
            _, key, deps = step
            cache.put(key, value, tuple(deps))
            model[key] = (value, {s: journal.revision(*s) for s in deps})
        elif step[0] == "bump":
            journal.bump(*step[1])
        elif step[0] == "discard":
            cache.discard(step[1])
            model.pop(step[1], None)
        else:
            cache.get(step[1])
        live = {
            key: value
            for key, (value, pinned) in model.items()
            if all(journal.revision(*s) == r for s, r in pinned.items())
        }
        assert {key: cache.get(key) for key in "abcde"} == {
            key: live.get(key) for key in "abcde"
        }
        assert len(cache) == len(live)


# -- publisher wiring ------------------------------------------------------


def _internet():
    return Internet(RngStreams(7), SimClock())


def _victim(internet, name="shop", body="<html><head><title>Portal</title></head><body>hi</body></html>"):
    azure = internet.catalog.provider("Azure")
    zone = internet.zones.get_zone("acme.com") or internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", f"acme-{name}", owner="org:acme", at=T0)
    fqdn = f"{name}.acme.com"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    azure.add_custom_domain(resource, fqdn, T0)
    resource.site.put_index(body)
    return azure, resource, fqdn


def test_zone_mutations_publish_per_name_dns_revisions():
    internet = _internet()
    zone = internet.zones.create_zone("acme.com")
    record = ResourceRecord("www.acme.com", RRType.A, "10.0.0.1")
    zone.add(record, T0)
    assert internet.revisions.revision("dns", "www.acme.com") == 1
    zone.remove(record, T0 + WEEK)
    assert internet.revisions.revision("dns", "www.acme.com") == 2
    # Registering a zone bumps its apex.
    assert ("dns", "acme.com") in internet.revisions.changed_since(0)


def test_provider_lifecycle_publishes_cloud_site_web_and_net_revisions():
    internet = _internet()
    journal = internet.revisions
    azure, resource, fqdn = _victim(internet)
    gen = resource.generated_fqdn
    assert journal.revision("cloud", gen) >= 1          # provision
    assert journal.revision("cloud", fqdn) >= 1         # custom domain
    assert journal.revision("web", gen) >= 1            # edge route
    assert journal.revision("web", fqdn) >= 1
    site_key = resource.site.journal_key
    assert site_key == ("Azure", "azure-web-app", "acme-shop")
    assert journal.revision("site", site_key) >= 1      # put_index
    cursor = journal.cursor()
    azure.release(resource, T0 + WEEK)
    changed = journal.changed_since(cursor)
    assert ("cloud", gen) in changed
    assert ("web", fqdn) in changed                     # custom route torn down
    assert ("dns", gen) in changed                      # provider record purged


def test_network_bind_unbind_publish_net_revisions():
    internet = _internet()
    cursor = internet.revisions.cursor()
    aws = internet.catalog.provider("AWS")
    resource = aws.provision("aws-ec2-ip", "box", owner="org:acme", at=T0)
    assert ("net", resource.ip) in internet.revisions.changed_since(cursor)
    aws.release(resource, T0 + WEEK)
    assert internet.revisions.revision("net", resource.ip) == 2


# -- journal-driven sweep contract -----------------------------------------


def _journal_monitor(internet):
    return WeeklyMonitor(internet.client, journal=internet.revisions)


def _run_weeks(internet, monitor, executor, fqdns, schedule, weeks):
    """Sweep ``weeks`` times, applying ``schedule[week]`` mutations first."""
    reports = []
    at = T0
    for week in range(weeks):
        mutate = schedule.get(week)
        if mutate is not None:
            mutate(at)
        reports.append(executor.sweep(monitor, fqdns, at))
        at += WEEK
    histories = {
        fqdn: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]
        for fqdn in fqdns
    }
    return reports, histories


def _executors():
    # The production in-process sweep.
    return [pytest.param(dict(), id="serial")]


def _parity_case(executor_kwargs, schedule_builder, weeks=6):
    """Run the same mutation schedule full vs journal-driven; assert equal."""
    baseline_net = _internet()
    _, baseline_resource, fqdn = _victim(baseline_net)
    journal_net = _internet()
    _, journal_resource, fqdn2 = _victim(journal_net)
    assert fqdn == fqdn2

    base_reports, base_hist = _run_weeks(
        baseline_net,
        WeeklyMonitor(baseline_net.client),
        SerialExecutor(),
        [fqdn],
        schedule_builder(baseline_net, baseline_resource),
        weeks,
    )
    inc_reports, inc_hist = _run_weeks(
        journal_net,
        _journal_monitor(journal_net),
        ProcessExecutor(**executor_kwargs),
        [fqdn],
        schedule_builder(journal_net, journal_resource),
        weeks,
    )
    assert inc_hist == base_hist
    for inc, base in zip(inc_reports, base_reports):
        assert [(c[0], c[1]) for c in inc.changed] == [
            (c[0], c[1]) for c in base.changed
        ]
        assert inc.samples_taken == base.samples_taken
    return inc_hist[fqdn]


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_site_content_mutation_dirties_the_next_sweep(executor_kwargs):
    def schedule(internet, resource):
        def redeploy(at):
            resource.site.put_index(
                "<html><head><title>slot gacor</title></head></html>"
            )
        return {4: redeploy}

    history = _parity_case(executor_kwargs, schedule)
    # Two states: the original content (touched weeks 0-3) and the
    # redeploy — no phantom "unchanged" touch swallowed the change.
    assert len(history) == 2
    assert history[0][3] == 4  # observations of the first state
    assert history[1][0].title == "slot gacor"


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_released_then_reregistered_resource_dirties_each_transition(executor_kwargs):
    def schedule(internet, resource):
        azure = internet.catalog.provider("Azure")

        def release(at):
            azure.release(resource, at)

        def reregister(at):
            hijack = azure.provision(
                "azure-web-app", "acme-shop", owner="attacker", at=at
            )
            azure.add_custom_domain(hijack, "shop.acme.com", at)
            hijack.site.put_index(
                "<html><head><title>hijacked</title></head></html>"
            )
        return {2: release, 4: reregister}

    history = _parity_case(executor_kwargs, schedule)
    # Three states: live original, dangling (provider 404), hijack.
    assert len(history) == 3
    assert history[2][0].title == "hijacked"


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_new_provider_zone_registration_dirties_ledger_entries(executor_kwargs):
    def schedule(internet, resource):
        def register(at):
            # A new provider zone takes over the CNAME target with the
            # records it already resolved to; an unrelated zone too.
            target = resource.generated_fqdn
            provider_zone = internet.zones.zone_for(target)
            records = provider_zone.lookup(target, RRType.A)
            zone = internet.zones.create_zone(target)
            for record in records:
                zone.add(record, at)
            internet.zones.create_zone("late-provider.example")
        return {4: register}

    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        history = _parity_case(executor_kwargs, schedule)
    finally:
        OBS.reset()
    # The re-delegation evicts the proof and forces a full re-proof,
    # but the state did not change: still one state, its window
    # extended every week.
    assert registry.counters().get("journal.dirty", 0) == 1
    assert len(history) == 1
    assert history[0][3] == 6


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_clean_names_are_skipped_and_dirty_names_are_counted(executor_kwargs):
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = _journal_monitor(internet)
    executor = ProcessExecutor(**executor_kwargs)
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        executor.sweep(monitor, [fqdn], T0)            # full sample
        executor.sweep(monitor, [fqdn], T0 + WEEK)     # touch: mints proof
        executor.sweep(monitor, [fqdn], T0 + 2 * WEEK)  # clean skip
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 1
        assert counters.get("journal.dirty", 0) == 0
        resource.site.put_index("<html><head><title>new</title></head></html>")
        executor.sweep(monitor, [fqdn], T0 + 3 * WEEK)  # dirty: full sample
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 1
        assert counters.get("journal.dirty", 0) == 1
    finally:
        OBS.reset()
    assert len(monitor.store.history(fqdn)) == 2


def test_ledger_cursor_advances_with_the_journal():
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = _journal_monitor(internet)
    executor = ProcessExecutor()
    ledger = monitor.touch_ledger
    # The ledger starts caught up with the journal it follows.
    assert ledger.cursor == internet.revisions.cursor()
    executor.sweep(monitor, [fqdn], T0)
    executor.sweep(monitor, [fqdn], T0 + WEEK)
    assert len(ledger) == 1  # proof minted by the touch
    assert ledger.cursor == internet.revisions.cursor()
    # A bump leaves the cursor behind until the next read catches up
    # and evicts the proof it dirtied.
    resource.site.put_index("<html><head><title>new</title></head></html>")
    assert ledger.cursor < internet.revisions.cursor()
    assert ledger.get(fqdn) is None
    assert ledger.cursor == internet.revisions.cursor()
