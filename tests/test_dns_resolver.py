"""Tests for recursive resolution semantics."""

from datetime import datetime, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.passive_dns import PassiveDNS
from repro.dns.records import RRType, ResourceRecord
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZoneRegistry

T0 = datetime(2020, 1, 6)


def _world():
    zones = ZoneRegistry()
    org = zones.create_zone("example.com")
    cloud = zones.create_zone("azurewebsites.net")
    return zones, org, cloud


def test_direct_a_lookup():
    zones, org, _ = _world()
    org.add(ResourceRecord("app.example.com", RRType.A, "1.2.3.4"), T0)
    result = Resolver(zones).resolve("app.example.com")
    assert result.status == ResolutionStatus.NOERROR
    assert result.addresses == ["1.2.3.4"]
    assert result.cname_chain == []


def test_cname_chain_across_zones():
    zones, org, cloud = _world()
    org.add(ResourceRecord("app.example.com", RRType.CNAME, "res.azurewebsites.net"), T0)
    cloud.add(ResourceRecord("res.azurewebsites.net", RRType.A, "40.1.2.3"), T0)
    result = Resolver(zones).resolve("app.example.com")
    assert result.ok
    assert result.cname_chain == ["res.azurewebsites.net"]
    assert result.addresses == ["40.1.2.3"]


def test_dangling_cname_yields_nxdomain_with_chain():
    zones, org, _cloud = _world()
    org.add(ResourceRecord("app.example.com", RRType.CNAME, "gone.azurewebsites.net"), T0)
    result = Resolver(zones).resolve("app.example.com")
    assert result.status == ResolutionStatus.NXDOMAIN
    # The chain is preserved: this is what Algorithm 1 matches suffixes on.
    assert result.cname_chain == ["gone.azurewebsites.net"]


def test_unknown_name_nxdomain():
    zones, _, _ = _world()
    result = Resolver(zones).resolve("nothing.example.com")
    assert result.status == ResolutionStatus.NXDOMAIN


def test_nodata_when_name_has_other_types():
    zones, org, _ = _world()
    org.add(ResourceRecord("txt.example.com", RRType.TXT, "hello"), T0)
    result = Resolver(zones).resolve("txt.example.com", RRType.A)
    assert result.status == ResolutionStatus.NODATA


def test_cname_loop_servfail():
    zones, org, _ = _world()
    org.add(ResourceRecord("a.example.com", RRType.CNAME, "b.example.com"), T0)
    org.add(ResourceRecord("b.example.com", RRType.CNAME, "a.example.com"), T0)
    result = Resolver(zones).resolve("a.example.com")
    assert result.status == ResolutionStatus.SERVFAIL


def test_cname_query_returns_cname_without_chasing():
    zones, org, _ = _world()
    org.add(ResourceRecord("a.example.com", RRType.CNAME, "x.azurewebsites.net"), T0)
    result = Resolver(zones).resolve("a.example.com", RRType.CNAME)
    assert result.status == ResolutionStatus.NOERROR
    assert result.records[0].rdata == "x.azurewebsites.net"


def test_resolution_feeds_passive_dns():
    zones, org, cloud = _world()
    org.add(ResourceRecord("app.example.com", RRType.CNAME, "res.azurewebsites.net"), T0)
    cloud.add(ResourceRecord("res.azurewebsites.net", RRType.A, "40.1.2.3"), T0)
    pdns = PassiveDNS()
    Resolver(zones, pdns).resolve("app.example.com", at=T0)
    assert "app.example.com" in pdns.subdomains_of("example.com")
    assert pdns.names_pointing_to("res.azurewebsites.net") == ["app.example.com"]


def test_no_passive_observation_without_timestamp():
    zones, org, _ = _world()
    org.add(ResourceRecord("a.example.com", RRType.A, "1.1.1.1"), T0)
    pdns = PassiveDNS()
    Resolver(zones, pdns).resolve("a.example.com")  # no at=
    assert len(pdns) == 0


def test_memo_is_on_from_construction_and_tracks_zone_changes():
    zones, org, cloud = _world()
    cname = ResourceRecord("app.example.com", RRType.CNAME, "res.azurewebsites.net")
    org.add(cname, T0)
    cloud.add(ResourceRecord("res.azurewebsites.net", RRType.A, "40.1.2.3"), T0)
    pdns = PassiveDNS()
    resolver = Resolver(zones, pdns)
    first = resolver.resolve("app.example.com", at=T0)
    entry = resolver.memo_entry("app.example.com", RRType.A)
    assert entry is not None
    # A repeat is the same memo entry, and it replays the walk's
    # passive-DNS observations.
    again = resolver.resolve("app.example.com", at=T0)
    assert resolver.memo_entry("app.example.com", RRType.A) is entry
    assert (again.status, again.cname_chain, again.addresses) == (
        first.status, first.cname_chain, first.addresses
    )
    assert pdns.observation_for(cname).count == 2
    # The entry depends on every name the walk consulted and its
    # wildcard key; each name sits right below its zone's apex, so no
    # other new zone could re-route it.
    assert set(entry.deps) == {
        ("dns", "app.example.com"), ("dns", "*.example.com"),
        ("dns", "res.azurewebsites.net"), ("dns", "*.azurewebsites.net"),
    }
    # A zone registered elsewhere leaves the entry alone.
    zones.create_zone("elsewhere.org")
    assert resolver.memo_entry("app.example.com", RRType.A) is entry
    # A change to any name the walk consulted evicts the entry.
    cloud.replace("res.azurewebsites.net", RRType.A, "40.9.9.9", T0)
    assert resolver.memo_entry("app.example.com", RRType.A) is None
    assert resolver.resolve("app.example.com", at=T0).addresses == ["40.9.9.9"]


# -- differential: memoised resolver vs a fresh walk ------------------------

#: Names records are written at; wildcard owners included.
_OWNERS = (
    "a.example.com", "b.example.com", "x.sub.example.com", "*.example.com",
    "*.sub.example.com", "r1.cloud.net", "r2.cloud.net", "*.cloud.net",
    "q.other.org",
)
#: Names queried after every step: every non-wildcard owner plus names
#: only a wildcard (or nothing) answers for.
_QUERIES = tuple(n for n in _OWNERS if not n.startswith("*.")) + (
    "deep.sub.example.com", "w.cloud.net", "nothing.example.com",
)
#: Zones a step may register: below the walked ``example.com`` names,
#: above ``cloud.net``, and where no zone covered anything yet.
_APEXES = ("sub.example.com", "net", "other.org", "org")
_TARGETS = st.sampled_from(_OWNERS + _QUERIES)
_RDATA = st.one_of(
    st.tuples(st.just(RRType.A), st.sampled_from(["10.0.0.1", "10.0.0.2"])),
    st.tuples(st.just(RRType.CNAME), _TARGETS),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(_OWNERS), _RDATA),
        st.tuples(st.just("replace"), st.sampled_from(_OWNERS), _RDATA),
        st.tuples(st.just("remove"), st.sampled_from(_OWNERS)),
        st.tuples(st.just("zone"), st.sampled_from(_APEXES)),
    ),
    max_size=25,
)


def _apply(zones, step, at):
    if step[0] == "zone":
        if zones.get_zone(step[1]) is None:
            zones.create_zone(step[1])
        return
    zone = zones.zone_for(step[1])
    if zone is None:
        return
    if step[0] == "remove":
        # With records of its own at the name, ``lookup`` never
        # synthesizes from a wildcard.
        if zone.name_exists(step[1]):
            for rtype in (RRType.A, RRType.CNAME):
                records = zone.lookup(step[1], rtype)
                if records:
                    zone.remove(records[0], at)
                    return
        return
    _, name, (rtype, rdata) = step
    try:
        if step[0] == "replace":
            zone.replace(name, rtype, rdata, at)
        else:
            zone.add(ResourceRecord(name, rtype, rdata), at)
    except ValueError:
        pass  # a duplicate record or a second CNAME: the zone refuses it


def _observations(pdns):
    return {
        observation.record.key: (
            observation.first_seen, observation.last_seen, observation.count
        )
        for name in _OWNERS + _QUERIES
        for observation in pdns.observations_for(name)
    }


@settings(max_examples=100, deadline=None)
@given(steps=_STEPS)
def test_memoised_resolver_equals_a_fresh_walk_after_every_step(steps):
    zones, _, _ = _world()
    zones.create_zone("cloud.net")
    memo_feed, fresh_feed = PassiveDNS(), PassiveDNS()
    memoised = Resolver(zones, memo_feed)
    for index, step in enumerate(steps):
        at = T0 + timedelta(hours=index)
        _apply(zones, step, at)
        for qname in _QUERIES:
            for qtype in (RRType.A, RRType.CNAME):
                got = memoised.resolve(qname, qtype, at=at)
                want = Resolver(zones, fresh_feed).resolve(qname, qtype, at=at)
                assert (got.status, got.cname_chain, got.records) == (
                    want.status, want.cname_chain, want.records
                ), (step, qname, qtype)
        assert _observations(memo_feed) == _observations(fresh_feed)
