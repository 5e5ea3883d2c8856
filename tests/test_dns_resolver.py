"""Tests for recursive resolution semantics."""

from datetime import datetime

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
    # A change to any name the walk consulted evicts the entry.
    cloud.replace("res.azurewebsites.net", RRType.A, "40.9.9.9", T0)
    assert resolver.memo_entry("app.example.com", RRType.A) is None
    assert resolver.resolve("app.example.com", at=T0).addresses == ["40.9.9.9"]
