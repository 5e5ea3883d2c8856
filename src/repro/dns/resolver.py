"""Recursive resolution with CNAME chain following.

Algorithm 1 issues an A query per FQDN and inspects both the CNAME
chain and the terminal A records.  The resolver implements standard
semantics: chains are followed across zones, a missing name yields
NXDOMAIN, an existing name without the queried type yields NODATA, and
loops or over-long chains yield SERVFAIL.  Every successful lookup can
be mirrored into a :class:`~repro.dns.passive_dns.PassiveDNS` feed,
which is how the simulated FarSight corpus gets populated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, NamedTuple, Optional, Tuple

from repro.dns.names import Name, normalize_name
from repro.dns.passive_dns import PassiveDNS
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import ZoneRegistry
from repro.obs import OBS
from repro.sim.revisions import JournalCache, Subject

#: RFC-ish bound on chain length before we declare a loop.
MAX_CHAIN_LENGTH = 16


class ResolutionStatus(enum.Enum):
    """Final status of a resolution."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    NODATA = "NODATA"
    SERVFAIL = "SERVFAIL"
    #: The query never came back (transient resolver/path failure) —
    #: only ever produced by an injected fault, never by zone state.
    TIMEOUT = "TIMEOUT"


@dataclass
class ResolutionResult:
    """Everything a client learns from one query.

    ``cname_chain`` lists the CNAME targets traversed, in order; the
    paper's suffix matching runs over exactly this list.  ``records``
    holds the terminal records of the queried type (A records for the
    usual Algorithm-1 query).
    """

    qname: Name
    qtype: RRType
    status: ResolutionStatus
    cname_chain: List[Name] = field(default_factory=list)
    records: List[ResourceRecord] = field(default_factory=list)

    @property
    def addresses(self) -> List[str]:
        """The rdata of terminal A/AAAA records."""
        return [r.rdata for r in self.records if r.rtype in (RRType.A, RRType.AAAA)]

    @property
    def ok(self) -> bool:
        """Whether the query produced usable answers."""
        return self.status == ResolutionStatus.NOERROR and bool(self.records)


class MemoEntry(NamedTuple):
    """A finished walk, as the resolver memo keeps it."""

    status: ResolutionStatus
    cname_chain: Tuple[Name, ...]
    records: Tuple[ResourceRecord, ...]
    #: The record groups the walk mirrored into passive DNS, in order —
    #: what a hit replays.
    observed: Tuple[Tuple[ResourceRecord, ...], ...]
    #: The journal subjects that pin the outcome (see ``_walk``).
    deps: Tuple[Subject, ...]


class Resolver:
    """A recursive resolver over a :class:`ZoneRegistry`.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`, duck-typed) lets
    a chaos run inject transient SERVFAILs and timeouts *before* zone
    lookup — the flaky-recursive behaviour a longitudinal pipeline must
    survive.  Injected failures record no passive-DNS observations, as
    a real failed query would not.
    """

    def __init__(
        self,
        zones: ZoneRegistry,
        passive_dns: Optional[PassiveDNS] = None,
        fault_plan=None,
    ):
        self._zones = zones
        self._passive_dns = passive_dns
        self.fault_plan = fault_plan
        #: Memo of (qname, qtype) → :class:`MemoEntry`, always on: every
        #: query is a walk or a hit.  The world re-resolves the same
        #: mostly-unchanged names thousands of times.  An entry depends
        #: on the journal subjects of every name the walk consulted, and
        #: the journal evicts it once any of them is bumped.  Per-name
        #: granularity matters: one record churned in a shared provider
        #: zone, or one new zone registered, must not evict the
        #: thousands of unrelated entries a whole-zone or zone-set
        #: subject would.  Hits replay the identical passive-DNS
        #: observations the walk would have made, so the corpus the
        #: dataset exports is byte-for-byte unaffected, and the fault
        #: draw comes before the memo, so no fault stream moves either.
        self._memo = JournalCache(zones.journal, "resolver.memo.evictions")

    @property
    def passive_dns(self) -> Optional[PassiveDNS]:
        """The feed successful lookups mirror into."""
        return self._passive_dns

    def resolve(
        self, qname: Name, qtype: RRType = RRType.A, at: Optional[datetime] = None
    ) -> ResolutionResult:
        """Resolve ``qname``/``qtype``, following CNAMEs.

        ``at`` is the simulated query time; when given together with a
        passive DNS feed, observations are recorded.
        """
        qname = normalize_name(qname)
        if OBS.enabled:
            OBS.metrics.inc("resolver.queries")
        if self.fault_plan is not None:
            fault = self.fault_plan.dns_fault(str(qname))
            if fault is not None:
                status = (
                    ResolutionStatus.TIMEOUT
                    if fault == "timeout"
                    else ResolutionStatus.SERVFAIL
                )
                return ResolutionResult(qname, qtype, status)
        key = (qname, qtype)
        memo = self._memo.get(key)
        if memo is not None:
            status, chain, records, observed, _ = memo
            if OBS.enabled:
                OBS.metrics.inc("resolver.memo.hits")
                OBS.metrics.observe("resolver.chain_depth", len(chain))
            for group in observed:
                self._observe(group, at)
            return ResolutionResult(
                qname, qtype, status, list(chain), list(records)
            )
        if OBS.enabled:
            OBS.metrics.inc("resolver.memo.misses")
        result, deps, observed = self._walk(qname, qtype, at)
        self._memo.put(
            key,
            MemoEntry(
                result.status, tuple(result.cname_chain),
                tuple(result.records), observed, deps,
            ),
            deps,
        )
        if OBS.enabled:
            OBS.metrics.observe("resolver.chain_depth", len(result.cname_chain))
        return result

    def _walk(self, qname: Name, qtype: RRType, at: Optional[datetime]):
        """The actual chain walk; returns (result, deps, observed).

        ``deps`` are the ``("dns", …)`` journal subjects every
        ``zone_for``, ``lookup`` and ``name_exists`` outcome the walk
        saw depends on.  For each name walked: the name and its
        wildcard key, whose record changes bump them, and every suffix
        more specific than the apex that covered it (all suffixes, if
        none did), since ``create_zone`` bumps the new apex and a zone
        there would re-route the name.  ``observed`` are the record
        groups mirrored into passive DNS, in order — what a memo hit
        replays.
        """
        deps: List[Subject] = []
        observed: List = []
        chain: List[Name] = []
        # ``qname`` is normalized by :meth:`resolve` and CNAME rdata at
        # record construction, so every name walked is already normal.
        current = qname
        seen = {current}
        while True:
            zone = self._zones.zone_for(current)
            deps.append(("dns", current))
            parent = current.partition(".")[2]
            apex_length = len(zone.apex) if zone is not None else 0
            suffix = parent
            while len(suffix) > apex_length:
                deps.append(("dns", suffix))
                suffix = suffix.partition(".")[2]
            if zone is None:
                return (
                    ResolutionResult(qname, qtype, ResolutionStatus.NXDOMAIN, chain),
                    tuple(deps), tuple(observed),
                )
            if parent and not current.startswith("*."):
                deps.append(("dns", f"*.{parent}"))
            direct = zone.lookup(current, qtype)
            if direct:
                self._observe(direct, at)
                observed.append(tuple(direct))
                return (
                    ResolutionResult(
                        qname, qtype, ResolutionStatus.NOERROR, chain, direct
                    ),
                    tuple(deps), tuple(observed),
                )
            cnames = [] if qtype == RRType.CNAME else zone.lookup(current, RRType.CNAME)
            if cnames:
                self._observe(cnames, at)
                observed.append(tuple(cnames))
                target = cnames[0].rdata
                chain.append(target)
                if target in seen or len(chain) > MAX_CHAIN_LENGTH:
                    return (
                        ResolutionResult(
                            qname, qtype, ResolutionStatus.SERVFAIL, chain
                        ),
                        tuple(deps), tuple(observed),
                    )
                seen.add(target)
                current = target
                continue
            if zone.name_exists(current):
                return (
                    ResolutionResult(qname, qtype, ResolutionStatus.NODATA, chain),
                    tuple(deps), tuple(observed),
                )
            return (
                ResolutionResult(qname, qtype, ResolutionStatus.NXDOMAIN, chain),
                tuple(deps), tuple(observed),
            )

    def resolve_a_with_chain(
        self, qname: Name, at: Optional[datetime] = None
    ) -> ResolutionResult:
        """The Algorithm-1 query: A lookup returning chain + addresses."""
        return self.resolve(qname, RRType.A, at=at)

    def memo_entry(self, qname: Name, qtype: RRType) -> Optional[MemoEntry]:
        """The live memo entry for (qname, qtype), or ``None``.

        An entry lives until the journal bumps one of its ``deps`` —
        while a fresh walk would provably return the identical result.
        """
        return self._memo.get((qname, qtype))

    def _observe(self, records: List[ResourceRecord], at: Optional[datetime]) -> None:
        if self._passive_dns is not None and at is not None:
            for record in records:
                self._passive_dns.observe(record, at)
