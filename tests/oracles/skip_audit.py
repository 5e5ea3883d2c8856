"""Run-time proof of the journal-driven sweep's clean skips.

A clean skip trusts the revision journal: a name none of whose journal
dependencies moved since its last sample is not sampled, and its
stored state's window is extended instead.  DESIGN §6 puts the burden
on the world ("a missed bump is a correctness bug").  :class:`SkipAudit`
checks that burden while a scenario runs.  It wraps a built engine's
monitor so that every clean skip (``extend_if_clean`` returning True)
is re-derived independently by the reference sampler, through a fresh
:class:`~repro.dns.resolver.Resolver` (an empty memo, no passive-DNS
feed) over the same zones, which keep no memo of their own, and a
fresh client and monitor (no extraction cache, no fault plan, no
breaker).  The re-derived ``state_key`` must equal the stored state the
skip extended; each disagreement is kept as a :class:`SkipMismatch`.

The re-derivation runs with observability switched off and moves no
counter of the audited run, so an audited run exports the same bytes,
report and counters as an unaudited one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Tuple

from repro.core.monitoring import SnapshotFeatures, WeeklyMonitor
from repro.dns.names import Name
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneRegistry
from repro.obs import OBS
from repro.web.client import HttpClient
from tests.oracles.reference_sampler import reference_sample

#: The :class:`SnapshotFeatures` fields of ``state_key``, in its order.
STATE_KEY_FIELDS = (
    "dns_status", "cname_chain", "addresses", "fetch_status",
    "http_status", "html_hash", "sitemap_size", "sitemap_count",
)


@dataclass(frozen=True)
class SkipMismatch:
    """A clean skip whose re-derived state differs from the stored one."""

    week: datetime
    fqdn: Name
    #: field -> (stored value, re-derived value), for each differing
    #: ``state_key`` field.
    fields: Dict[str, Tuple[object, object]]


@dataclass
class SkipAudit:
    """Re-derives every clean skip of one monitor (see the module doc)."""

    monitor: WeeklyMonitor
    zones: ZoneRegistry
    audited: int = 0
    mismatches: List[SkipMismatch] = field(default_factory=list)

    def install(self) -> "SkipAudit":
        real = self.monitor.extend_if_clean

        def extend_if_clean(fqdn: Name, at: datetime) -> bool:
            clean = real(fqdn, at)
            if clean:
                self._audit(fqdn, at)
            return clean

        self.monitor.extend_if_clean = extend_if_clean
        return self

    def _audit(self, fqdn: Name, at: datetime) -> None:
        stored = self.monitor.store.latest(fqdn)
        fresh = self.rederive(fqdn, at)
        self.audited += 1
        if fresh.state_key() == stored.state_key():
            return
        self.mismatches.append(SkipMismatch(
            week=at,
            fqdn=fqdn,
            fields={
                name: (getattr(stored, name), getattr(fresh, name))
                for name in STATE_KEY_FIELDS
                if getattr(stored, name) != getattr(fresh, name)
            },
        ))

    def rederive(self, fqdn: Name, at: datetime) -> SnapshotFeatures:
        """``fqdn``'s state at ``at``, sampled from scratch."""
        client = HttpClient(
            Resolver(self.zones), self.monitor.client.network
        )
        sampler = WeeklyMonitor(
            client, store=self.monitor.store, config=self.monitor.config
        )
        saved = (OBS.metrics, OBS.tracer, OBS.series, OBS.enabled)
        OBS.reset()
        try:
            return reference_sample(sampler, fqdn, at)
        finally:
            OBS.metrics, OBS.tracer, OBS.series, OBS.enabled = saved


def audit_skips(engine) -> SkipAudit:
    """Audit every clean skip of a built scenario engine's sweeps."""
    payload = engine.payload
    return SkipAudit(payload.monitor, payload.internet.zones).install()
