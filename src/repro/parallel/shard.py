"""Per-name sampling for the weekly sweep.

:class:`~repro.parallel.executor.ProcessExecutor` walks the monitored
list once, in order, and samples each name through one of two paths.
When the world is healthy (no fault plan drawing, no breaker, no retry
budget, plain HTTP) it takes the *fused* path here: one resolution per
FQDN, the index served directly off the routed host, and the sitemap
fetched by reusing the index resolution instead of re-resolving.  The
fused path replicates ``WeeklyMonitor.sample`` semantics exactly —
including recording non-5xx sitemap responses of any status — so its
features are byte-identical to the generic path's.

In incremental mode the fused path also maintains the monitor's
:class:`~repro.core.monitoring.TouchLedger`: a name whose ledger proof
still holds is extended without a sample (:func:`_touch_clean`), and a
name whose state is re-proven unchanged mints a fresh proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import datetime
from typing import Dict, Optional, Union

from repro.core.monitoring import (
    SnapshotFeatures,
    TouchEntry,
    TouchLedger,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS
from repro.web.client import FetchStatus
from repro.web.http import HttpRequest


#: Enum ``.value`` reads hoisted out of the fused loop — each is a
#: descriptor call per access, and the loop needs several per sample.
_OK_VALUE = FetchStatus.OK.value
_NXDOMAIN_VALUE = FetchStatus.DNS_NXDOMAIN.value
_TIMEOUT_VALUE = FetchStatus.TIMEOUT.value
_DNS_ERROR_VALUE = FetchStatus.DNS_ERROR.value
_CONNECTION_FAILED_VALUE = FetchStatus.CONNECTION_FAILED.value
_HTTP_ERROR_VALUE = FetchStatus.HTTP_ERROR.value

#: Body → truncated sha256 memo.  Sites store page bodies as strings
#: and hand back the *same* object until the content changes, so the
#: steady-state lookup is an identity hit; a changed body is a new
#: string and misses.  sha256 is a pure function of the text, so even
#: an equal-but-distinct string mapping to the cached digest is
#: correct.  Bounded: cleared wholesale when it outgrows the cap.
_HASH_MEMO: Dict[str, str] = {}
_HASH_MEMO_MAX = 4096


def _body_hash(body: str) -> str:
    cached = _HASH_MEMO.get(body)
    if cached is None:
        if len(_HASH_MEMO) >= _HASH_MEMO_MAX:
            _HASH_MEMO.clear()
        cached = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        _HASH_MEMO[body] = cached
    return cached


def _ledger_entry(
    resolver: Resolver, fqdn: Name, ip: str, host, previous: SnapshotFeatures
) -> Optional[TouchEntry]:
    """Build the :class:`TouchEntry` proving this touch outcome.

    Captures every revision-journal subject the sample's outcome
    depends on: the DNS names the resolution walked (exact and wildcard
    keys) plus the zone-set key, the edge route and network binding the
    response came through, and the journal-adopted site whose content
    was hashed.  While none of those subjects move, the observable
    state provably equals ``previous.state_key()``.  Entries are plain
    data, so they survive checkpoint pickling.
    """
    site_for = getattr(host, "site_for", None)
    if site_for is None:
        return None
    site = site_for(fqdn)
    site_key = getattr(site, "journal_key", None)
    if site_key is None:
        # Unadopted content (no provider bound it to the journal) has
        # no change signal; it must keep taking the full sample.
        return None
    res_entry = resolver.memo_entry(fqdn, RRType.A)
    if res_entry is None:
        return None
    deps = [("dns", ZONE_SET_KEY)]
    for _zone, name, _ver, wkey, _wver in Resolver.memo_touched(res_entry):
        deps.append(("dns", name))
        if wkey is not None:
            deps.append(("dns", wkey))
    deps.append(("web", fqdn.lower()))
    deps.append(("net", ip))
    deps.append(("site", site_key))
    observed = tuple(
        record
        for group in Resolver.memo_observed(res_entry)
        for record in group
    )
    return TouchEntry(
        fqdn=fqdn,
        deps=tuple(deps),
        state_key=previous.state_key(),
        observed=observed,
    )


def _touch_clean(
    monitor, resolver, ledger: TouchLedger, changed, fqdn: Name, at: datetime
) -> bool:
    """Extend a clean name's window from its ledger proof.

    True means the name is provably unchanged: it holds a ledger entry,
    none of the entry's journal dependencies moved since the ledger's
    cursor, and the stored state the entry extends is still current.
    The only side effects are the passive-DNS observations the skipped
    resolution would have produced, replayed by value, plus the sample
    counter; the caller extends the stored state's window.
    """
    entry = ledger.get(fqdn)
    if entry is None:
        return False
    if changed and not changed.isdisjoint(entry.deps):
        if OBS.enabled:
            OBS.metrics.inc("journal.dirty")
        return False
    latest = monitor.store.latest(fqdn)
    if latest is None or latest.state_key() != entry.state_key:
        if OBS.enabled:
            OBS.metrics.inc("journal.dirty")
        return False
    feed = resolver.passive_dns
    if feed is not None:
        for record in entry.observed:
            feed.observe(record, at)
    monitor.samples_taken += 1
    return True


def fast_path_eligible(monitor: WeeklyMonitor) -> bool:
    """Whether the fused sampling loop is behaviour-equivalent here.

    The fused loop skips the client's fault/breaker/retry/TLS machinery,
    so it is only taken when none of that machinery can fire: no active
    fault classes, no breaker, single-attempt retry policy, plain HTTP.
    """
    client = monitor.client
    plan = client.fault_plan
    return (
        not monitor.config.prefer_https
        and client.breaker is None
        and monitor.config.retry.max_attempts == 1
        and (plan is None or not plan.config.any_active)
    )


def _sample_fused(
    monitor: WeeklyMonitor,
    fqdn: Name,
    at: datetime,
    headers: Dict[str, str],
    ledger: Optional[TouchLedger] = None,
) -> Union[SnapshotFeatures, Name]:
    """One weekly sample on the fused healthy-world path.

    Semantics-for-semantics replica of ``WeeklyMonitor.sample`` with
    the fault/breaker/retry/TLS seams (guaranteed quiescent by
    :func:`fast_path_eligible`) elided: one resolution serves both the
    index and the sitemap fetch, the routed host is called directly,
    the body is encoded and hashed once, and features are built in a
    single construction instead of a ``replace`` chain.

    Returns the bare ``fqdn`` (a *touch marker*) instead of features
    when the observed state provably equals the latest stored state:
    same resolution triple, an OK fetch with the same HTTP status and
    body hash, and carried (already-fetched) sitemap fields — exactly
    the fields of ``SnapshotFeatures.state_key``, so ``record`` would
    have deduplicated the sample anyway.  The marker skips the features
    construction entirely; the store just extends the current state's
    observation window.

    In incremental mode (``ledger`` given) every touch marker also
    mints a :class:`TouchEntry` proof into the ledger so future sweeps
    can skip the name outright while its journal dependencies stay put;
    a touch that cannot be proven drops the name's old proof, which
    the journal has already shown stale.
    """
    monitor.samples_taken += 1
    if OBS.enabled:
        OBS.metrics.inc("monitor.samples")
    client = monitor.client
    resolution = client.resolver.resolve(fqdn, at=at)
    status = resolution.status
    dns_status = status.value
    cname_chain = tuple(resolution.cname_chain)
    addresses = tuple(resolution.addresses)
    if status is not ResolutionStatus.NOERROR or not resolution.records:
        base = dict(
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
        if status is ResolutionStatus.NXDOMAIN:
            return SnapshotFeatures(fetch_status=_NXDOMAIN_VALUE, **base)
        if status is ResolutionStatus.TIMEOUT:
            return SnapshotFeatures(fetch_status=_TIMEOUT_VALUE, **base)
        return SnapshotFeatures(fetch_status=_DNS_ERROR_VALUE, **base)
    host = client.network.host_at(addresses[0])
    if host is None or not hasattr(host, "serve"):
        return SnapshotFeatures(
            fetch_status=_CONNECTION_FAILED_VALUE,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
    # ``headers`` is shared, not copied: every in-tree handler treats
    # the request as read-only, and the request object never outlives
    # this call.
    response = host.serve(
        HttpRequest(host=fqdn, path="/", scheme="http", headers=headers)
    )
    http_status = response.status
    if http_status >= 500 or http_status == 429:
        return SnapshotFeatures(
            fetch_status=_HTTP_ERROR_VALUE,
            http_status=http_status,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
    body = response.body
    body_hash = _body_hash(body)
    previous = monitor.store.latest(fqdn)
    if (
        previous is not None
        and previous.html_hash == body_hash
        and previous.fetch_status == _OK_VALUE
        and previous.http_status == http_status
        and previous.dns_status == dns_status
        and previous.cname_chain == cname_chain
        and previous.addresses == addresses
        and previous.sitemap_count >= 0
    ):
        if ledger is not None:
            entry = _ledger_entry(client.resolver, fqdn, addresses[0], host, previous)
            if entry is not None:
                ledger.put(fqdn, entry)
            else:
                ledger.invalidate(fqdn)
        return fqdn
    if previous is not None and previous.html_hash == body_hash:
        features = replace(
            previous,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            fetch_status=_OK_VALUE,
            attempts=1,
            scheme="http",
        )
    else:
        cache = monitor.extraction_cache
        fields = cache.html.get(body_hash) if cache is not None else None
        if fields is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.html.hits")
        else:
            fields = monitor._extract_html_fields(body)
            if cache is not None:
                cache.misses += 1
                cache.html[body_hash] = fields
                if OBS.enabled:
                    OBS.metrics.inc("extraction.html.misses")
        features = SnapshotFeatures(
            fetch_status=_OK_VALUE,
            http_status=http_status,
            html_hash=body_hash,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            **fields,
        )
    if previous is None or previous.html_hash != features.html_hash or previous.sitemap_count < 0:
        # The sitemap rides the index resolution: nothing mutates the
        # world mid-sweep, so re-resolving would return the same route.
        # Like the generic path, any non-5xx/429 response body — a 404
        # page included — is recorded as the sitemap observation.
        monitor.sitemap_fetches += 1
        sitemap_response = host.serve(
            HttpRequest(
                host=fqdn, path="/sitemap.xml", scheme="http", headers=headers
            )
        )
        if not (sitemap_response.status >= 500 or sitemap_response.status == 429):
            size, count, sample = monitor.extract_sitemap_fields(sitemap_response.body)
            features = replace(
                features, sitemap_size=size, sitemap_count=count, sitemap_sample=sample
            )
    return features
