"""Shard-local sweep execution.

One *shard* is a contiguous slice of the monitored-FQDN list, sampled
start to finish by one worker.  :func:`run_shard` is pure with respect
to the snapshot store: samples come back as data in input order and the
executor records them into the parent store in shard order, which is
what makes a sharded sweep byte-identical to a serial one — the store,
the changed-pairs list and the quarantine list all see the exact same
sequence either way.

A lone shard (the one-worker default) runs inline in the parent.  With
several shards on a multi-CPU box, the supervisor runs each in a plain
``os.fork`` child (copy-on-write world, no spawn re-import cost) that
ships its :class:`ShardResult` back over a pipe as one length-prefixed
pickle.  Anything a forked worker *would* have mutated in the parent —
passive-DNS observations, monitor/client counters, fault statistics,
new extraction-cache entries — is captured as a delta in the result and
replayed by the parent, again in shard order.

When the world is healthy (no fault plan drawing, no breaker, no retry
budget, plain HTTP) a shard takes the *fused* sampling path: one
resolution per FQDN, the index served directly off the routed host, and
the sitemap fetched by reusing the index resolution instead of
re-resolving.  The fused path replicates ``WeeklyMonitor.sample``
semantics exactly — including recording non-5xx sitemap responses of
any status — so its features are byte-identical to the generic path's.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.monitoring import (
    ExtractionCache,
    SnapshotFeatures,
    TouchEntry,
    TouchLedger,
    TRANSIENT_SAMPLE_STATUSES,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS, MetricsRegistry, peak_rss_kb
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
    data — they survive pickling across worker pipes, unlike the old
    identity memo whose child-created entries died with the fork.
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
    resolution would have produced — replayed by value, which works
    identically against the parent feed (inline) and the forked-mode
    recorder — plus the sample counter.
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


@dataclass
class ShardResult:
    """Everything one shard's sweep produced, as replayable data.

    Counter fields are *deltas* against the worker's pre-sweep state,
    so the parent can apply them whether the shard ran forked (parent
    state untouched) or inline (parent state already mutated — deltas
    then only feed the report, never re-applied).
    """

    index: int
    size: int
    #: Store-eligible samples in input order (transient finals
    #: excluded).  An entry is either a full :class:`SnapshotFeatures`
    #: or a bare FQDN — a *touch marker* meaning the observed state
    #: provably equals the latest stored one, so the parent just bumps
    #: that state's observation window (``SnapshotStore.touch``) the
    #: way ``record`` would have deduplicated the full sample.
    sampled: List[Union[SnapshotFeatures, Name]] = field(default_factory=list)
    #: Retry-exhausted (fqdn, fetch_status) pairs, in input order.
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    samples_taken: int = 0
    sitemap_fetches: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    breaker_trips: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    #: Passive-DNS (record, at) replay log — populated in forked mode
    #: only; inline shards observe the parent feed directly.
    observations: List[Tuple[object, datetime]] = field(default_factory=list)
    #: Extraction-cache entries this shard added (forked mode only).
    new_html: Dict[str, Dict[str, object]] = field(default_factory=dict)
    new_sitemap: Dict[str, Tuple[int, int, Tuple[str, ...]]] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Fresh :class:`TouchEntry` proofs minted by this shard's touch
    #: markers (incremental mode only).  Plain data, so they survive
    #: the pickle pipe; the parent installs them into the monitor's
    #: ledger in shard order — the old identity memo lost every entry
    #: a forked child created.
    ledger_entries: Dict[Name, TouchEntry] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: CPU seconds this shard's process burned sampling it
    #: (``time.process_time``; wall-class: feeds the resource
    #: accounting, excluded from determinism diffs).
    cpu_seconds: float = 0.0
    #: Peak RSS of the worker process in KiB (forked mode: the child's
    #: own peak; inline: the parent's, so only max-merged, never summed).
    peak_rss_kb: int = 0
    fused: bool = False
    #: Shard-local observability, shipped home in forked mode only:
    #: the child's :class:`MetricsRegistry` (merged associatively by
    #: the parent) and its buffered trace events (replayed in shard
    #: order).  ``None``/empty while observability is off or inline.
    metrics: Optional[MetricsRegistry] = None
    trace_events: List[dict] = field(default_factory=list)


class _RecordingPassiveDNS:
    """Proxy feed that logs every observation while forwarding it."""

    def __init__(self, inner):
        self._inner = inner
        self.log: List[Tuple[object, datetime]] = []

    def observe(self, record, at):
        self.log.append((record, at))
        return self._inner.observe(record, at)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def partition(items: Sequence, shards: int) -> List[List]:
    """Split ``items`` into at most ``shards`` contiguous, balanced slices.

    Earlier slices take the remainder, sizes differ by at most one, and
    concatenating the slices reproduces the input order — the property
    the deterministic shard-order merge relies on.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    items = list(items)
    count = min(shards, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    slices: List[List] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        slices.append(items[start:start + size])
        start += size
    return slices


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


def run_shard(
    monitor: WeeklyMonitor,
    index: int,
    fqdns: Sequence[Name],
    at: datetime,
    cache: Optional[ExtractionCache],
    forked: bool,
) -> ShardResult:
    """Sample one shard and return its results as data.

    Never records into the snapshot store.  In ``forked`` mode the
    passive-DNS feed is interposed so observations can be replayed by
    the parent, and new extraction-cache entries are collected for
    shipping; inline mode mutates the parent's feed/cache directly.
    """
    client = monitor.client
    resolver = client.resolver
    plan = client.fault_plan
    started = time.perf_counter()
    cpu0 = time.process_time()
    samples0 = monitor.samples_taken
    sitemap0 = monitor.sitemap_fetches
    retries0 = client.retries_total
    backoff0 = client.backoff_seconds_total
    trips0 = client.breaker.trips if client.breaker is not None else 0
    injected0 = dict(plan.stats.injected) if plan is not None else {}
    previous_cache = monitor.extraction_cache
    monitor.extraction_cache = cache
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    html_keys0 = set(cache.html) if (forked and cache is not None) else set()
    sitemap_keys0 = set(cache.sitemap) if (forked and cache is not None) else set()
    recorder = None
    if forked and resolver.passive_dns is not None:
        recorder = _RecordingPassiveDNS(resolver.passive_dns)
        resolver.passive_dns = recorder
    obs_parent = None
    if forked and OBS.enabled:
        # The child's counters and spans die with it, like every other
        # mutation: swap in a fresh registry and a buffer tracer for
        # the shard's duration and ship both home in the result.
        obs_parent = (OBS.metrics, OBS.tracer)
        OBS.metrics = MetricsRegistry()
        OBS.tracer = OBS.tracer.fork_buffer()

    result = ShardResult(index=index, size=len(fqdns))
    try:
        fused = fast_path_eligible(monitor)
        result.fused = fused
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc(
                "sweep.shards.fused" if fused else "sweep.shards.generic"
            )
        ledger: Optional[TouchLedger] = None
        changed = None
        ledger_out: Optional[Dict[Name, TouchEntry]] = None
        if fused:
            # Part of the fast path: version-validated resolution
            # memoization.  Forked workers enable it on their own copy;
            # inline mode enables it process-wide, which is safe —
            # every hit is revalidated against the zone versions and
            # replays identical passive-DNS observations.
            resolver.enable_memo()
            if monitor.incremental and monitor.journal is not None:
                # The sweep's dirty set: every journal subject that
                # moved since the ledger's cursor.  The world is
                # quiescent during a sweep, so the set is identical in
                # every shard — and empty in the steady state, making
                # the per-name check one dict get plus a guard.
                ledger = monitor.touch_ledger
                changed = monitor.journal.changed_since(ledger.cursor)
                ledger_out = result.ledger_entries
        headers = {"User-Agent": monitor.config.user_agent}
        # ``seq=index`` pins the span's path id to the shard index, so
        # the id is identical whether the shard ran forked, inline or
        # serially re-dispatched — worker topology never shows in ids.
        with OBS.tracer.span(
            "sweep.shard", sim=at, seq=index, shard=index, size=len(fqdns),
            mode="fused" if fused else "generic",
        ):
            for fqdn in fqdns:
                if fused:
                    if ledger is not None and _touch_clean(
                        monitor, resolver, ledger, changed, fqdn, at
                    ):
                        if obs_on:
                            OBS.metrics.inc("monitor.samples")
                            OBS.metrics.inc("journal.clean_skips")
                        result.sampled.append(fqdn)
                        continue
                    features = _sample_fused(monitor, fqdn, at, headers, ledger_out)
                    if not isinstance(features, SnapshotFeatures):
                        # Touch marker: the state is unchanged, ship the
                        # name alone and let the parent bump the window.
                        if obs_on:
                            OBS.metrics.inc("sweep.sample.touch")
                        result.sampled.append(features)
                        continue
                    if obs_on:
                        OBS.metrics.inc("sweep.sample.full")
                else:
                    features = monitor.sample(fqdn, at)
                    if obs_on:
                        OBS.metrics.inc("sweep.sample.generic")
                if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                    result.failures.append((fqdn, features.fetch_status))
                else:
                    result.sampled.append(features)
    finally:
        monitor.extraction_cache = previous_cache
        if recorder is not None:
            resolver.passive_dns = recorder._inner
        if obs_parent is not None:
            result.metrics = OBS.metrics
            result.trace_events = getattr(OBS.tracer, "events", [])
            OBS.metrics, OBS.tracer = obs_parent

    result.samples_taken = monitor.samples_taken - samples0
    result.sitemap_fetches = monitor.sitemap_fetches - sitemap0
    result.retries = client.retries_total - retries0
    result.backoff_seconds = client.backoff_seconds_total - backoff0
    if client.breaker is not None:
        result.breaker_trips = client.breaker.trips - trips0
    if plan is not None:
        for kind, count in plan.stats.injected.items():
            delta = count - injected0.get(kind, 0)
            if delta:
                result.injected[kind] = delta
    if recorder is not None:
        result.observations = recorder.log
    if cache is not None:
        result.cache_hits = cache.hits - hits0
        result.cache_misses = cache.misses - misses0
        if forked:
            result.new_html = {
                key: cache.html[key] for key in cache.html.keys() - html_keys0
            }
            result.new_sitemap = {
                key: cache.sitemap[key] for key in cache.sitemap.keys() - sitemap_keys0
            }
    result.wall_seconds = time.perf_counter() - started
    result.cpu_seconds = time.process_time() - cpu0
    result.peak_rss_kb = peak_rss_kb()
    return result


def _sample_fused(
    monitor: WeeklyMonitor,
    fqdn: Name,
    at: datetime,
    headers: Dict[str, str],
    ledger_out: Optional[Dict[Name, TouchEntry]] = None,
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

    In incremental mode (``ledger_out`` given) every touch marker also
    mints a :class:`TouchEntry` proof into ``ledger_out`` so future
    sweeps can skip the name outright while its journal dependencies
    stay put.
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
        if ledger_out is not None:
            entry = _ledger_entry(client.resolver, fqdn, addresses[0], host, previous)
            if entry is not None:
                ledger_out[fqdn] = entry
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


# -- fork plumbing ---------------------------------------------------------


def fork_available() -> bool:
    return hasattr(os, "fork")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, length: int) -> bytes:
    chunks: List[bytes] = []
    remaining = length
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            raise RuntimeError("shard worker closed its pipe before reporting")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def shard_bounds(shards: Sequence[Sequence[Name]]) -> List[Tuple[int, int]]:
    """Each shard's ``[start, end)`` slice of the full monitored list.

    Shards are contiguous (:func:`partition`), so the bounds are just
    running offsets — the identity operators need to act on a worker
    error ("which FQDN range died?") without replaying the partition.
    """
    bounds: List[Tuple[int, int]] = []
    offset = 0
    for shard in shards:
        bounds.append((offset, offset + len(shard)))
        offset += len(shard)
    return bounds


def shard_ident(index: int, bounds: Tuple[int, int]) -> str:
    """Human-actionable shard identity for worker error messages."""
    start, end = bounds
    return f"shard {index} (names[{start}:{end}], {end - start} FQDNs)"


def fork_with_pipe() -> Tuple[int, int, int]:
    """Fork with a result pipe, leaking nothing on failure.

    Returns ``(pid, read_fd, write_fd)``.  If ``os.fork`` raises —
    EAGAIN under pid pressure, ENOMEM — both pipe ends are closed
    before the exception propagates, so a failed spawn can't bleed
    file descriptors across a long campaign.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    return pid, read_fd, write_fd
