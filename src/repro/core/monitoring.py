"""Weekly monitoring: sampling and snapshot storage (Section 3.2).

For each monitored FQDN the monitor takes a weekly sample: resolve,
fetch the index HTML over HTTP/S, and — only when needed to judge a
change, per the paper's two-requests-per-FQDN ethics bound — fetch the
sitemap.  Samples are reduced to :class:`SnapshotFeatures` (hashes,
sizes, language, keywords, external references) and deduplicated into
content *states*: a new snapshot is stored only when something
observable changed, which is both how a real pipeline controls volume
and what change detection consumes.

:meth:`WeeklyMonitor.sample` is the one sampler, in every world.  A
sample whose state provably equals the latest stored one comes back as
a *touch marker* (the bare FQDN) that the sweep turns into
:meth:`SnapshotStore.touch`; anything else is one
:class:`SnapshotFeatures` construction.  Only the transport branches:
on a quiescent world (:func:`fast_path_eligible`) one resolution serves
the index and the sitemap straight off the routed host, and under any
live fault, breaker, retry budget or ``prefer_https`` both requests go
through :meth:`HttpClient.fetch` so every resilience seam draws as it
always has.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.keywords import extract_keywords
from repro.core.sigindex import (
    DEFAULT_POSTING_CAP,
    PostingIndex,
    signature_anchor,
    state_tokens,
)
from repro.dns.names import Name
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.faults.retry import RetryPolicy
from repro.obs import OBS
from repro.sim.revisions import JournalCache, Subject
from repro.web.client import FetchOutcome, FetchStatus, HttpClient
from repro.web.html import parse_html
from repro.web.http import HttpRequest
from repro.web.sitemap import summarize_sitemap

#: Monitor requests carry a crawler-like UA: the paper fetched pages the
#: way search spiders do, which is also why cloaked content (served to
#: crawlers) is visible to the pipeline.
MONITOR_USER_AGENT = "repro-monitor/1.0 (research crawler)"

#: Final fetch statuses the sweep treats as transient measurement
#: failures — the FQDN's state this week is *unknown*, not dangling, so
#: the pipeline quarantines the sample instead of trusting it.
TRANSIENT_SAMPLE_STATUSES = frozenset(
    {
        FetchStatus.TIMEOUT.value,
        FetchStatus.HTTP_ERROR.value,
        FetchStatus.CONNECTION_RESET.value,
        FetchStatus.CIRCUIT_OPEN.value,
    }
)


@dataclass
class MonitorConfig:
    """Knobs for the weekly sampler."""

    user_agent: str = MONITOR_USER_AGENT
    #: Cap on stored external URLs per snapshot (abuse pages embed few).
    external_url_cap: int = 64
    #: Cap on stored sitemap sample URLs.
    sitemap_sample_cap: int = 10
    #: Try HTTPS first, falling back to HTTP when the TLS handshake
    #: fails (no/invalid certificate).  The scheme actually used is
    #: recorded on the snapshot.  The fallback pair counts as one
    #: logical index probe against the ethics bound.
    prefer_https: bool = False
    #: Retry budget for the monitor's own fetches (index + sitemap).
    #: The default (one attempt, no retries) is the pre-resilience
    #: behaviour; chaos runs raise it to ride out transient faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy.none)


@dataclass(frozen=True)
class SnapshotFeatures:
    """Everything one weekly sample records about one FQDN."""

    fqdn: Name
    at: datetime
    dns_status: str
    cname_chain: Tuple[str, ...]
    addresses: Tuple[str, ...]
    fetch_status: str
    http_status: int = 0
    html_hash: str = ""
    html_size: int = 0
    title: str = ""
    lang: str = ""
    generator: str = ""
    keywords: FrozenSet[str] = frozenset()
    meta_keywords: Tuple[str, ...] = ()
    external_urls: Tuple[str, ...] = ()
    script_srcs: Tuple[str, ...] = ()
    #: Relative links pointing at downloadable executables (Section 5.4).
    download_paths: Tuple[str, ...] = ()
    onclick_count: int = 0
    has_meta_keywords: bool = False
    sitemap_size: int = -1  # -1: not fetched / unavailable
    sitemap_count: int = -1
    sitemap_sample: Tuple[str, ...] = ()
    #: Fetch attempts the index sample took (1 = first try; excluded
    #: from :meth:`state_key` so retries never fabricate new states).
    attempts: int = 1
    #: Scheme the index fetch actually used ("http"/"https").  Like
    #: ``attempts`` this describes *how* the sample was taken, not what
    #: was observed, so it is excluded from :meth:`state_key`.
    scheme: str = "http"

    @property
    def reachable(self) -> bool:
        """Whether the index fetch returned a 2xx page."""
        return self.fetch_status == FetchStatus.OK.value and 200 <= self.http_status < 300

    def state_key(self) -> Tuple:
        """The identity of this observable state (dedup key).

        Timestamps are excluded; sitemap values are included so a
        sitemap-only change still registers as a new state.
        """
        return (
            self.dns_status, self.cname_chain, self.addresses,
            self.fetch_status, self.http_status, self.html_hash,
            self.sitemap_size, self.sitemap_count,
        )


@dataclass
class StoredState:
    """One deduplicated content state and its observation window."""

    features: SnapshotFeatures
    first_seen: datetime
    last_seen: datetime
    observations: int = 1


class SnapshotStore:
    """Per-FQDN history of deduplicated states.

    Alongside the histories the store keeps a :class:`PostingIndex` —
    token → FQDN postings over every token any stored state ever
    carried — plus per-FQDN sitemap maxima, both maintained
    incrementally on state writes.  They answer one question for the
    detector's retrospective rescans: *which FQDNs could a new
    signature possibly match?* (see :meth:`rescan_candidates`).
    """

    def __init__(self, posting_cap: int = DEFAULT_POSTING_CAP) -> None:
        self._history: Dict[Name, List[StoredState]] = {}
        self.postings = PostingIndex(cap=posting_cap)
        #: fqdn -> (max sitemap_count, max sitemap_size) over history.
        self._sitemap_maxima: Dict[Name, Tuple[int, int]] = {}

    def record(self, features: SnapshotFeatures) -> Tuple[bool, Optional[SnapshotFeatures]]:
        """Store a sample; returns ``(is_new_state, previous_features)``.

        ``previous_features`` is the state that was current before this
        sample (``None`` on first sight).
        """
        history = self._history.setdefault(features.fqdn, [])
        if history and history[-1].features.state_key() == features.state_key():
            current = history[-1]
            current.last_seen = features.at
            current.observations += 1
            return False, history[-2].features if len(history) > 1 else None
        previous = history[-1].features if history else None
        history.append(
            StoredState(features=features, first_seen=features.at, last_seen=features.at)
        )
        self.postings.add(features.fqdn, state_tokens(features))
        max_count, max_size = self._sitemap_maxima.get(features.fqdn, (-1, -1))
        self._sitemap_maxima[features.fqdn] = (
            max(max_count, features.sitemap_count),
            max(max_size, features.sitemap_size),
        )
        return True, previous

    def rescan_candidates(self, signature) -> Optional[frozenset]:
        """FQDNs whose history could contain a match for ``signature``.

        Sound over-approximation: a signature requires every component
        group it carries, so an FQDN none of whose states ever held an
        anchor token cannot match and is safely skipped.  ``None``
        means the index cannot prune (no token anchor and no sitemap
        threshold, or an anchor token's postings were evicted) and the
        caller must scan everything.
        """
        kind, anchor = signature_anchor(signature)
        if kind == "sitemap":
            return frozenset(
                fqdn
                for fqdn, (max_count, max_size) in self._sitemap_maxima.items()
                if (not signature.sitemap_min_count
                    or max_count >= signature.sitemap_min_count)
                and (not signature.sitemap_min_bytes
                     or max_size >= signature.sitemap_min_bytes)
            )
        if kind == "scan":
            return None
        candidates = self.postings.candidate_fqdns(anchor)
        return frozenset(candidates) if candidates is not None else None

    def touch(self, fqdn: Name, at: datetime) -> None:
        """Re-observe ``fqdn``'s current state at ``at`` without a sample.

        Equivalent to :meth:`record` with features whose ``state_key``
        matches the latest stored state — the common steady-state case
        — minus the cost of building the features object.  The caller
        must have verified the observed state is unchanged.
        """
        history = self._history[fqdn]
        current = history[-1]
        current.last_seen = at
        current.observations += 1

    def history(self, fqdn: Name) -> List[StoredState]:
        return list(self._history.get(fqdn, []))

    def latest(self, fqdn: Name) -> Optional[SnapshotFeatures]:
        history = self._history.get(fqdn)
        return history[-1].features if history else None

    def fqdns(self) -> List[Name]:
        return sorted(self._history)

    def state_count(self) -> int:
        """Total stored states across all FQDNs."""
        return sum(len(h) for h in self._history.values())


@dataclass
class ExtractionCache:
    """Content-addressed memo of pure feature extraction.

    Parsing and keyword extraction are pure functions of the body, and
    week over week almost every body is one the pipeline has already
    seen — so extracted features can be reused by body hash.  ``html``
    maps an index-body hash to the :class:`SnapshotFeatures` field dict
    the body extracts to; ``sitemap`` maps a sitemap-body hash to its
    ``(size, count, sample)`` triple.  Entirely behaviour-transparent:
    a cached entry is byte-identical to re-extraction.  A bare
    ``WeeklyMonitor`` is built without one; the sweep executor owns one
    per run and lends it to the monitor for each sweep.
    """

    html: Dict[str, Dict[str, object]] = field(default_factory=dict)
    sitemap: Dict[str, Tuple[int, int, Tuple[str, ...]]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class TouchEntry:
    """Proof that a name's last full sample is still current.

    A monitor's touch ledger is a
    :class:`~repro.sim.revisions.JournalCache` of these, keyed by FQDN
    and filed under the revision-journal subjects the sample's outcome
    depends on — the DNS subjects its resolution walked (see
    ``Resolver._walk``), the edge route and network
    binding it was served through, and the site whose content it
    hashed.  While the entry lives, none of those subjects has moved,
    so the name's observable state provably equals ``state_key`` and a
    sweep may extend its observation window without re-sampling.

    ``observed`` replays the passive-DNS observations the skipped
    resolution would have produced, keeping exports byte-identical.
    Entries are plain data (no live world references), so they survive
    checkpoint pickling and resumes.
    """

    fqdn: Name
    state_key: Tuple
    observed: Tuple = ()


#: Enum ``.value`` reads hoisted out of the per-name sampler — each is a
#: descriptor call per access, and a sample needs several.
_OK = FetchStatus.OK.value
_DNS_ERROR = FetchStatus.DNS_ERROR.value
_CONNECTION_FAILED = FetchStatus.CONNECTION_FAILED.value
_HTTP_ERROR = FetchStatus.HTTP_ERROR.value
#: Fetch status of a resolution that yields no address (DNS_ERROR
#: otherwise), as ``HttpClient.fetch`` reports it.
_DNS_FAILURES = {
    ResolutionStatus.NXDOMAIN: FetchStatus.DNS_NXDOMAIN.value,
    ResolutionStatus.TIMEOUT: FetchStatus.TIMEOUT.value,
}

#: The :class:`SnapshotFeatures` fields extracted from the index body:
#: an unchanged body carries them over from the latest stored state.
_HTML_FIELDS = (
    "html_size", "title", "lang", "generator", "keywords", "meta_keywords",
    "external_urls", "script_srcs", "download_paths", "onclick_count",
    "has_meta_keywords",
)

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


def _touch_proof(
    resolver: Resolver, fqdn: Name, ip: str, host, previous: SnapshotFeatures
) -> Optional[Tuple[TouchEntry, Tuple[Subject, ...]]]:
    """The :class:`TouchEntry` proving a direct touch outcome, with its deps.

    The deps are every revision-journal subject the sample's outcome
    depends on: those of the resolver memo entry the sample just used,
    the edge route and network binding the response came through, and
    the journal-adopted site whose content was hashed.  While none of
    those subjects move, the observable state provably equals
    ``previous.state_key()``.
    """
    site_for = getattr(host, "site_for", None)
    if site_for is None:
        return None
    site_key = getattr(site_for(fqdn), "journal_key", None)
    if site_key is None:
        # Unadopted content (no provider bound it to the journal) has
        # no change signal; it must keep taking the full sample.
        return None
    resolution = resolver.memo_entry(fqdn, RRType.A)
    if resolution is None:
        return None
    deps = resolution.deps + (
        ("web", fqdn.lower()), ("net", ip), ("site", site_key)
    )
    observed = tuple(
        record for group in resolution.observed for record in group
    )
    return TouchEntry(fqdn, previous.state_key(), observed), deps


def fast_path_eligible(monitor: "WeeklyMonitor") -> bool:
    """Whether samples may take the direct transport.

    The direct transport skips the client's fault/breaker/retry/TLS
    machinery, so it is only taken when none of that machinery can
    fire: no active fault classes, no breaker, single-attempt retry
    policy, plain HTTP.
    """
    client = monitor.client
    plan = client.fault_plan
    return (
        not monitor.config.prefer_https
        and client.breaker is None
        and monitor.config.retry.max_attempts == 1
        and (plan is None or not plan.config.any_active)
    )


class WeeklyMonitor:
    """Takes the weekly samples and feeds the store."""

    def __init__(
        self,
        client: HttpClient,
        store: Optional[SnapshotStore] = None,
        config: Optional[MonitorConfig] = None,
        extraction_cache: Optional[ExtractionCache] = None,
        journal=None,
    ):
        self._client = client
        self.store = store if store is not None else SnapshotStore()
        self.config = config or MonitorConfig()
        #: Optional content-addressed extraction memo (None = always
        #: re-extract).
        self.extraction_cache = extraction_cache
        #: The world's :class:`repro.sim.revisions.RevisionJournal`.
        #: With one wired, sweeps extend clean names' windows from the
        #: touch ledger — a journal-evicted cache of
        #: :class:`TouchEntry` proofs — instead of re-sampling them;
        #: without one every name is sampled.
        self.journal = journal
        self.touch_ledger = (
            JournalCache(journal, "journal.dirty") if journal is not None else None
        )
        self.samples_taken = 0
        self.sitemap_fetches = 0

    @property
    def client(self) -> HttpClient:
        """The HTTP client the monitor samples through."""
        return self._client

    def sample(
        self,
        fqdn: Name,
        at: datetime,
        direct: Optional[bool] = None,
        ledger: Optional[JournalCache] = None,
    ) -> Union[SnapshotFeatures, Name]:
        """One weekly sample: index fetch, plus sitemap when warranted.

        Returns the bare ``fqdn`` (a *touch marker*) instead of features
        when the observed state provably equals the latest stored state:
        same resolution triple, an OK fetch with the same HTTP status
        and body hash, and carried (already-fetched) sitemap fields —
        exactly the fields of ``SnapshotFeatures.state_key``, so
        ``SnapshotStore.record`` would deduplicate the sample anyway.
        The caller extends the stored state's window with
        :meth:`SnapshotStore.touch`.  Otherwise the features are built
        in one construction.

        ``direct`` picks the transport (default:
        :func:`fast_path_eligible`).  The direct transport resolves
        once and serves the index and the sitemap straight off the
        routed host — only valid while the fault, breaker, retry and
        TLS seams are quiescent.  Otherwise both requests go through
        ``HttpClient.fetch``, each with its own resolution, so every
        seam draws exactly as a plain client fetch does.

        With a ``ledger`` (a journal-driven sweep) a direct touch marker
        mints a :class:`TouchEntry` proof so future sweeps can skip the
        name until the journal evicts it; any other touch drops the
        name's old proof.
        """
        self.samples_taken += 1
        if OBS.enabled:
            OBS.metrics.inc("monitor.samples")
        if direct is None:
            direct = fast_path_eligible(self)
        headers = {"User-Agent": self.config.user_agent}
        if direct:
            resolution = self._client.resolver.resolve(fqdn, at=at)
            addresses = tuple(resolution.addresses)
            fetch_status, response, host = self._serve_index(
                fqdn, resolution, addresses, headers
            )
            attempts, scheme = 1, "http"
        else:
            outcome, scheme = self._fetch_index(fqdn, at, headers)
            resolution = outcome.resolution
            addresses = tuple(resolution.addresses)
            fetch_status, response, host = outcome.status.value, outcome.response, None
            attempts = outcome.attempts
        dns_status = resolution.status.value
        cname_chain = tuple(resolution.cname_chain)
        if fetch_status != _OK:
            # A 5xx/429 keeps its code so the error class survives into
            # the stored state even though no body is trusted.
            return SnapshotFeatures(
                fqdn=fqdn,
                at=at,
                dns_status=dns_status,
                cname_chain=cname_chain,
                addresses=addresses,
                fetch_status=fetch_status,
                http_status=response.status if response is not None else 0,
                attempts=attempts,
                scheme=scheme,
            )
        http_status = response.status
        body = response.body
        body_hash = _body_hash(body)
        previous = self.store.latest(fqdn)
        if previous is not None and previous.html_hash == body_hash:
            if (
                previous.fetch_status == _OK
                and previous.http_status == http_status
                and previous.dns_status == dns_status
                and previous.cname_chain == cname_chain
                and previous.addresses == addresses
                and previous.sitemap_count >= 0
            ):
                if ledger is not None:
                    proof = (
                        _touch_proof(
                            self._client.resolver, fqdn, addresses[0], host,
                            previous,
                        )
                        if direct
                        else None
                    )
                    if proof is not None:
                        ledger.put(fqdn, *proof)
                    else:
                        ledger.discard(fqdn)
                return fqdn
            # Unchanged content: carry the stored extraction (and the
            # status it was fetched with) rather than re-parsing.
            http_status = previous.http_status
            html = {name: getattr(previous, name) for name in _HTML_FIELDS}
        else:
            html = self._html_fields(body, body_hash)
        if previous is None or previous.html_hash != body_hash or previous.sitemap_count < 0:
            # Second (conditional) request: the sitemap, fetched only
            # when the page is up and new — the paper's "if we cannot
            # establish an abuse with confidence" follow-up, bounded to
            # two requests per FQDN.
            sitemap = self._sample_sitemap(fqdn, at, headers, scheme, host)
        else:
            sitemap = (
                previous.sitemap_size, previous.sitemap_count,
                previous.sitemap_sample,
            )
        return SnapshotFeatures(
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            fetch_status=_OK,
            http_status=http_status,
            html_hash=body_hash,
            sitemap_size=sitemap[0],
            sitemap_count=sitemap[1],
            sitemap_sample=sitemap[2],
            attempts=attempts,
            scheme=scheme,
            **html,
        )

    def extend_if_clean(self, fqdn: Name, at: datetime) -> bool:
        """Extend a clean name's window from its touch-ledger proof.

        True means the name is provably unchanged: it holds a ledger
        entry (the journal has not evicted it) and the stored state the
        entry extends is still current.  The only side effects are the
        passive-DNS observations the skipped resolution would have
        produced, replayed by value, plus the sample counter; the
        caller extends the stored state's window.
        """
        entry = self.touch_ledger.get(fqdn)
        if entry is None:
            return False
        latest = self.store.latest(fqdn)
        if latest is None or latest.state_key() != entry.state_key:
            return False
        feed = self._client.resolver.passive_dns
        if feed is not None:
            for record in entry.observed:
                feed.observe(record, at)
        self.samples_taken += 1
        return True

    # -- transports ------------------------------------------------------------------

    def _fetch_index(
        self, fqdn: Name, at: datetime, headers: Dict[str, str]
    ) -> Tuple[FetchOutcome, str]:
        """The index fetch through the client, with scheme selection.

        With ``prefer_https`` the HTTPS attempt comes first; a TLS
        failure (no or invalid certificate) falls back to plain HTTP —
        any other HTTPS outcome, success or failure, is authoritative.
        The fallback pair counts as one logical index probe.  Returns
        the outcome and the scheme it was fetched over.
        """
        if self.config.prefer_https:
            outcome = self._client.fetch(
                fqdn, path="/", scheme="https", at=at, headers=headers,
                retry=self.config.retry,
            )
            if outcome.status != FetchStatus.TLS_ERROR:
                return outcome, "https"
        outcome = self._client.fetch(
            fqdn, path="/", scheme="http", at=at, headers=headers,
            retry=self.config.retry,
        )
        return outcome, "http"

    def _serve_index(self, fqdn: Name, resolution, addresses, headers):
        """The direct index fetch over an already-taken resolution.

        ``HttpClient.fetch`` with its fault, breaker, retry and TLS
        seams elided (quiescent by :func:`fast_path_eligible`).
        Returns ``(fetch_status, response, host)``: ``response`` is set
        for OK and HTTP-error answers, ``host`` when the address routed
        to a web host.
        """
        status = resolution.status
        if status is not ResolutionStatus.NOERROR or not resolution.records:
            return _DNS_FAILURES.get(status, _DNS_ERROR), None, None
        host = self._client.network.host_at(addresses[0])
        if host is None or not hasattr(host, "serve"):
            return _CONNECTION_FAILED, None, None
        # ``headers`` is shared, not copied: every in-tree handler
        # treats the request as read-only.
        response = host.serve(
            HttpRequest(host=fqdn, path="/", scheme="http", headers=headers)
        )
        if response.status >= 500 or response.status == 429:
            return _HTTP_ERROR, response, host
        return _OK, response, host

    def _sample_sitemap(
        self, fqdn: Name, at: datetime, headers: Dict[str, str], scheme: str, host
    ) -> Tuple[int, int, Tuple[str, ...]]:
        """``(size, count, sample)`` of the sitemap, ``(-1, -1, ())`` on failure.

        With a ``host`` (the direct transport) the sitemap rides the
        index resolution: nothing mutates the world mid-sweep, so
        re-resolving would return the same route.  Any non-5xx/429
        response body — a 404 page included — is the observation.
        """
        self.sitemap_fetches += 1
        if host is not None:
            response = host.serve(
                HttpRequest(
                    host=fqdn, path="/sitemap.xml", scheme="http", headers=headers
                )
            )
            if response.status >= 500 or response.status == 429:
                return -1, -1, ()
        else:
            outcome = self._client.fetch(
                fqdn, path="/sitemap.xml", scheme=scheme, at=at, headers=headers,
                retry=self.config.retry,
            )
            if not outcome.ok:
                return -1, -1, ()
            response = outcome.response
        return self.extract_sitemap_fields(response.body)

    # -- feature extraction ----------------------------------------------------------

    def _html_fields(self, body: str, body_hash: str) -> Dict[str, object]:
        """The index body's feature fields, via the extraction cache."""
        cache = self.extraction_cache
        if cache is None:
            return self._extract_html_fields(body)
        fields = cache.html.get(body_hash)
        if fields is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.html.hits")
            return fields
        cache.misses += 1
        if OBS.enabled:
            OBS.metrics.inc("extraction.html.misses")
        fields = self._extract_html_fields(body)
        cache.html[body_hash] = fields
        return fields

    def _extract_html_fields(self, body: str) -> Dict[str, object]:
        """Pure extraction of one index body's feature fields."""
        document = parse_html(body)
        external = [u for u in document.all_urls() if u.startswith(("http://", "https://"))]
        downloads = tuple(
            link.href
            for link in document.links
            if link.href.startswith("/")
            and link.href.lower().endswith((".apk", ".exe", ".msi", ".dmg"))
        )
        return dict(
            html_size=len(body.encode("utf-8")),
            title=document.title,
            lang=document.lang,
            generator=document.generator,
            keywords=extract_keywords(document),
            meta_keywords=tuple(document.meta_keywords),
            external_urls=tuple(external[: self.config.external_url_cap]),
            script_srcs=tuple(s.src for s in document.scripts if s.src),
            download_paths=downloads,
            onclick_count=sum(1 for link in document.links if link.onclick),
            has_meta_keywords="keywords" in document.meta,
        )

    def extract_sitemap_fields(self, body: str) -> Tuple[int, int, Tuple[str, ...]]:
        """``(size, count, sample)`` of one sitemap body, via the cache."""
        cache = self.extraction_cache
        if cache is None:
            return self._extract_sitemap_fields(body)
        key = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        cached = cache.sitemap.get(key)
        if cached is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.sitemap.hits")
            return cached
        cache.misses += 1
        if OBS.enabled:
            OBS.metrics.inc("extraction.sitemap.misses")
        fields = self._extract_sitemap_fields(body)
        cache.sitemap[key] = fields
        return fields

    def _extract_sitemap_fields(self, body: str) -> Tuple[int, int, Tuple[str, ...]]:
        count, sample = summarize_sitemap(body, self.config.sitemap_sample_cap)
        return len(body.encode("utf-8")), count, sample
