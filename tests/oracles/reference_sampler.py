"""The reference sampler: the seed pipeline's ``WeeklyMonitor.sample``.

Every sample goes through ``HttpClient.fetch`` (index, then sitemap,
each with its own resolution) and its features are built by a
``dataclasses.replace`` chain — no touch markers, no body-hash memo, no
direct transport.  Production samples with
:meth:`~repro.core.monitoring.WeeklyMonitor.sample`; the serial oracle
sweep samples with :func:`reference_sample`, and both must record the
same store histories.  Kept apart from production code so the
differential tests compare against an independent implementation; only
the pure body extraction is shared.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import datetime
from typing import Dict, Optional, Tuple

from repro.core.monitoring import SnapshotFeatures, WeeklyMonitor
from repro.dns.names import Name
from repro.obs import OBS
from repro.web.client import FetchOutcome, FetchStatus


def reference_sample(
    monitor: WeeklyMonitor, fqdn: Name, at: datetime
) -> SnapshotFeatures:
    """One weekly sample: index fetch, plus sitemap when warranted."""
    monitor.samples_taken += 1
    if OBS.enabled:
        OBS.metrics.inc("monitor.samples")
    headers = {"User-Agent": monitor.config.user_agent}
    outcome, scheme = _fetch_index(monitor, fqdn, at, headers)
    resolution = outcome.resolution
    features = SnapshotFeatures(
        fqdn=fqdn,
        at=at,
        dns_status=resolution.status.value if resolution else "ERROR",
        cname_chain=tuple(resolution.cname_chain) if resolution else (),
        addresses=tuple(resolution.addresses) if resolution else (),
        fetch_status=outcome.status.value,
        attempts=outcome.attempts,
        scheme=scheme,
    )
    if not outcome.ok:
        if outcome.response is not None:
            # 5xx/429: record the code so the error class survives
            # into the stored state even though no body is trusted.
            features = replace(features, http_status=outcome.response.status)
        return features
    body = outcome.response.body
    body_hash = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    previous = monitor.store.latest(fqdn)
    if previous is not None and previous.html_hash == body_hash:
        # Unchanged content: reuse the parsed features rather than
        # re-parsing (the stored state dedup makes this the common
        # case, as in a real pipeline's content-addressed store).
        features = replace(
            previous, at=at,
            dns_status=features.dns_status,
            cname_chain=features.cname_chain,
            addresses=features.addresses,
            fetch_status=features.fetch_status,
            attempts=features.attempts,
            scheme=features.scheme,
        )
    else:
        features = _with_html_features(
            monitor, features, outcome.response.status, body, body_hash
        )
    # Second (conditional) request: the sitemap, fetched only when
    # the page is up — the paper's "if we cannot establish an abuse
    # with confidence" follow-up, bounded to 2 requests per FQDN.
    if previous is None or previous.html_hash != features.html_hash or previous.sitemap_count < 0:
        features = _with_sitemap_features(monitor, features, fqdn, at, headers, scheme)
    else:
        features = replace(
            features,
            sitemap_size=previous.sitemap_size,
            sitemap_count=previous.sitemap_count,
            sitemap_sample=previous.sitemap_sample,
        )
    return features


def _fetch_index(
    monitor: WeeklyMonitor, fqdn: Name, at: datetime, headers: Dict[str, str]
) -> Tuple[FetchOutcome, str]:
    """The index fetch, with the ``prefer_https`` TLS fallback."""
    if monitor.config.prefer_https:
        outcome = monitor.client.fetch(
            fqdn, path="/", scheme="https", at=at, headers=headers,
            retry=monitor.config.retry,
        )
        if outcome.status != FetchStatus.TLS_ERROR:
            return outcome, "https"
    outcome = monitor.client.fetch(
        fqdn, path="/", scheme="http", at=at, headers=headers,
        retry=monitor.config.retry,
    )
    return outcome, "http"


def _with_html_features(
    monitor: WeeklyMonitor,
    features: SnapshotFeatures,
    status: int,
    body: str,
    body_hash: Optional[str] = None,
) -> SnapshotFeatures:
    if body_hash is None:
        body_hash = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    cache = monitor.extraction_cache
    if cache is not None:
        cached = cache.html.get(body_hash)
        if cached is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.html.hits")
            return replace(
                features, http_status=status, html_hash=body_hash, **cached
            )
        cache.misses += 1
        if OBS.enabled:
            OBS.metrics.inc("extraction.html.misses")
    fields = monitor._extract_html_fields(body)
    if cache is not None:
        cache.html[body_hash] = fields
    return replace(features, http_status=status, html_hash=body_hash, **fields)


def _with_sitemap_features(
    monitor: WeeklyMonitor,
    features: SnapshotFeatures,
    fqdn: Name,
    at: datetime,
    headers: Dict[str, str],
    scheme: str = "http",
) -> SnapshotFeatures:
    monitor.sitemap_fetches += 1
    outcome = monitor.client.fetch(
        fqdn, path="/sitemap.xml", scheme=scheme, at=at, headers=headers,
        retry=monitor.config.retry,
    )
    if not outcome.ok:
        return features
    size, count, sample = monitor.extract_sitemap_fields(outcome.response.body)
    return replace(
        features, sitemap_size=size, sitemap_count=count, sitemap_sample=sample
    )
