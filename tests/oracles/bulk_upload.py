"""The seed attacker's bulk upload: the reference the factory must reproduce.

:func:`reference_random_page_name` and :func:`reference_abuse_sitemap`
are the seed's ``AbuseContentFactory.random_page_name`` and
``abuse_sitemap`` verbatim, written over a bare ``random.Random``: three
keyword draws filtered to ASCII, then a ``randrange(10_000)`` per page
name, and one ``Sitemap.add`` (one ``strftime``) per sitemap entry.
Production draws from per-topic slug pools and formats ``lastmod`` once
per sitemap; it must return the same names and XML and leave the
generator in the same state.
"""

from __future__ import annotations

import random
from datetime import datetime
from typing import Optional, Sequence

from repro.attacker.content import _TOPIC_POOLS
from repro.content.vocab import Topic
from repro.web.sitemap import Sitemap


def reference_random_page_name(rng: random.Random, topic: Topic) -> str:
    pool = _TOPIC_POOLS[topic]
    sampled = [rng.choice(pool) for _ in range(3)]
    words = [w for w in sampled if w.isascii()] or ["page"]
    slug = "-".join(w.replace(" ", "-") for w in words)
    return f"/{slug}-{rng.randrange(10_000)}.html"


def reference_abuse_sitemap(
    rng: random.Random,
    fqdn: str,
    page_paths: Sequence[str],
    total_page_count: int,
    at: Optional[datetime] = None,
    topic: Topic = Topic.GAMBLING,
) -> Sitemap:
    sitemap = Sitemap()
    for path in page_paths:
        sitemap.add(f"http://{fqdn}{path}", lastmod=at)
    for _ in range(max(0, total_page_count - len(page_paths))):
        sitemap.add(f"http://{fqdn}{reference_random_page_name(rng, topic)}", lastmod=at)
    return sitemap
