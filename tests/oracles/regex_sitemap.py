"""The seed sitemap parser: three non-greedy regexes over the body.

Production scans ``<url>`` blocks with string searches
(``repro.web.sitemap._url_blocks``); ``parse_sitemap`` must return the
same entries as this parser for any text, well-formed or not.
"""

from __future__ import annotations

import re

from repro.web.sitemap import Sitemap, SitemapEntry

_URL_RE = re.compile(r"<url>(.*?)</url>", re.S)
_LOC_RE = re.compile(r"<loc>(.*?)</loc>", re.S)
_LASTMOD_RE = re.compile(r"<lastmod>(.*?)</lastmod>", re.S)


def reference_parse_sitemap(text: str) -> Sitemap:
    sitemap = Sitemap()
    for block in _URL_RE.findall(text):
        loc_match = _LOC_RE.search(block)
        if not loc_match:
            continue
        lastmod_match = _LASTMOD_RE.search(block)
        sitemap.entries.append(
            SitemapEntry(
                loc=loc_match.group(1).strip(),
                lastmod=lastmod_match.group(1).strip() if lastmod_match else None,
            )
        )
    return sitemap
