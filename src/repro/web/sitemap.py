"""Sitemap modelling.

Sitemap features are one of the paper's strongest abuse signals
(Section 3.2): attackers upload tens of thousands of similarly named
pages per site (Figure 6), producing multi-megabyte sitemaps, and a
new sitemap or a 100 KB size jump is itself a signature component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class SitemapEntry:
    """One ``<url>`` element."""

    loc: str
    lastmod: Optional[str] = None


@dataclass
class Sitemap:
    """An XML sitemap as a list of entries."""

    entries: List[SitemapEntry] = field(default_factory=list)

    def add(self, loc: str, lastmod: Optional[datetime] = None) -> SitemapEntry:
        """Append an entry and return it."""
        entry = SitemapEntry(
            loc=loc, lastmod=lastmod.strftime("%Y-%m-%d") if lastmod else None
        )
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def urls(self) -> List[str]:
        """All entry locations."""
        return [entry.loc for entry in self.entries]

    def render(self) -> str:
        """Serialize to sitemap XML."""
        lines = ['<?xml version="1.0" encoding="UTF-8"?>']
        lines.append('<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">')
        for entry in self.entries:
            lines.append("  <url>")
            lines.append(f"    <loc>{entry.loc}</loc>")
            if entry.lastmod:
                lines.append(f"    <lastmod>{entry.lastmod}</lastmod>")
            lines.append("  </url>")
        lines.append("</urlset>")
        return "\n".join(lines)

    def size_bytes(self) -> int:
        """Rendered size in bytes — the 100 KB-jump signal's unit."""
        return len(self.render().encode("utf-8"))


def _url_blocks(text: str) -> Iterator[Tuple[Tuple[int, int], int, int]]:
    """The sitemap grammar: each ``<url>…</url>`` block holding a ``<loc>``.

    Yields the ``<loc>`` content's span and the block's bounds in
    ``text``.  A block runs to the first ``</url>`` after its ``<url>``;
    a block without ``<loc>…</loc>`` is skipped (tolerant).
    """
    pos = 0
    while True:
        start = text.find("<url>", pos)
        if start < 0:
            return
        start += 5
        end = text.find("</url>", start)
        if end < 0:
            return
        loc = _element(text, "<loc>", "</loc>", start, end)
        if loc is not None:
            yield loc, start, end
        pos = end + 6


def _element(
    text: str, open_tag: str, close_tag: str, start: int, end: int
) -> Optional[Tuple[int, int]]:
    """Span of the first ``open_tag…close_tag`` content in ``text[start:end]``."""
    first = text.find(open_tag, start, end)
    if first < 0:
        return None
    first += len(open_tag)
    last = text.find(close_tag, first, end)
    return None if last < 0 else (first, last)


def parse_sitemap(text: str) -> Sitemap:
    """Parse sitemap XML into a :class:`Sitemap` (tolerant)."""
    sitemap = Sitemap()
    for (loc, loc_end), start, end in _url_blocks(text):
        lastmod = _element(text, "<lastmod>", "</lastmod>", start, end)
        sitemap.entries.append(
            SitemapEntry(
                loc=text[loc:loc_end].strip(),
                lastmod=text[lastmod[0]:lastmod[1]].strip() if lastmod else None,
            )
        )
    return sitemap


def summarize_sitemap(text: str, sample_cap: int) -> Tuple[int, Tuple[str, ...]]:
    """``(entry count, first sample_cap locations)`` of sitemap XML.

    Equal to ``len(parse_sitemap(text))`` and the first ``sample_cap`` of
    its ``urls()``, without building an entry per URL.
    """
    count = 0
    sample: List[str] = []
    for (loc, loc_end), _, _ in _url_blocks(text):
        if count < sample_cap:
            sample.append(text[loc:loc_end].strip())
        count += 1
    return count, tuple(sample)
