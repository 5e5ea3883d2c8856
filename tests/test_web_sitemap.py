"""Tests for sitemap rendering and parsing."""

from datetime import datetime

from hypothesis import given, strategies as st

from repro.web.sitemap import Sitemap, parse_sitemap, summarize_sitemap
from tests.oracles.regex_sitemap import reference_parse_sitemap


def test_add_and_urls():
    sitemap = Sitemap()
    sitemap.add("http://x.com/a", lastmod=datetime(2020, 5, 1))
    sitemap.add("http://x.com/b")
    assert len(sitemap) == 2
    assert sitemap.urls() == ["http://x.com/a", "http://x.com/b"]


def test_render_parse_roundtrip():
    sitemap = Sitemap()
    sitemap.add("http://x.com/a", lastmod=datetime(2020, 5, 1))
    sitemap.add("http://x.com/b")
    parsed = parse_sitemap(sitemap.render())
    assert parsed.urls() == sitemap.urls()
    assert parsed.entries[0].lastmod == "2020-05-01"
    assert parsed.entries[1].lastmod is None


def test_parse_tolerates_garbage():
    assert parse_sitemap("<urlset><url>no loc</url></urlset>").urls() == []
    assert parse_sitemap("not xml").urls() == []


def test_size_grows_with_entries():
    """The 100 KB-jump signal relies on size scaling with bulk uploads."""
    small = Sitemap()
    big = Sitemap()
    for index in range(10):
        small.add(f"http://x.com/page-{index}")
    for index in range(2000):
        big.add(f"http://x.com/slot-gacor-{index}.html")
    assert big.size_bytes() > small.size_bytes() * 50
    assert big.size_bytes() > 100 * 1024


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
def test_roundtrip_property(page_ids):
    sitemap = Sitemap()
    for page_id in page_ids:
        sitemap.add(f"http://example.com/p{page_id}")
    parsed = parse_sitemap(sitemap.render())
    assert parsed.urls() == sitemap.urls()


# -- the block scanner against the seed's regex parser -----------------------

_FRAGMENTS = st.sampled_from(
    ["<url>", "</url>", "<loc>", "</loc>", "<lastmod>", "</lastmod>",
     " ", "\n", "\t", "http://x.com/p", "2020-05-01", "<urlset>", "<", ">", "/", "junk"]
)


@given(st.lists(_FRAGMENTS, max_size=60))
def test_parse_and_summary_match_the_regex_parser_on_fragment_soup(fragments):
    body = "".join(fragments)
    parsed = parse_sitemap(body)
    assert parsed.entries == reference_parse_sitemap(body).entries
    for cap in (0, 1, 10):
        assert summarize_sitemap(body, cap) == (len(parsed), tuple(parsed.urls()[:cap]))


def test_summary_counts_only_blocks_with_a_loc_and_strips():
    body = (
        "<urlset><url> <loc> http://x.com/a </loc></url>"
        "<url>no loc</url><url><loc>http://x.com/b</loc><lastmod>2020</lastmod></url>"
        "<url><loc>unclosed</url></urlset>"
    )
    assert summarize_sitemap(body, 10) == (2, ("http://x.com/a", "http://x.com/b"))
    assert summarize_sitemap(body, 1) == (2, ("http://x.com/a",))
    assert summarize_sitemap(body, 0) == (2, ())
