"""Tests for abuse content generation."""

import random
from datetime import datetime

import pytest

from repro.attacker.content import _TOPIC_POOLS, AbuseContentFactory
from repro.attacker.groups import GroupBehavior
from repro.content.vocab import Topic
from repro.web.html import parse_html
from tests.oracles.bulk_upload import reference_abuse_sitemap, reference_random_page_name


def _factory(seed=5):
    return AbuseContentFactory(random.Random(seed), "group-test")


def test_maintenance_facade_has_the_typo():
    doc = _factory().maintenance_facade()
    assert doc.title == "Comming soon ..."
    assert any("soon" in p.lower() or "maint" in p.lower() or "wartet" in p.lower()
               or "メンテナンス" in p or "system" in p.lower() for p in doc.paragraphs)


def test_doorway_page_structure():
    factory = _factory()
    doc = factory.doorway_page(
        Topic.GAMBLING, "https://mega-gacor.bet/play", "ref1234",
        identifiers=["+628123456789", "https://t.me/slotwin77", "141.98.5.5"],
        sibling_urls=["http://victim.com/a.html"],
    )
    hrefs = [link.href for link in doc.links]
    assert any("?ref=ref1234" in h for h in hrefs)
    assert any(h.startswith("https://wa.me/") for h in hrefs)
    assert any("t.me" in h for h in hrefs)
    assert "http://victim.com/a.html" in hrefs
    assert doc.lang == "id"
    assert any("popunder.js" in s.src for s in doc.scripts)


def test_doorway_without_referral_code_links_plain():
    doc = _factory().doorway_page(
        Topic.GAMBLING, "https://ads.example/landing", "", identifiers=[]
    )
    hrefs = [link.href for link in doc.links]
    assert "https://ads.example/landing" in hrefs
    assert not any("?ref=" in h for h in hrefs)


def test_meta_keyword_stuffing_toggle():
    factory = _factory()
    stuffed = factory.doorway_page(Topic.GAMBLING, "https://x.bet", "r", [], stuff_meta_keywords=True)
    plain = factory.doorway_page(Topic.GAMBLING, "https://x.bet", "r", [], stuff_meta_keywords=False)
    assert "keywords" in stuffed.meta
    assert "keywords" not in plain.meta


def test_wordpress_generator_toggle():
    doc = _factory().doorway_page(
        Topic.GAMBLING, "https://x.bet", "r", [], wordpress_generator=True
    )
    assert doc.generator.startswith("WordPress")


def test_japanese_page():
    doc = _factory().japanese_page(["http://victim.com/b.html"])
    assert doc.lang == "ja"
    assert any("ページディレクトリ" in link.text for link in doc.links)


def test_clickjacking_page_has_onclick_interceptors():
    doc = _factory().clickjacking_page("https://adult-ads.example", "ref9")
    assert any(link.onclick for link in doc.links)
    assert doc.lang == "en"


def test_link_network_page_is_link_dominated():
    urls = [f"http://victim.com/p{i}.html" for i in range(6)]
    doc = _factory().link_network_page(urls)
    assert len(doc.links) == 6
    assert len(doc.visible_text()) < 300


def test_random_page_names_are_consistent_style():
    factory = _factory()
    names = {factory.random_page_name(Topic.GAMBLING) for _ in range(20)}
    assert len(names) >= 18
    assert all(name.startswith("/") and name.endswith(".html") for name in names)


def test_abuse_sitemap_counts_and_size():
    factory = _factory()
    paths = ["/a.html", "/b.html"]
    sitemap = factory.abuse_sitemap("victim.com", paths, total_page_count=500)
    assert len(sitemap) == 500
    assert sitemap.urls()[0] == "http://victim.com/a.html"
    assert sitemap.size_bytes() > 10_000


def test_rendered_pages_parse_back():
    doc = _factory().doorway_page(Topic.ADULT, "https://x.example", "r", ["+62812000"])
    parsed = parse_html(doc.render())
    assert parsed.title == doc.title


# -- bulk upload against the seed generator --------------------------------


@pytest.mark.parametrize("topic", list(Topic))
def test_bulk_upload_matches_the_seed_generator(topic):
    """Same names, same XML and the same generator state as the seed code.

    The state check catches a changed number of draws (for example a
    switch to ``rng.choices``), which would shift every later draw of
    the attacker group.
    """
    if topic not in _TOPIC_POOLS:  # no abuse vocabulary: both refuse before any draw
        factory, oracle = _factory(1), random.Random(1)
        with pytest.raises(KeyError):
            factory.random_page_name(topic)
        with pytest.raises(KeyError):
            reference_random_page_name(oracle, topic)
        assert factory._rng.getstate() == oracle.getstate()
        return
    cap = GroupBehavior().max_pages_per_site
    at = datetime(2021, 3, 8, 17, 45)
    for seed in range(1, 6):
        factory = AbuseContentFactory(random.Random(seed), "group-test")
        oracle = random.Random(seed)
        names = [factory.random_page_name(topic) for _ in range(50)]
        assert names == [reference_random_page_name(oracle, topic) for _ in range(50)]
        assert factory._rng.getstate() == oracle.getstate()
        for total in (2, 500, cap):
            paths = names[:1]
            sitemap = factory.abuse_sitemap(f"s{seed}.victim.com", paths, total, at, topic)
            expected = reference_abuse_sitemap(
                oracle, f"s{seed}.victim.com", paths, total, at, topic
            )
            assert len(sitemap) == total
            assert sitemap.entries == expected.entries
            assert sitemap.render() == expected.render()
            assert factory._rng.getstate() == oracle.getstate()
        undated = factory.abuse_sitemap("victim.com", [], 5, topic=topic)
        expected = reference_abuse_sitemap(oracle, "victim.com", [], 5, topic=topic)
        assert undated.render() == expected.render()
        assert factory._rng.getstate() == oracle.getstate()
