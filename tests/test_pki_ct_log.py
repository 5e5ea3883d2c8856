"""Tests for the CT log."""

import pickle
import random
from datetime import datetime, timedelta

from repro.pki.certificate import Certificate
from repro.pki.ct_log import CTLog
from tests.oracles.ct_scan import reference_first_issuance

T0 = datetime(2020, 1, 6)


def _cert(serial, sans):
    return Certificate(
        serial=serial, sans=tuple(sans), issuer="CA",
        not_before=T0, not_after=T0 + timedelta(days=90),
    )


def test_submit_and_query():
    log = CTLog()
    log.submit(_cert(1, ["a.example.com"]), T0)
    log.submit(_cert(2, ["*.example.com", "example.com"]), T0 + timedelta(days=1))
    assert len(log) == 2
    assert len(log.single_san_entries()) == 1
    assert len(log.multi_san_entries()) == 1


def test_entries_for_name_and_subdomains():
    log = CTLog()
    log.submit(_cert(1, ["a.example.com"]), T0)
    log.submit(_cert(2, ["b.example.com"]), T0)
    assert len(log.entries_for("a.example.com")) == 1
    assert len(log.entries_for("example.com", include_subdomains=True)) == 2


def test_first_issuance():
    log = CTLog()
    assert log.first_issuance_for("a.example.com") is None
    log.submit(_cert(1, ["a.example.com"]), T0 + timedelta(days=9))
    log.submit(_cert(2, ["a.example.com"]), T0)
    assert log.first_issuance_for("a.example.com") == T0


def test_monitor_fires_on_covered_names_only():
    log = CTLog()
    seen = []
    log.monitor("example.com", seen.append)
    log.submit(_cert(1, ["x.example.com"]), T0)
    log.submit(_cert(2, ["other.com"]), T0)
    log.submit(_cert(3, ["*.example.com"]), T0)
    assert len(seen) == 2


def test_wildcard_entry_covers_apex_monitoring():
    log = CTLog()
    seen = []
    log.monitor("example.com", seen.append)
    log.submit(_cert(1, ["*.sub.example.com"]), T0)
    assert len(seen) == 1


# -- the first-issuance index against the linear scan ------------------------

_HOSTS = ["example.com", "a.example.com", "b.example.com", "x.a.example.com", "other.net", "com"]


def _random_log(rng):
    """A log of random certificates, logged out of time order."""
    log = CTLog()
    for serial in range(rng.randrange(1, 25)):
        sans = []
        for _ in range(rng.randrange(1, 4)):
            host = rng.choice(_HOSTS)
            sans.append(f"*.{host}" if rng.random() < 0.4 else host)
        if rng.random() < 0.2:  # one certificate with both shapes for one host
            host = rng.choice(_HOSTS)
            sans += [host, f"*.{host.upper()}"]
        log.submit(_cert(serial, sans), T0 + timedelta(days=rng.randrange(60)))
    return log


def _queries():
    for host in _HOSTS + ["z.b.example.com", "nowhere.org"]:
        yield host
        yield host.upper()
        yield host + "."


def test_first_issuance_equals_linear_scan_on_random_logs():
    rng = random.Random(7)
    for _ in range(200):
        log = _random_log(rng)
        for name in _queries():
            assert log.first_issuance_for(name) == reference_first_issuance(log, name), name


def test_first_issuance_exact_and_wildcard_for_one_host():
    log = CTLog()
    log.submit(_cert(1, ["a.example.com"]), T0 + timedelta(days=5))
    log.submit(_cert(2, ["*.example.com"]), T0 + timedelta(days=3))
    assert log.first_issuance_for("A.Example.COM.") == T0 + timedelta(days=3)
    assert log.first_issuance_for("example.com") is None  # a wildcard covers one level
    assert log.first_issuance_for("x.a.example.com") is None
    log.submit(_cert(3, ["example.com", "*.example.com"]), T0)
    assert log.first_issuance_for("example.com") == T0
    assert log.first_issuance_for("a.example.com") == T0
    assert log.first_issuance_for("com") is None


def test_unpickled_log_without_index_rebuilds_it():
    """A log pickled without the index (as older checkpoints hold it) answers the same."""
    log = _random_log(random.Random(3))
    state = pickle.loads(pickle.dumps(log)).__dict__
    state.pop("_first_exact", None)
    state.pop("_first_wildcard", None)
    restored = CTLog.__new__(CTLog)
    restored.__setstate__(state)
    for name in _queries():
        assert restored.first_issuance_for(name) == log.first_issuance_for(name)
        assert restored.first_issuance_for(name) == reference_first_issuance(log, name)
    restored.submit(_cert(99, ["*.com"]), T0 - timedelta(days=1))
    assert restored.first_issuance_for("other.net") == reference_first_issuance(restored, "other.net")
    assert restored.first_issuance_for("example.com") == T0 - timedelta(days=1)
