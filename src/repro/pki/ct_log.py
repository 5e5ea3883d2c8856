"""Certificate Transparency log.

Every CA in the simulation submits issued certificates here.  The log
supports the two consumer roles the paper describes: the *analysis*
role (Section 5.6.1: the full certificate timeline per domain, the
single-SAN vs multi-SAN split of Figure 20) and the *countermeasure*
role (Section 5.6.3: a domain owner monitoring the log is alerted
within hours of a hijacker's issuance).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Dict, List, Optional

from repro.dns.names import Name, is_subdomain_of, normalize_name, parent_name
from repro.pki.certificate import Certificate


@dataclass(frozen=True)
class CTLogEntry:
    """One log entry: a certificate and when it was logged."""

    certificate: Certificate
    logged_at: datetime


class CTLog:
    """Append-only certificate log with subscription support.

    The log entries are the source of truth.  ``submit`` also keeps the
    earliest ``logged_at`` per concrete SAN and per wildcard SAN's
    parent, so :meth:`first_issuance_for` reads two keys instead of
    scanning the log; the index is rebuilt from the entries on unpickle.
    """

    def __init__(self) -> None:
        self._entries: List[CTLogEntry] = []
        self._monitors: Dict[Name, List[Callable[[CTLogEntry], None]]] = {}
        self._first_exact: Dict[Name, datetime] = {}
        self._first_wildcard: Dict[Name, datetime] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_first_exact"], state["_first_wildcard"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._first_exact = {}
        self._first_wildcard = {}
        for entry in self._entries:
            self._index(entry)

    def submit(self, certificate: Certificate, at: datetime) -> CTLogEntry:
        """Log a certificate and fire any matching monitors."""
        entry = CTLogEntry(certificate=certificate, logged_at=at)
        self._entries.append(entry)
        self._index(entry)
        for apex, callbacks in self._monitors.items():
            if _entry_covers(entry, apex):
                for callback in callbacks:
                    callback(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[CTLogEntry]:
        """All entries, oldest first."""
        return list(self._entries)

    # -- analysis queries -------------------------------------------------------

    def entries_for(self, name: Name, include_subdomains: bool = False) -> List[CTLogEntry]:
        """Entries whose certificate covers ``name`` (or names under it)."""
        normalized = normalize_name(name)
        out = []
        for entry in self._entries:
            if include_subdomains:
                if _entry_covers(entry, normalized):
                    out.append(entry)
            elif entry.certificate.matches(normalized):
                out.append(entry)
        return out

    def single_san_entries(self) -> List[CTLogEntry]:
        """Entries with exactly one non-wildcard SAN (the hijack shape)."""
        return [e for e in self._entries if e.certificate.is_single_san]

    def multi_san_entries(self) -> List[CTLogEntry]:
        """Entries with multiple SANs or a wildcard."""
        return [e for e in self._entries if not e.certificate.is_single_san]

    def first_issuance_for(self, name: Name) -> Optional[datetime]:
        """Timestamp of the earliest certificate covering ``name``.

        A certificate covers ``name`` by a concrete SAN equal to it or
        by a wildcard SAN one level above it (:meth:`Certificate.matches`).
        """
        host = normalize_name(name)
        exact = self._first_exact.get(host)
        wildcard = self._first_wildcard.get(parent_name(host))  # None at a TLD
        found = [at for at in (exact, wildcard) if at is not None]
        return min(found) if found else None

    def _index(self, entry: CTLogEntry) -> None:
        at = entry.logged_at
        for san in entry.certificate.sans:
            if san.startswith("*."):
                index, key = self._first_wildcard, normalize_name(san[2:])
            else:
                index, key = self._first_exact, san
            earliest = index.get(key)
            if earliest is None or at < earliest:
                index[key] = at

    # -- countermeasure (Section 5.6.3) ---------------------------------------------

    def monitor(self, apex: Name, callback: Callable[[CTLogEntry], None]) -> None:
        """Alert ``callback`` whenever a cert for ``apex`` or below is logged."""
        self._monitors.setdefault(normalize_name(apex), []).append(callback)


def _entry_covers(entry: CTLogEntry, apex: Name) -> bool:
    for san in entry.certificate.sans:
        concrete = san[2:] if san.startswith("*.") else san
        if is_subdomain_of(concrete, apex):
            return True
    return False
