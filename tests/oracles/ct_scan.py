"""The seed CT first-issuance lookup: a linear scan of the whole log.

Production answers ``CTLog.first_issuance_for`` from an index kept by
``submit``; it must equal this scan, which applies
``Certificate.matches`` to every logged certificate.
"""

from __future__ import annotations

from datetime import datetime
from typing import Optional

from repro.dns.names import Name, normalize_name
from repro.pki.ct_log import CTLog


def reference_first_issuance(log: CTLog, name: Name) -> Optional[datetime]:
    host = normalize_name(name)
    matching = [e.logged_at for e in log.entries() if e.certificate.matches(host)]
    return min(matching) if matching else None
