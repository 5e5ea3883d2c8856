"""The paper-faithful detector scans: every signature, every FQDN.

Production narrows both of the detector's hot scans with inverted
indexes: weekly matching asks the signature index for candidates, and
a retrospective rescan walks only the FQDNs the store's posting index
names.  :class:`LinearAbuseDetector` replaces both with the linear
scans they prune — each changed state against every signature, each new
signature over every stored FQDN.  The indexes may only skip work, so
the two detectors must flag the same names and export the same bytes.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from repro.core.detection import AbuseDetector
from repro.core.monitoring import SnapshotFeatures
from repro.core.signatures import Signature
from repro.dns.names import Name


class LinearAbuseDetector(AbuseDetector):
    """:class:`AbuseDetector` with its indexed scans made linear."""

    def _match_existing(
        self, features: SnapshotFeatures
    ) -> List[Tuple[Signature, FrozenSet[str]]]:
        matches = []
        for signature in self.signatures:
            components = signature.match(features)
            if components is not None:
                matches.append((signature, components))
        return matches

    def _rescan_fqdns(self, signature: Signature) -> List[Name]:
        return self.store.fqdns()


def use_linear_detector(engine) -> LinearAbuseDetector:
    """Make a built, unrun scenario engine detect with the linear oracle.

    The detector object is shared by the detect and harvest stages and
    the scenario result, so it is converted in place; it holds no
    signatures yet, so nothing indexed carries over.
    """
    detector = engine.payload.detector
    assert not detector.signatures, "convert the detector before the run"
    detector.__class__ = LinearAbuseDetector
    return detector
