"""The paper-literal Figure 27 co-occurrence scan: all identifier pairs.

Production walks per-domain postings
(:func:`~repro.core.clustering.cooccurrence_edges`), whose cost is
proportional to the co-occurring pairs.  This O(n²) scan over every
identifier pair is the reference it must reproduce edge for edge.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.identifiers import IdentifierMap


def cooccurrence_edges_naive(
    identifier_map: IdentifierMap,
) -> List[Tuple[str, str, int]]:
    """Shared-domain counts for every identifier pair sharing a domain."""
    items = sorted(identifier_map.all_identifiers().items())
    edges: List[Tuple[str, str, int]] = []
    for i, (name_a, domains_a) in enumerate(items):
        for name_b, domains_b in items[i + 1:]:
            shared = len(set(domains_a) & set(domains_b))
            if shared:
                edges.append((name_a, name_b, shared))
    return edges
