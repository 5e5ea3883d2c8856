"""Per-subject revision counters layered on the event log.

The sweep re-samples every monitored FQDN weekly, but in a steady world
almost nothing changes week over week — sweep cost should scale with
*churn*, not population.  The :class:`RevisionJournal` gives every
mutation path one place to declare "this subject changed": each
``bump`` increments a monotonic per-subject counter and appends the
subject to an ordered change log.

Subjects are ``(kind, key)`` tuples — e.g. ``("dns", "a.acme.com")``,
``("web", "a.acme.com")``, ``("site", ("azure", "web", "res-1"))`` —
so distinct substrates never collide and the hot lookup path stays a
plain tuple-keyed dict access.

:class:`JournalCache` is the one consumer of the change log: a dict
whose entries name the subjects they depend on and disappear once any
of them is bumped.  The resolver memo and the monitor's touch ledger
are both such caches.

:meth:`publish` unifies revision bumps with the existing
:class:`~repro.sim.events.EventLog`: world-mutation paths that used to
call ``events.record(...)`` directly call ``journal.publish(...)``
instead and get the event *and* the revision bump from one call.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.obs import OBS
from repro.sim.events import Event, EventLog

#: A journal subject: ``(kind, key)``.  ``key`` is usually a string
#: (an FQDN, an IP) but may be any hashable (site keys are tuples).
Subject = Tuple[str, Hashable]


class RevisionJournal:
    """Monotonic per-subject revision counters with a change cursor."""

    def __init__(self, events: Optional[EventLog] = None) -> None:
        self._events = events
        self._revisions: Dict[Subject, int] = {}
        #: Append-only log of bumped subjects, in bump order.  A cursor
        #: is an offset into this list; ``changed_since`` is just the
        #: set of the suffix — proportional to churn, not population.
        self._log: List[Subject] = []

    # -- writing ----------------------------------------------------------------

    def bump(self, kind: str, key: Hashable) -> int:
        """Advance ``(kind, key)``'s revision and return the new value."""
        subject = (kind, key)
        revision = self._revisions.get(subject, 0) + 1
        self._revisions[subject] = revision
        self._log.append(subject)
        return revision

    def publish(
        self, at: datetime, event_kind: str, subject: str, **data: Any
    ) -> Optional[Event]:
        """Record an event and bump the matching revision in one step.

        The revision kind is the event kind's first dotted component,
        so ``publish(at, "cloud.release", name)`` records the usual
        ``cloud.release`` event and bumps ``("cloud", name)``.
        """
        self.bump(event_kind.split(".", 1)[0], subject)
        if self._events is None:
            return None
        return self._events.record(at, event_kind, subject, **data)

    @property
    def events(self) -> Optional[EventLog]:
        """The event log this journal publishes into, if any."""
        return self._events

    # -- reading ----------------------------------------------------------------

    def revision(self, kind: str, key: Hashable) -> int:
        """Current revision of ``(kind, key)``; 0 if never bumped."""
        return self._revisions.get((kind, key), 0)

    def cursor(self) -> int:
        """An opaque position marking "now" in the change log."""
        return len(self._log)

    def changed_since(self, cursor: int) -> Set[Subject]:
        """Distinct subjects bumped after ``cursor`` was taken."""
        return set(self._log[cursor:])

    def __len__(self) -> int:
        """Total bumps recorded (equals the latest possible cursor)."""
        return len(self._log)


class JournalCache:
    """A dict whose entries the journal evicts.

    ``put(key, value, deps)`` files ``key`` under each journal subject
    in ``deps``; once any of those subjects is bumped the entry is gone,
    so a hit is one :meth:`get` with no validation of its own.  The
    cache keeps its own reverse index and a cursor into the journal's
    change log, and catches up lazily on every ``get``/``put`` — one
    length compare when nothing moved.  The journal holds no reference
    back, so any number of caches (fresh resolvers over the same zones,
    a restored checkpoint's) follow one journal independently, and a
    cache pickles with the journal it follows.

    ``metric`` names the counter each journal eviction increments.
    """

    def __init__(self, journal: RevisionJournal, metric: Optional[str] = None):
        self._journal = journal
        self._metric = metric
        self._values: Dict[Hashable, Any] = {}
        self._deps: Dict[Hashable, Tuple[Subject, ...]] = {}
        #: subject -> the key filed under it, or a set of keys.  Most
        #: subjects have a single dependent, so a bare key spares a
        #: set per subject.  Keys are hashable, so never a ``set``.
        self._dependents: Dict[Subject, Any] = {}
        #: Journal position the cache has caught up to.
        self.cursor = journal.cursor()

    def get(self, key: Hashable) -> Any:
        """The live value for ``key``, or ``None``."""
        if self.cursor != len(self._journal._log):
            self._catch_up()
        return self._values.get(key)

    def put(self, key: Hashable, value: Any, deps: Tuple[Subject, ...]) -> None:
        """Store ``value`` until any subject in ``deps`` is bumped.

        ``value`` (never ``None``) must be current as of the journal's
        present position.
        """
        if self.cursor != len(self._journal._log):
            self._catch_up()
        if key in self._deps:
            self.discard(key)
        self._values[key] = value
        self._deps[key] = deps
        dependents = self._dependents
        for subject in deps:
            filed = dependents.get(subject)
            if filed is None:
                dependents[subject] = key
            elif type(filed) is set:
                filed.add(key)
            elif filed != key:
                dependents[subject] = {filed, key}

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s entry (no-op when absent)."""
        deps = self._deps.pop(key, None)
        if deps is None:
            return
        del self._values[key]
        dependents = self._dependents
        for subject in deps:
            filed = dependents.get(subject)
            if type(filed) is set:
                filed.discard(key)
                if not filed:
                    del dependents[subject]
            elif filed == key:
                del dependents[subject]

    def _catch_up(self) -> None:
        """Evict every entry filed under a subject bumped since ``cursor``."""
        journal = self._journal
        moved = journal.changed_since(self.cursor)
        self.cursor = journal.cursor()
        dependents = self._dependents
        metric = self._metric if OBS.enabled else None
        for subject in moved:
            # Popped first, so evicting its keys never touches the set
            # being iterated.
            filed = dependents.pop(subject, None)
            if filed is None:
                continue
            for key in filed if type(filed) is set else (filed,):
                self.discard(key)
                if metric is not None:
                    OBS.metrics.inc(metric)

    def __len__(self) -> int:
        """Live entries."""
        if self.cursor != len(self._journal._log):
            self._catch_up()
        return len(self._values)
