"""Append-only audit trail of platform and campaign operations.

Every operation that touches data or changes platform state is recorded:
who did it, what was done, on which resource, and any extra details.  The
audit log is what makes the "custody" part of the regulatory barrier
demonstrable in the Labs: a trainee can inspect exactly what their campaign
did with personal data.

Events may carry a ``derived_from`` detail naming the parent a result stood
on — the run whose materialised blocks a later run was served
(``materialisation.reuse``).  :meth:`AuditLog.derivations` reads those
parent → child edges back, so a run's provenance is a query, not a guess.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class AuditEvent:
    """One immutable audit record."""

    sequence: int
    timestamp: float
    actor: str
    action: str
    resource: str
    details: tuple = ()

    @property
    def details_dict(self) -> Dict[str, Any]:
        """The event details as a dictionary."""
        return dict(self.details)

    def as_dict(self) -> Dict[str, Any]:
        """Serialisable view of the event."""
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "actor": self.actor,
            "action": self.action,
            "resource": self.resource,
            "details": self.details_dict,
        }


class AuditLog:
    """Thread-safe, append-only audit log."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: List[AuditEvent] = []
        self._lock = threading.Lock()
        self._sequence = 0

    def record(self, actor: str, action: str, resource: str,
               **details: Any) -> Optional[AuditEvent]:
        """Append an event; returns it (or ``None`` when auditing is disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            event = AuditEvent(sequence=self._sequence, timestamp=time.time(),
                               actor=actor, action=action, resource=resource,
                               details=tuple(sorted(details.items())))
            self._events.append(event)
            self._sequence += 1
        return event

    # -- queries -----------------------------------------------------------------

    @property
    def events(self) -> List[AuditEvent]:
        """Every recorded event, oldest first."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def query(self, actor: Optional[str] = None, action: Optional[str] = None,
              resource: Optional[str] = None,
              predicate: Optional[Callable[[AuditEvent], bool]] = None
              ) -> List[AuditEvent]:
        """Filter events by actor, action, resource and/or a custom predicate."""
        selected = []
        for event in self.events:
            if actor is not None and event.actor != actor:
                continue
            if action is not None and event.action != action:
                continue
            if resource is not None and event.resource != resource:
                continue
            if predicate is not None and not predicate(event):
                continue
            selected.append(event)
        return selected

    def derivations(self, run_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Parent → child edges recorded by ``materialisation.reuse`` events.

        One entry per reused lineage: the ``fingerprint`` of what was
        reused, the ``run_id`` that was served it, the run it was
        ``derived_from`` and how many ``blocks`` changed hands.  ``run_id``
        restricts the answer to what one run stood on.
        """
        edges = []
        for event in self.query(action="materialisation.reuse"):
            details = event.details_dict
            if run_id is None or details.get("run_id") == run_id:
                edges.append({"fingerprint": event.resource, **details})
        return edges

    def actions_by_actor(self) -> Dict[str, int]:
        """Number of events per actor (a quick accountability summary)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.actor] = counts.get(event.actor, 0) + 1
        return counts

    # -- export -------------------------------------------------------------------

    def export_json(self) -> str:
        """Export the whole log as a JSON array string."""
        return json.dumps([event.as_dict() for event in self.events], indent=2)

    def verify_sequence(self) -> bool:
        """True when the log is gap-free and strictly ordered (tamper check)."""
        events = self.events
        return all(event.sequence == index for index, event in enumerate(events))
