"""The lockstep scheduler: synchronous rounds as a timing policy.

Every delivery takes exactly one tick, and broadcasts are atomic — the
event-driven core then *is* the synchronous simulator of Section 3: a
message sent in round ``r`` joins tick ``r + 1``'s bucket as one entry
per send, and draining that bucket in send order fills every recipient's
round ``r + 1`` inbox in the same order
:class:`~repro.net.simulator.SynchronousNetwork` produces.  The equivalence is property-tested trace-for-trace across all
protocol factories (``tests/net/sched/test_lockstep_equivalence.py``),
which is what licenses running every existing protocol unchanged on the
new core.
"""

from __future__ import annotations

from typing import Hashable

from .base import Scheduler
from .events import SendEvent


class LockstepScheduler(Scheduler):
    """Unit delay on every link: the synchronous model, event-driven."""

    name = "lockstep"
    atomic_broadcast = True
    bounded = True
    worst_case_delay = 1

    def delay(self, send: SendEvent, recipient: Hashable) -> int:
        return 1
