"""The lockstep scheduler: synchronous rounds as a timing policy.

Every delivery takes exactly one tick, and broadcasts are atomic — the
engine then *is* the synchronous simulator of Section 3: a message sent
in round ``r`` joins tick ``r + 1``'s bucket as one entry per send, and
draining that bucket in send order fills every recipient's round
``r + 1`` inbox in transmission order.  The consensus runner's default
timing (``scheduler=None``, reported as ``"sync"``) is this scheduler.
"""

from __future__ import annotations

from typing import List

from ..trace import Transmission
from .base import Scheduler


class LockstepScheduler(Scheduler):
    """Unit delay on every link: the synchronous model, event-driven."""

    name = "lockstep"
    atomic_broadcast = True
    bounded = True
    worst_case_delay = 1

    def delays(self, send: Transmission) -> List[int]:
        return [1] * len(send.recipients)
