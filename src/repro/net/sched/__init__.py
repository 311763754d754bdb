"""The network engine and its pluggable message timing.

One engine runs every experiment; a scheduler decides *when* each
message arrives, extending the synchronous model of the paper toward
the authors' asynchronous follow-up (arXiv:1909.02865):

* :class:`EventDrivenNetwork` — the engine: protocols unchanged, every
  delivery given a virtual timestamp by a :class:`Scheduler` and held
  in per-tick buckets until that tick;
* :class:`LockstepScheduler` — unit delays: the synchronous rounds of
  Section 3 (the consensus runner's default, reported as ``"sync"``);
* :class:`SeededAsyncScheduler` — reproducible random per-link delays
  behind an explicit seed;
* :class:`AdversarialScheduler` — a worst-case timing adversary that
  stretches cut-straddling traffic to maximize disagreement windows,
  within FIFO-per-link and local-broadcast-atomicity constraints;
* :class:`SchedulerSpec` — the frozen, picklable recipe sweeps and the
  CLI carry (one fresh scheduler per run).
"""

from .adversarial import AdversarialScheduler
from .base import EventDrivenNetwork, Scheduler, SchedulingError, SimulationError
from .lockstep import LockstepScheduler
from .seeded import SeededAsyncScheduler
from .specs import SCHEDULER_KINDS, SchedulerSpec, parse_scheduler

__all__ = [
    "AdversarialScheduler",
    "EventDrivenNetwork",
    "LockstepScheduler",
    "SCHEDULER_KINDS",
    "Scheduler",
    "SchedulerSpec",
    "SchedulingError",
    "SeededAsyncScheduler",
    "SimulationError",
    "parse_scheduler",
]
