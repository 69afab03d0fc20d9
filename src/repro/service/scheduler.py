"""Round-robin time slicing over live query sessions.

The scheduler decides which sessions run during a service tick and for how
many engine steps.  Slices are counted in :meth:`ExecutionHandle.step`
units (one opened iterator tree or one root chunk), the granularity at
which the simulated engine can be preempted.  Every live session gets a
full slice every round and sessions share no engine state (each
execution has its own memory manager and seeded rng, and the cost model
is stateless), so the order they run in within a round changes nothing
they compute: a round runs them in submission order.
"""

from __future__ import annotations

from repro.service.session import QuerySession, SessionStatus


class RoundRobinScheduler:
    """Fair fixed-quantum scheduling of sessions.

    Parameters
    ----------
    slice_steps:
        Engine steps granted to each live session per round.
    """

    def __init__(self, slice_steps: int = 8):
        if slice_steps <= 0:
            raise ValueError("slice_steps must be positive")
        self.slice_steps = slice_steps

    def plan_round(self, sessions: list[QuerySession]) -> list[QuerySession]:
        """The sessions to run this round: the running ones, in
        submission order."""
        return [s for s in sessions if s.status is SessionStatus.RUNNING]

    def run_slice(self, session: QuerySession) -> int:
        """Step one session for up to ``slice_steps``; returns steps used."""
        return session.run_slice(self.slice_steps)
