"""Round-robin time slicing over live query sessions.

The scheduler decides which sessions run during a service tick and for how
many engine steps.  Slices are counted in :meth:`ExecutionHandle.step`
units (one opened iterator tree or one root chunk), the granularity at
which the simulated engine can be preempted.  The rotation offset advances
every round so no session is systematically favoured when slices don't
divide work evenly.
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
        self._offset = 0

    def plan_round(self, sessions: list[QuerySession]) -> list[QuerySession]:
        """The sessions to run this round, in rotated submission order."""
        live = [s for s in sessions if s.status is SessionStatus.RUNNING]
        if not live:
            return []
        k = self._offset % len(live)
        self._offset += 1
        return live[k:] + live[:k]

    def run_slice(self, session: QuerySession) -> int:
        """Step one session for up to ``slice_steps``; returns steps used."""
        return session.run_slice(self.slice_steps)
