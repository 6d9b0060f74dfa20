"""Self-healing policy for the parallel scoring pool.

Before ISSUE 9, any pool failure flipped the scorer to serial forever
(`_disable_parallel`).  :class:`ParallelRecovery` replaces that with
the standard resilience triad:

* **bounded retry with exponential backoff** — a failed batch rebuilds
  the pool and retries up to ``SCORPION_SHARD_RETRIES`` times, sleeping
  ``SCORPION_POOL_BACKOFF * 2**attempt`` seconds between attempts;
* **a restart budget per window** — at most ``SCORPION_POOL_RESTARTS``
  pool restarts per ``SCORPION_POOL_WINDOW`` seconds; exhausting the
  budget *opens the circuit*;
* **a cooldown circuit breaker** — while open, batches run serial
  (degraded, counted in ``scorpion_degraded_batches_total``) without
  touching the pool; after ``SCORPION_POOL_COOLDOWN`` seconds the next
  batch *half-opens* the circuit and probes parallel once.  A
  successful probe closes the circuit (full parallel resumes); a
  failed probe re-opens it for another cooldown.

The policy object is pure bookkeeping — it never touches the pool
itself — so the scorer stays the single owner of executor lifetime,
and tests can drive the state machine with an injected clock/sleep.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.errors import ParallelError

__all__ = [
    "ParallelRecovery",
    "DEFAULT_SHARD_RETRIES",
    "DEFAULT_POOL_RESTARTS",
    "DEFAULT_POOL_WINDOW",
    "DEFAULT_POOL_COOLDOWN",
    "DEFAULT_BACKOFF_BASE",
]

#: Retries per failed batch (each retry restarts the pool).
DEFAULT_SHARD_RETRIES = 2
#: Pool restarts allowed per window before the circuit opens.
DEFAULT_POOL_RESTARTS = 3
#: Width of the restart-budget window, seconds.
DEFAULT_POOL_WINDOW = 30.0
#: Seconds the circuit stays open before a half-open parallel probe.
DEFAULT_POOL_COOLDOWN = 5.0
#: Base backoff sleep, seconds (doubled per retry attempt).
DEFAULT_BACKOFF_BASE = 0.05


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


class ParallelRecovery:
    """Retry / restart-budget / circuit-breaker bookkeeping for one
    scorer's pool (see module docstring for the knobs).

    Every knob must be ``>= 0``, whether it comes from the constructor
    or the environment; a negative value raises
    :class:`~repro.errors.ParallelError` here rather than breaking the
    first parallel batch."""

    def __init__(self,
                 retries: int | None = None,
                 restarts: int | None = None,
                 window: float | None = None,
                 cooldown: float | None = None,
                 backoff_base: float | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.retries = (retries if retries is not None
                        else _env_int("SCORPION_SHARD_RETRIES",
                                      DEFAULT_SHARD_RETRIES))
        self.restarts = (restarts if restarts is not None
                         else _env_int("SCORPION_POOL_RESTARTS",
                                       DEFAULT_POOL_RESTARTS))
        self.window = (window if window is not None
                       else _env_float("SCORPION_POOL_WINDOW",
                                       DEFAULT_POOL_WINDOW))
        self.cooldown = (cooldown if cooldown is not None
                         else _env_float("SCORPION_POOL_COOLDOWN",
                                         DEFAULT_POOL_COOLDOWN))
        self.backoff_base = (backoff_base if backoff_base is not None
                             else _env_float("SCORPION_POOL_BACKOFF",
                                             DEFAULT_BACKOFF_BASE))
        for name in ("retries", "restarts", "window", "cooldown",
                     "backoff_base"):
            if getattr(self, name) < 0:
                raise ParallelError(
                    f"ParallelRecovery {name} must be >= 0, "
                    f"got {getattr(self, name)}")
        self._clock = clock
        self._sleep = sleep
        #: monotonic stamps of recent pool failures (restart budget).
        self._failures: list[float] = []
        #: when the circuit opened, or None while closed.
        self._opened_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the circuit is open (batches run serial)."""
        return self._opened_at is not None

    def allow_parallel(self) -> bool:
        """May the next batch touch the pool?

        True while the circuit is closed, and — once per cooldown —
        when an open circuit is due a half-open probe.
        """
        if self._opened_at is None:
            return True
        if self._clock() - self._opened_at >= self.cooldown:
            # Half-open: let one batch probe.  Failure re-opens (and
            # re-stamps) the circuit; success closes it.
            return True
        return False

    def record_failure(self) -> bool:
        """Count one pool failure; returns True if retrying is still
        within budget, False if the circuit just opened (give up and
        run this batch serial)."""
        now = self._clock()
        cutoff = now - self.window
        self._failures = [t for t in self._failures if t >= cutoff]
        self._failures.append(now)
        if len(self._failures) > self.restarts:
            self._opened_at = now
            return False
        return True

    def record_success(self) -> None:
        """A parallel batch completed: close the circuit and forget
        the failure history (a healed machine starts clean)."""
        self._failures.clear()
        self._opened_at = None

    def backoff(self, attempt: int) -> None:
        """Sleep the exponential backoff for retry ``attempt`` (0-based)."""
        delay = self.backoff_base * (2 ** attempt)
        if delay > 0:
            self._sleep(delay)

    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half_open"`` (for health)."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half_open"
        return "open"
