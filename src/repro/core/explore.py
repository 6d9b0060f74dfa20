"""Interactive ``c`` exploration — the paper's UI slider (Sections 7
and 8.3.3).

"The user or system may want to try different values of c (e.g., via a
slider in the UI or automatically)."  :class:`CExplorer` does exactly
that: it sweeps ``c`` from selective (1) to coarse (0), shares one
:class:`~repro.core.cache.DTCache` so DT partitions only once, and
reports the *predicate ladder* — the distinct explanations the knob
walks through, with the ``c`` interval over which each one rules.
Every step still merges from scratch, so each rung is the answer a
one-off explain at that ``c`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Explanation, Scorpion
from repro.errors import PartitionerError
from repro.predicates.predicate import Predicate


@dataclass(frozen=True)
class LadderStep:
    """One rung: the predicate that wins for ``c ∈ [c_lo, c_hi]``."""

    c_lo: float
    c_hi: float
    predicate: Predicate
    #: The explanation produced at the step's lowest swept ``c``.
    explanation: Explanation

    def __str__(self) -> str:
        return f"c ∈ [{self.c_lo:g}, {self.c_hi:g}]: {self.predicate}"


@dataclass
class CExploration:
    """Result of a ``c`` sweep."""

    steps: list[LadderStep]
    #: Every (c, explanation) pair in sweep order.
    trace: list[tuple[float, Explanation]]

    @property
    def predicates(self) -> list[Predicate]:
        return [step.predicate for step in self.steps]

    def at(self, c: float) -> Explanation:
        """The explanation for the swept ``c`` closest to the given one."""
        if not self.trace:
            raise PartitionerError("empty exploration")
        nearest = min(self.trace, key=lambda item: abs(item[0] - c))
        return nearest[1]

    def to_string(self) -> str:
        lines = ["c-ladder:"]
        for step in self.steps:
            lines.append(f"  {step}")
        return "\n".join(lines)


class CExplorer:
    """Sweeps the Section 7 knob over one annotated query.

    Parameters
    ----------
    scorpion:
        Optional pre-configured facade (shared cache and all); defaults
        to ``Scorpion(use_cache=True)``.
    c_values:
        The sweep grid; swept high to low whatever the given order.
        The order changes no answer.
    """

    DEFAULT_SWEEP = (1.0, 0.75, 0.5, 0.35, 0.2, 0.1, 0.05, 0.0)

    def __init__(self, scorpion: Scorpion | None = None,
                 c_values: Sequence[float] = DEFAULT_SWEEP):
        if not c_values:
            raise PartitionerError("c_values must not be empty")
        if any(c < 0 for c in c_values):
            raise PartitionerError("c values must be non-negative")
        self.scorpion = scorpion or Scorpion(use_cache=True)
        self.c_values = tuple(sorted(set(float(c) for c in c_values),
                                     reverse=True))

    def explore(self, problem: ScorpionQuery) -> CExploration:
        """Run the sweep and collapse it into the predicate ladder."""
        trace: list[tuple[float, Explanation]] = []
        for c in self.c_values:
            result = self.scorpion.explain(problem.with_c(c))
            best = result.best
            if best is not None:
                trace.append((c, best))
        steps: list[LadderStep] = []
        for c, explanation in trace:
            if steps and steps[-1].predicate == explanation.predicate:
                previous = steps[-1]
                steps[-1] = LadderStep(
                    c_lo=c, c_hi=previous.c_hi,
                    predicate=previous.predicate,
                    explanation=explanation,
                )
            else:
                steps.append(LadderStep(c_lo=c, c_hi=c,
                                        predicate=explanation.predicate,
                                        explanation=explanation))
        return CExploration(steps=steps, trace=trace)
