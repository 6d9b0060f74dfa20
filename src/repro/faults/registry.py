"""Deterministic fault injection for the explain pipeline.

Production code is sprinkled with *named injection points* — one
:func:`fault_point` call at each place a real deployment can fail: a
service checkout (``service.checkout``), a problem build
(``service.build``) and a serve-loop read (``serve.read``).  When no
schedule is armed the call is a single module-global load plus a
``None`` check: the disabled path allocates nothing and branches once,
so the points can stay in the hot paths permanently.

A *schedule* arms one or more points with an action and a hit pattern::

    SCORPION_FAULTS="service.build:memerror@1;serve.read:oserror@2"

Grammar, per ``;``-separated spec (``point:action[=arg][@sched][~mods]``):

========  =============================================================
token     meaning
========  =============================================================
action    ``crash`` (raise :class:`InjectedFault`), ``oserror``,
          ``memerror``, ``hang`` (sleep ``arg`` seconds, default 60)
``=arg``  numeric action argument (``hang=0.5`` sleep seconds)
``@2``    fire on the 2nd hit of the point (counted per process)
``@2,5``  fire on hits 2 and 5
``@2..4`` fire on hits 2 through 4
``@2..``  fire on every hit from the 2nd on
``@p0.3`` fire each hit with probability 0.3 from a seeded RNG
          (default: every hit)
``~s42``  seed the ``@p`` RNG (default seed 0; the stream is also
          keyed by the point name, so two points never share a flip
          sequence)
========  =============================================================

Hit counters are per-process and deterministic for a fixed schedule,
which is what the chaos differential oracle needs; a process started
with ``SCORPION_FAULTS`` set arms itself at import.

Programmatic arming (tests)::

    with fault_injection("service.build:memerror@1"):
        result = ExplainService().explain(problem)

``install_faults`` / ``clear_faults`` are the non-context equivalents;
:func:`fault_stats` reports per-point hit/fire counts for assertions.
"""

from __future__ import annotations

import os
import re
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "InjectedFault",
    "FaultError",
    "FaultSpec",
    "FaultRegistry",
    "fault_point",
    "faults_enabled",
    "install_faults",
    "clear_faults",
    "fault_injection",
    "fault_stats",
    "parse_faults",
]

#: Environment variable holding the armed schedule.
ENV_VAR = "SCORPION_FAULTS"


class InjectedFault(RuntimeError):
    """Raised by the ``crash`` action (and never by production code):
    unmistakably synthetic, so tests can tell an injected failure from
    a real one."""


class FaultError(ValueError):
    """A ``SCORPION_FAULTS`` spec string could not be parsed."""


_ACTIONS = frozenset({"crash", "oserror", "memerror", "hang"})

_SPEC_RE = re.compile(
    r"^(?P<action>[a-z_]+)"
    r"(?:=(?P<arg>[0-9]*\.?[0-9]+))?"
    r"(?:@(?P<sched>[^~]+))?"
    r"(?:~(?P<mods>[a-z0-9.,]+))?$")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``point:action@schedule~mods`` spec."""

    point: str
    action: str
    arg: float | None = None
    #: Explicit hit numbers (1-based), or None.
    hits: frozenset[int] | None = None
    #: Fire on every hit >= this number, or None.
    hits_from: int | None = None
    #: ...and (with ``hits_from``) no hit beyond this one, or None.
    hits_to: int | None = None
    #: Per-hit Bernoulli probability, or None.
    probability: float | None = None
    seed: int = 0

    def matches_hit(self, hit: int, rng: random.Random | None) -> bool:
        if self.probability is not None:
            assert rng is not None
            return rng.random() < self.probability
        if self.hits is not None:
            return hit in self.hits
        if self.hits_from is not None:
            if hit < self.hits_from:
                return False
            return self.hits_to is None or hit <= self.hits_to
        return True  # no schedule: every hit


def _parse_schedule(sched: str | None) -> dict:
    if sched is None:
        return {}
    sched = sched.strip()
    if sched.startswith("p"):
        try:
            probability = float(sched[1:])
        except ValueError:
            raise FaultError(f"bad probability schedule {sched!r}") from None
        if not 0.0 <= probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], got {sched!r}")
        return {"probability": probability}
    if ".." in sched:
        lo_raw, _, hi_raw = sched.partition("..")
        try:
            lo = int(lo_raw)
            hi = int(hi_raw) if hi_raw else None
        except ValueError:
            raise FaultError(f"bad range schedule {sched!r}") from None
        if lo < 1 or (hi is not None and hi < lo):
            raise FaultError(f"bad range schedule {sched!r}")
        return {"hits_from": lo, "hits_to": hi}
    try:
        hits = frozenset(int(tok) for tok in sched.split(","))
    except ValueError:
        raise FaultError(f"bad hit schedule {sched!r}") from None
    if any(hit < 1 for hit in hits):
        raise FaultError(f"hit numbers are 1-based, got {sched!r}")
    return {"hits": hits}


def _parse_mods(mods: str | None) -> dict:
    out: dict = {}
    if not mods:
        return out
    for token in mods.split(","):
        token = token.strip()
        if not token:
            continue
        kind, value = token[0], token[1:]
        try:
            if kind != "s":
                raise ValueError
            out["seed"] = int(value)
        except ValueError:
            raise FaultError(f"bad modifier {token!r} "
                             "(expected sN seed)") from None
    return out


def parse_faults(raw: str) -> list[FaultSpec]:
    """Parse a ``SCORPION_FAULTS`` string into specs (see module doc)."""
    specs: list[FaultSpec] = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        point, sep, rest = part.partition(":")
        point = point.strip()
        if not sep or not point:
            raise FaultError(f"fault spec {part!r} needs point:action")
        match = _SPEC_RE.match(rest.strip())
        if match is None:
            raise FaultError(f"could not parse fault spec {part!r}")
        action = match.group("action")
        if action not in _ACTIONS:
            raise FaultError(
                f"unknown fault action {action!r} "
                f"(expected one of {sorted(_ACTIONS)})")
        arg = match.group("arg")
        specs.append(FaultSpec(
            point=point,
            action=action,
            arg=float(arg) if arg is not None else None,
            **_parse_schedule(match.group("sched")),
            **_parse_mods(match.group("mods")),
        ))
    return specs


class _ArmedFault:
    """One spec plus its live per-registry state (RNG, fire count)."""

    __slots__ = ("spec", "rng", "fired")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        # Key the stream by (seed, point) so two probabilistic specs
        # never share one flip sequence.
        self.rng = (random.Random(f"{spec.seed}:{spec.point}")
                    if spec.probability is not None else None)
        self.fired = 0


class FaultRegistry:
    """The armed schedule: per-point hit counters plus the specs that
    decide, on each hit, whether to perform their action."""

    def __init__(self, specs: list[FaultSpec]):
        self._by_point: dict[str, list[_ArmedFault]] = {}
        for spec in specs:
            self._by_point.setdefault(spec.point, []).append(_ArmedFault(spec))
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def points(self) -> frozenset[str]:
        return frozenset(self._by_point)

    def hit(self, name: str) -> None:
        """Count one arrival at ``name`` and fire any matching action."""
        with self._lock:
            hit = self._hits.get(name, 0) + 1
            self._hits[name] = hit
            to_fire: _ArmedFault | None = None
            for armed in self._by_point.get(name, ()):
                if armed.spec.matches_hit(hit, armed.rng):
                    armed.fired += 1
                    to_fire = armed
                    break
        if to_fire is not None:
            self._perform(name, hit, to_fire.spec)

    @staticmethod
    def _perform(name: str, hit: int, spec: FaultSpec) -> None:
        detail = f"injected {spec.action} at {name} (hit {hit})"
        if spec.action == "crash":
            raise InjectedFault(detail)
        if spec.action == "oserror":
            raise OSError(detail)
        if spec.action == "memerror":
            raise MemoryError(detail)
        if spec.action == "hang":
            time.sleep(spec.arg if spec.arg is not None else 60.0)
            return
        raise AssertionError(f"unhandled action {spec.action!r}")

    def stats(self) -> dict[str, dict[str, int]]:
        """``{point: {"hits": n, "fired": m}}`` for every point that was
        hit or armed."""
        with self._lock:
            points = set(self._hits) | set(self._by_point)
            return {
                point: {
                    "hits": self._hits.get(point, 0),
                    "fired": sum(a.fired
                                 for a in self._by_point.get(point, ())),
                }
                for point in sorted(points)
            }


def _registry_from_env() -> FaultRegistry | None:
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return FaultRegistry(parse_faults(raw))


#: The armed registry, or None (the common case: injection disabled).
#: Parsed from ``SCORPION_FAULTS`` at import.
_REGISTRY: FaultRegistry | None = _registry_from_env()


def fault_point(name: str) -> None:
    """Declare an injection point.  Disabled cost: one global load and
    one ``is None`` branch — safe to leave in hot paths."""
    registry = _REGISTRY
    if registry is not None:
        registry.hit(name)


def faults_enabled() -> bool:
    """Whether any schedule is armed in this process."""
    return _REGISTRY is not None


def install_faults(spec: "str | list[FaultSpec]") -> FaultRegistry:
    """Arm a schedule (replacing any armed one) and return its registry."""
    global _REGISTRY
    specs = parse_faults(spec) if isinstance(spec, str) else list(spec)
    _REGISTRY = FaultRegistry(specs)
    return _REGISTRY


def clear_faults() -> None:
    """Disarm fault injection in this process."""
    global _REGISTRY
    _REGISTRY = None


@contextmanager
def fault_injection(spec: "str | list[FaultSpec]"):
    """Arm ``spec`` for the duration of the block, then restore whatever
    was armed before (including "nothing")."""
    global _REGISTRY
    previous = _REGISTRY
    registry = install_faults(spec)
    try:
        yield registry
    finally:
        _REGISTRY = previous


def fault_stats() -> dict[str, dict[str, int]]:
    """Hit/fire counts of the armed registry (empty when disabled)."""
    registry = _REGISTRY
    return {} if registry is None else registry.stats()
