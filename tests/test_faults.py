"""Unit tests for the deterministic fault-injection registry.

Covers the ``SCORPION_FAULTS`` grammar (actions, args, hit schedules,
the seed modifier, every rejection path), schedule semantics (Nth hit,
lists, ranges, open ranges, seeded Bernoulli determinism), programmatic
arming (install / clear / context-managed restore), per-point
hit/fire accounting, and the disabled fast path.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.faults.registry as registry_mod
from repro.faults import (
    FaultError,
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    clear_faults,
    fault_injection,
    fault_point,
    fault_stats,
    faults_enabled,
    install_faults,
    parse_faults,
)


@pytest.fixture(autouse=True)
def _preserve_ambient_registry():
    """Save/restore whatever schedule the process was armed with (a run
    may arm one via ``SCORPION_FAULTS``) so these tests can install and
    clear schedules freely."""
    previous = registry_mod._REGISTRY
    try:
        yield
    finally:
        registry_mod._REGISTRY = previous


class TestGrammar:
    def test_single_spec(self):
        (spec,) = parse_faults("service.checkout:crash@2")
        assert spec == FaultSpec(point="service.checkout", action="crash",
                                 hits=frozenset({2}))

    def test_multi_spec_with_blanks(self):
        specs = parse_faults(
            "service.checkout:crash@2; ;service.build:oserror@1;")
        assert [s.point for s in specs] == ["service.checkout",
                                            "service.build"]
        assert [s.action for s in specs] == ["crash", "oserror"]

    def test_arg_and_defaults(self):
        (hang,) = parse_faults("serve.read:hang=0.25")
        assert hang.arg == 0.25
        (bare,) = parse_faults("service.build:memerror")
        assert bare.arg is None and bare.hits is None \
            and bare.probability is None

    def test_hit_list_and_ranges(self):
        (listed,) = parse_faults("p:crash@2,5")
        assert listed.hits == frozenset({2, 5})
        (ranged,) = parse_faults("p:crash@2..4")
        assert (ranged.hits_from, ranged.hits_to) == (2, 4)
        (open_ranged,) = parse_faults("p:crash@2..")
        assert (open_ranged.hits_from, open_ranged.hits_to) == (2, None)

    def test_probability_and_mods(self):
        (spec,) = parse_faults("p:crash@p0.3~s42")
        assert spec.probability == 0.3
        assert spec.seed == 42

    @pytest.mark.parametrize("raw", [
        "no-colon",                 # missing point:action
        ":crash@1",                 # empty point
        "p:frobnicate@1",           # unknown action
        "p:crash@zero",             # non-numeric hit
        "p:crash@0",                # hits are 1-based
        "p:crash@4..2",             # inverted range
        "p:crash@pnope",            # bad probability literal
        "p:crash@p1.5",             # probability out of [0, 1]
        "p:crash@1~z9",             # unknown modifier
        "p:crash@1~sx",             # non-numeric seed
        "p:exit@1",                 # no such action
        "p:crash@1~g1",             # no such modifier
    ])
    def test_rejections(self, raw):
        with pytest.raises(FaultError):
            parse_faults(raw)


def _fires(spec: FaultSpec, hits: int) -> list[int]:
    """Drive one armed registry ``hits`` times; return the 1-based hit
    numbers on which it fired (``crash`` specs only)."""
    reg = FaultRegistry([spec])
    fired = []
    for hit in range(1, hits + 1):
        try:
            reg.hit(spec.point)
        except InjectedFault:
            fired.append(hit)
    return fired


class TestSchedules:
    def test_nth_hit(self):
        spec = parse_faults("p:crash@3")[0]
        assert _fires(spec, 5) == [3]

    def test_hit_list(self):
        spec = parse_faults("p:crash@1,4")[0]
        assert _fires(spec, 5) == [1, 4]

    def test_closed_range(self):
        spec = parse_faults("p:crash@2..4")[0]
        assert _fires(spec, 6) == [2, 3, 4]

    def test_open_range(self):
        spec = parse_faults("p:crash@3..")[0]
        assert _fires(spec, 6) == [3, 4, 5, 6]

    def test_no_schedule_fires_every_hit(self):
        spec = parse_faults("p:crash")[0]
        assert _fires(spec, 3) == [1, 2, 3]

    def test_bernoulli_is_deterministic_per_seed(self):
        spec = parse_faults("p:crash@p0.5~s7")[0]
        first = _fires(spec, 40)
        assert _fires(spec, 40) == first          # same seed, same flips
        assert 0 < len(first) < 40                # actually probabilistic
        reseeded = parse_faults("p:crash@p0.5~s8")[0]
        assert _fires(reseeded, 40) != first      # seed changes the stream

    def test_bernoulli_stream_is_keyed_by_point(self):
        a = parse_faults("alpha:crash@p0.5~s7")[0]
        b = parse_faults("beta:crash@p0.5~s7")[0]
        fired_a = _fires(a, 40)
        fired_b = FaultRegistry([b])
        got_b = []
        for hit in range(1, 41):
            try:
                fired_b.hit("beta")
            except InjectedFault:
                got_b.append(hit)
        assert got_b != fired_a

    def test_actions_raise_the_right_types(self):
        with pytest.raises(OSError):
            FaultRegistry(parse_faults("p:oserror@1")).hit("p")
        with pytest.raises(MemoryError):
            FaultRegistry(parse_faults("p:memerror@1")).hit("p")
        with pytest.raises(InjectedFault):
            FaultRegistry(parse_faults("p:crash@1")).hit("p")

    def test_hang_sleeps_its_arg(self, monkeypatch):
        slept = []
        monkeypatch.setattr(registry_mod.time, "sleep", slept.append)
        FaultRegistry(parse_faults("p:hang=1.5@1")).hit("p")
        assert slept == [1.5]


class TestArming:
    def test_disabled_fast_path(self):
        clear_faults()
        assert not faults_enabled()
        assert fault_stats() == {}
        fault_point("anything")  # must be a no-op, not a KeyError

    def test_install_and_clear(self):
        install_faults("p:crash@1")
        assert faults_enabled()
        with pytest.raises(InjectedFault):
            fault_point("p")
        clear_faults()
        fault_point("p")  # disarmed: silent

    def test_context_restores_previous_registry(self):
        ambient = install_faults("outer:crash@1")
        with fault_injection("inner:oserror@1"):
            with pytest.raises(OSError):
                fault_point("inner")
            fault_point("outer")  # ambient schedule replaced, not merged
        assert registry_mod._REGISTRY is ambient
        with pytest.raises(InjectedFault):
            fault_point("outer")

    def test_context_restores_disabled_state(self):
        clear_faults()
        with fault_injection("p:crash@1"):
            assert faults_enabled()
        assert not faults_enabled()

    def test_stats_count_hits_and_fires(self):
        with fault_injection("p:crash@2;q:oserror@1"):
            fault_point("p")
            with pytest.raises(InjectedFault):
                fault_point("p")
            fault_point("p")  # past its hit: counted, not fired
            assert fault_stats() == {
                "p": {"hits": 3, "fired": 1},
                "q": {"hits": 0, "fired": 0},
            }

    def test_unarmed_points_still_counted(self):
        with fault_injection("p:crash@99"):
            fault_point("unrelated")
            assert fault_stats()["unrelated"] == {"hits": 1, "fired": 0}

    def test_env_arms_a_fresh_process(self):
        """A process started with ``SCORPION_FAULTS`` set arms itself at
        import."""
        code = (
            "from repro.faults import faults_enabled, fault_point, "
            "InjectedFault\n"
            "assert faults_enabled()\n"
            "try:\n"
            "    fault_point('p')\n"
            "except InjectedFault:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        env = dict(os.environ, SCORPION_FAULTS="p:crash@1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.abspath(__file__))),
                              timeout=60)
        assert proc.returncode == 0
