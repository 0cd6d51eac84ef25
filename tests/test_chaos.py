"""Seeded chaos plans, the soak runner's invariants, and the self-test.

Pins the ``repro.chaos`` contracts: plans are deterministic pure data
(same seed, same schedule), event minimums always land, kills are never
scheduled on hang-decorated waves (a SIGKILL landing on the wedged but
alive hung worker would turn the hang into a crash and starve the
watchdog of its detection), a small composed soak runs with every
end-to-end invariant green, and the planted-violation self-test proves
the invariant checker is actually capable of failing.
"""

import pytest

from repro.chaos import (
    CHAOS_KINDS,
    ChaosEvent,
    ChaosPlan,
    ChaosRunner,
    run_selftest,
)

DEVICE = "surface7"


class TestChaosPlan:
    def test_same_seed_same_schedule(self):
        kwargs = dict(device=DEVICE, seed=11, waves=8, wave_size=4)
        first = ChaosPlan.generate(**kwargs)
        second = ChaosPlan.generate(**kwargs)
        assert first.events == second.events
        assert first.describe() == second.describe()
        assert first.drift is not None and second.drift is not None
        assert first.drift.updates == second.drift.updates

    def test_different_seed_different_schedule(self):
        first = ChaosPlan.generate(device=DEVICE, seed=1, waves=10)
        second = ChaosPlan.generate(device=DEVICE, seed=2, waves=10)
        assert first.events != second.events

    def test_event_minimums_are_planned(self):
        plan = ChaosPlan.generate(
            device=DEVICE,
            seed=5,
            waves=10,
            kills=3,
            hangs=2,
            poisons=1,
            drifts=2,
            pressures=1,
            drift_burst=3,
        )
        counts = plan.counts()
        assert counts["kill"] == 3
        assert counts["hang"] == 2
        assert counts["poison"] == 1
        assert counts["drift"] == 6  # two bursts of three deltas
        assert counts["pressure"] == 1

    @pytest.mark.parametrize("seed", [0, 7, 42, 2022, 31337])
    def test_kills_never_share_a_wave_with_a_hang(self, seed):
        plan = ChaosPlan.generate(
            device=DEVICE, seed=seed, waves=6, kills=4, hangs=2
        )
        hang_waves = {e.wave for e in plan.events if e.kind == "hang"}
        kill_waves = {e.wave for e in plan.events if e.kind == "kill"}
        assert not hang_waves & kill_waves

    def test_one_decoration_per_wave(self):
        # hang/poison decorations claim distinct waves so incident
        # attribution stays unambiguous.
        plan = ChaosPlan.generate(
            device=DEVICE, seed=3, waves=6, hangs=3, poisons=3
        )
        decorated = [
            e.wave for e in plan.events if e.kind in ("hang", "poison")
        ]
        assert len(decorated) == len(set(decorated)) == 6

    def test_too_many_decorations_rejected(self):
        with pytest.raises(ValueError, match="distinct waves"):
            ChaosPlan.generate(device=DEVICE, waves=2, hangs=2, poisons=1)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosEvent(0, "meteor")
        with pytest.raises(ValueError):
            ChaosEvent(-1, "kill")
        with pytest.raises(ValueError):
            ChaosEvent(0, "kill", count=0)
        assert all(
            kind in CHAOS_KINDS
            for kind in ("kill", "hang", "poison", "drift")
        )

    def test_plan_is_replayable_pure_data(self):
        plan = ChaosPlan.generate(device=DEVICE, seed=9, waves=4)
        assert plan.events_at(plan.events[0].wave)
        assert plan.describe()
        import pickle

        assert pickle.loads(pickle.dumps(plan)) == plan


class TestChaosRunner:
    def test_runner_rejects_bad_config(self):
        plan = ChaosPlan.generate(device=DEVICE, seed=1, waves=2, kills=0)
        with pytest.raises(ValueError, match="pooled service"):
            ChaosRunner(plan, device=DEVICE, workers=0)
        with pytest.raises(ValueError, match="poison_attempts"):
            ChaosRunner(plan, device=DEVICE, max_job_attempts=99)

    def test_small_composed_soak_all_invariants_green(self):
        plan = ChaosPlan.generate(
            device=DEVICE,
            seed=13,
            waves=5,
            wave_size=4,
            kills=1,
            hangs=1,
            poisons=1,
            drifts=1,
            pressures=0,
        )
        report = ChaosRunner(
            plan, device=DEVICE, workers=2, raise_on_violation=False
        ).run()
        assert report.ok, "\n".join(report.violations)
        assert report.checks > 0
        assert report.kills_injected == 1
        assert report.hangs_detected == 1
        assert report.quarantined == report.expected_quarantined == 1
        assert report.drift_updates == 3
        assert sum(report.respawns.values()) >= 2  # the kill + the hang
        assert report.resolved + report.quarantined == report.admitted
        digest = report.to_dict()
        assert digest["violations"] == []
        assert "kills_injected" in digest
        assert "0 violations (OK)" in report.format()


class TestSelfTest:
    def test_planted_violation_is_caught(self):
        report = run_selftest(device=DEVICE, workers=1, seed=97)
        assert len(report.violations) == 1
        assert "byte-identical" in report.violations[0]
