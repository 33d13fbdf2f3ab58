"""Tests for the deterministic fault-injection framework (:mod:`repro.faults`).

The framework's whole value is determinism: the same (seed, site, hit)
triple always decides the same way, in any process, so chaos schedules
replay bit-identically.  These tests pin the plan syntax (text and JSON),
the schedule math, nth/limit semantics, cross-process counter sharing and
the arm/disarm lifecycle.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def _clean_arming(monkeypatch):
    """Every test starts unarmed and leaves nothing armed behind."""
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.SEED_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.disarm()
    yield
    faults.disarm()


class TestPlanParsing:
    def test_compact_text_round_trips_through_json(self):
        plan = faults.FaultPlan.parse(
            "worker.run:crash:nth=1;kb.flush:torn-write;"
            "client.send:drop-connection:p=0.5;worker.run:sleep:seconds=2",
            seed=7,
        )
        assert len(plan.rules) == 4
        assert plan.seed == 7
        again = faults.FaultPlan.parse(plan.to_json())
        assert again == plan

    def test_json_object_form(self):
        plan = faults.FaultPlan.parse(json.dumps({
            "seed": 3,
            "rules": [
                {"site": "worker.run", "kind": "crash", "nth": 2, "exit_code": 9},
                {"site": "kb.flush", "kind": "fsync-fail"},
            ],
        }))
        assert plan.seed == 3
        assert plan.rules[0] == faults.FaultRule(
            site="worker.run", kind="crash", nth=2, exit_code=9)
        assert plan.rules[1].kind == "fsync-fail"

    def test_empty_plan(self):
        assert faults.FaultPlan.parse("") == faults.FaultPlan()

    @pytest.mark.parametrize("bad", [
        "worker.run",                    # no kind
        "worker.run:explode",            # unknown kind
        "worker.run:crash:wat",          # option without '='
        "worker.run:crash:bogus=1",      # unknown option
        "worker.run:crash:nth=often",    # non-integer value
        "[not json",                     # broken JSON
        '[{"kind": "crash"}]',           # JSON rule without a site
    ])
    def test_bad_plans_raise_typed_error(self, bad):
        with pytest.raises(faults.FaultPlanError):
            faults.FaultPlan.parse(bad)

    def test_every_declared_kind_parses(self):
        for kind in faults.KINDS:
            plan = faults.FaultPlan.parse("some.site:%s" % kind)
            assert plan.rules[0].kind == kind

    def test_site_glob_matching(self):
        rule = faults.FaultRule(site="client.*", kind="error")
        assert rule.matches("client.send")
        assert rule.matches("client.recv")
        assert not rule.matches("worker.run")


class TestSchedule:
    def test_draws_are_pinned(self):
        """Pinned chaos schedules must replay identically across releases."""
        assert faults._draw(0, "kb.flush", 0) == 0.6556081368336953
        assert faults._draw(0, "x", 7) == 0.015973602768361975
        assert faults._draw(1, "worker.crash", 1) == 0.8996606518901827
        assert faults._draw(99, "x", 7) == 0.31435028523949193

    def test_same_seed_same_schedule(self):
        plan = faults.FaultPlan.parse("site.a:error:p=0.3", seed=42)
        baseline = faults.FaultInjector(plan)
        first = [baseline.fire("site.a") is not None for _ in range(50)]
        schedules = []
        for _ in range(3):
            injector = faults.FaultInjector(plan)
            schedules.append([injector.fire("site.a") is not None
                              for _ in range(50)])
        assert all(schedule == schedules[0] for schedule in schedules)
        assert first == schedules[0]
        # A p=0.3 rule over 50 hits fires sometimes and skips sometimes.
        assert 0 < sum(schedules[0]) < 50

    def test_different_seeds_differ(self):
        schedules = []
        for seed in (1, 2, 3, 4):
            plan = faults.FaultPlan.parse("site.a:error:p=0.5", seed=seed)
            injector = faults.FaultInjector(plan)
            schedules.append(tuple(injector.fire("site.a") is not None
                                   for _ in range(64)))
        assert len(set(schedules)) > 1

    def test_nth_fires_exactly_once(self):
        plan = faults.FaultPlan.parse("site.a:error:nth=3")
        injector = faults.FaultInjector(plan)
        fired = [injector.fire("site.a") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_limit_caps_firings(self):
        plan = faults.FaultPlan.parse("site.a:error:limit=2")
        injector = faults.FaultInjector(plan)
        fired = [injector.fire("site.a") is not None for _ in range(5)]
        assert sum(fired) == 2 and fired[:2] == [True, True]

    def test_unrelated_site_never_fires(self):
        plan = faults.FaultPlan.parse("site.a:error")
        injector = faults.FaultInjector(plan)
        assert injector.fire("site.b") is None
        assert injector.hits("site.b") == 0  # non-matching sites are free

    def test_state_dir_shares_counters_across_injectors(self, tmp_path):
        """A respawned process must not re-fire a spent nth rule."""
        plan = faults.FaultPlan.parse("site.a:error:nth=2")
        state = str(tmp_path / "fault-state")
        first = faults.FaultInjector(plan, state_dir=state)
        assert first.fire("site.a") is None      # hit 1
        # "New process": a fresh injector over the same state dir.
        second = faults.FaultInjector(plan, state_dir=state)
        assert second.fire("site.a") is not None  # hit 2 -> fires
        third = faults.FaultInjector(plan, state_dir=state)
        assert third.fire("site.a") is None       # hit 3 -> spent
        assert third.hits("site.a") == 3

    def test_state_dir_counters_survive_real_fork(self, tmp_path):
        plan = faults.FaultPlan.parse("site.a:error:nth=2")
        state = str(tmp_path / "fault-state")
        faults.FaultInjector(plan, state_dir=state).fire("site.a")  # hit 1

        def child(conn):
            injector = faults.FaultInjector(plan, state_dir=state)
            conn.send(injector.fire("site.a") is not None)
            conn.close()

        ctx = multiprocessing.get_context("fork")
        parent, child_end = ctx.Pipe()
        proc = ctx.Process(target=child, args=(child_end,))
        proc.start()
        assert parent.recv() is True  # the fork saw hit 2 and fired
        proc.join(10)


class TestArming:
    def test_unarmed_site_is_inert(self):
        assert faults.maybe_fire("worker.run") is None

    def test_arm_and_disarm(self):
        faults.arm(faults.FaultPlan.parse("site.a:error"))
        with pytest.raises(faults.InjectedFault) as excinfo:
            faults.maybe_fire("site.a")
        assert excinfo.value.site == "site.a"
        faults.disarm()
        assert faults.maybe_fire("site.a") is None

    def test_environment_arms_lazily(self, monkeypatch, tmp_path):
        plan = faults.FaultPlan.parse("site.a:error", seed=5)
        for key, value in faults.plan_environment(
                plan, state_dir=str(tmp_path)).items():
            monkeypatch.setenv(key, value)
        faults.disarm()
        # disarm pins "nothing armed" even with the env set...
        assert faults.maybe_fire("site.a") is None
        # ...until explicitly re-armed or re-read in a fresh process.
        faults._ARMED = None
        armed = faults.injector()
        assert armed is not None
        assert armed.plan == plan
        assert armed.state_dir == str(tmp_path)

    def test_sleep_kind_blocks_briefly(self):
        import time

        faults.arm(faults.FaultPlan.parse("site.a:sleep:seconds=0.1"))
        start = time.monotonic()
        rule = faults.maybe_fire("site.a")
        assert rule is not None and rule.kind == "sleep"
        assert time.monotonic() - start >= 0.09

    def test_special_kinds_are_returned_not_executed(self):
        faults.arm(faults.FaultPlan.parse(
            "a:hang;b:torn-write;c:fsync-fail;d:exhaust-budget;e:drop-connection"))
        for site, kind in [("a", "hang"), ("b", "torn-write"),
                           ("c", "fsync-fail"), ("d", "exhaust-budget"),
                           ("e", "drop-connection")]:
            rule = faults.maybe_fire(site)
            assert rule is not None and rule.kind == kind

    def test_crash_kind_exits_with_code(self, tmp_path):
        """``crash`` must be a hard process death with the configured code."""
        code = subprocess.run(
            [sys.executable, "-c",
             "from repro import faults\n"
             "faults.arm(faults.FaultPlan.parse('site.a:crash:exit_code=23'))\n"
             "faults.maybe_fire('site.a')\n"
             "raise SystemExit(0)"],
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src")),
            timeout=60,
        ).returncode
        assert code == 23

    def test_sites_registry_is_well_formed(self):
        assert len(set(faults.SITES)) == len(faults.SITES)
        for site in faults.SITES:
            assert "." in site
