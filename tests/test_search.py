import os
import time

import pytest

from pslift.generators import generate_task
from pslift.lifted import ROOT, PartialAction
from pslift.pddl import parse_instance
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic
from pslift.search import (
    EXHAUSTED,
    SOLVED,
    UNSOLVABLE,
    Limits,
    _current_rss_kb,
    SearchNode,
    extract_plan,
    format_plan,
    gbfs_partial,
    gbfs_state,
    parse_plan,
)
from pslift.bench import validate_plan

import oracles
from conftest import BW2_TEXT


def blind(state):
    return 0.0


def blind_pair(state, rho):
    return 0.0


class TestGbfsState:
    def test_bw2_ff_finds_optimal_plan(self, bw2):
        result = gbfs_state(bw2, FFHeuristic(bw2))
        assert result.status == SOLVED
        assert [(a.schema.name,) + a.args for a in result.plan] == [
            ("pickup", "a"),
            ("stack", "a", "b"),
        ]
        assert len(result.plan) == len(oracles.bfs_plan(bw2))

    def test_goal_init_returns_empty_plan(self, bw_domain):
        text = BW2_TEXT.replace("(on a b)", "(ontable a)")
        task = parse_instance(text, bw_domain)
        result = gbfs_state(task, FFHeuristic(task))
        assert result.status == SOLVED and result.plan == []
        assert result.stats.expansions == 0

    def test_unreachable_goal_exhausts_to_unsolvable(self, bw_domain):
        # both blocks cannot be on each other
        text = BW2_TEXT.replace("(on a b)", "(on a b) (on b a)")
        task = parse_instance(text, bw_domain)
        result = gbfs_state(task, blind)
        assert result.status == UNSOLVABLE
        assert oracles.bfs_plan(task) is None

    def test_expansion_cap(self, bw2):
        result = gbfs_state(bw2, blind, Limits(max_expansions=0))
        assert result.status == EXHAUSTED and result.reason == "expansions"


class TestGbfsPartial:
    def test_bw2_restricted_ff(self, bw2):
        result = gbfs_partial(bw2, RestrictedFFHeuristic(bw2))
        assert result.status == SOLVED
        assert validate_plan(bw2, result.plan)
        assert len(result.plan) == 2
        # derived by hand: three real expansions, five heuristic calls
        assert result.stats.expansions == 3
        assert result.stats.evaluations == 5
        assert result.stats.generated == 10

    def test_goal_init_zero_expansions(self, bw_domain):
        text = BW2_TEXT.replace("(on a b)", "(ontable b)")
        task = parse_instance(text, bw_domain)
        result = gbfs_partial(task, RestrictedFFHeuristic(task))
        assert result.status == SOLVED and result.plan == []
        assert result.stats.expansions == 0

    def test_plans_validate_on_generated_tasks(self):
        for seed in range(6):
            task = generate_task("blocksworld", seed=seed, blocks=4)
            result = gbfs_partial(task, RestrictedFFHeuristic(task))
            assert result.status == SOLVED
            assert validate_plan(task, result.plan)

    def test_collapsed_hops_not_evaluated(self, bw2):
        """Forcing a single applicable action chain: evaluations stay below the
        generated node count because hops skip the heuristic."""
        result = gbfs_partial(bw2, blind_pair)
        assert result.status == SOLVED
        assert result.stats.evaluations < result.stats.generated

    def test_dead_initial_state_is_unsolvable(self, bw_domain):
        # no hand and nothing stacked: no action applies anywhere
        text = BW2_TEXT.replace(" (handempty)", "")
        task = parse_instance(text, bw_domain)
        result = gbfs_partial(task, RestrictedFFHeuristic(task))
        assert result.status == UNSOLVABLE

    def test_determinism(self, bw3_stack):
        h = RestrictedFFHeuristic(bw3_stack)
        a = gbfs_partial(bw3_stack, h)
        b = gbfs_partial(bw3_stack, h)
        assert a.status == b.status == SOLVED
        assert a.plan == b.plan
        assert (a.stats.expansions, a.stats.evaluations, a.stats.generated) == (
            b.stats.expansions, b.stats.evaluations, b.stats.generated)


class TestLimits:
    """Limits are honoured close to where they are crossed."""

    @pytest.mark.parametrize("field,value", [
        ("time_s", -1.0), ("time_s", float("nan")), ("memory_mb", -3.0),
        ("memory_mb", float("nan")), ("max_expansions", -5),
    ])
    def test_negative_or_nan_limit_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 0"):
            Limits(**{field: value})

    def test_zero_and_infinite_limits_are_accepted(self):
        assert Limits(time_s=0.0, memory_mb=float("inf"), max_expansions=0).time_s == 0.0

    @pytest.mark.parametrize("space", ["state", "partial"])
    def test_time_limit_overshoot_is_at_most_one_evaluation(self, space):
        task = generate_task("blocksworld", seed=1, blocks=8)
        durations = []

        def slow(*args):
            started = time.monotonic()
            time.sleep(0.05)
            durations.append(time.monotonic() - started)
            return 1.0

        limit = 0.25
        search = gbfs_state if space == "state" else gbfs_partial
        result = search(task, slow, Limits(time_s=limit))
        assert result.status == EXHAUSTED and result.reason == "time"
        # one evaluation, plus a margin for the search's own work
        assert result.stats.wall_time <= limit + max(durations) + 0.05

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="current RSS needs /proc")
    def test_memory_limit_ignores_an_earlier_peak(self, bw2):
        buffer = b"x" * (256 << 20)  # pages are written, so they count as resident
        peak_kb = _current_rss_kb()
        del buffer
        now_kb = _current_rss_kb()
        assert peak_kb - now_kb > 200 << 10
        limit_mb = (peak_kb + now_kb) / 2 / 1024
        result = gbfs_state(bw2, FFHeuristic(bw2), Limits(memory_mb=limit_mb))
        assert result.status == SOLVED


class TestCompletenessParity:
    @pytest.mark.parametrize("family,params", [
        ("blocksworld", dict(blocks=3)),
        ("ferry-like", dict(cars=2, locations=2)),
    ])
    def test_partial_solves_iff_blind_bfs_does(self, family, params):
        for seed in range(4):
            task = generate_task(family, seed=seed, **params)
            oracle = oracles.bfs_plan(task)
            result = gbfs_partial(task, RestrictedFFHeuristic(task),
                                  Limits(max_expansions=300_000))
            assert result.status in (SOLVED, UNSOLVABLE)
            assert (result.status == SOLVED) == (oracle is not None)


class TestExtractPlan:
    def test_keeps_only_state_transitions(self, bw2):
        pickup = bw2.schema("pickup")
        stack = bw2.schema("stack")
        s0 = bw2.initial_state
        n0 = SearchNode(s0, ROOT)
        n1 = SearchNode(s0, PartialAction(pickup, ()), n0)
        n2 = SearchNode(s0, PartialAction(pickup, ("a",)), n1)
        s1 = frozenset()
        a1 = PartialAction(pickup, ("a",))
        n3 = SearchNode(s1, ROOT, n2, generating_action=a1)
        n4 = SearchNode(s1, PartialAction(stack, ("a", "b")), n3)
        a2 = PartialAction(stack, ("a", "b"))
        n5 = SearchNode(frozenset(), ROOT, n4, generating_action=a2)
        assert extract_plan(n5) == [a1, a2]

    def test_root_goal_is_empty_plan(self, bw2):
        assert extract_plan(SearchNode(bw2.initial_state, ROOT)) == []

    def test_state_space_chain(self, bw2):
        pickup = bw2.schema("pickup")
        a = PartialAction(pickup, ("b",))
        n0 = SearchNode(bw2.initial_state, ROOT)
        n1 = SearchNode(frozenset(), ROOT, n0, generating_action=a)
        assert extract_plan(n1) == [a]


class TestPlanFormat:
    def test_roundtrip(self, bw2):
        plan = [PartialAction(bw2.schema("pickup"), ("a",)),
                PartialAction(bw2.schema("stack"), ("a", "b"))]
        text = format_plan(plan)
        assert text.splitlines()[0] == "(pickup a)"
        assert text.splitlines()[-1] == "; cost = 2 (unit cost)"
        assert parse_plan(text, bw2) == plan

    def test_malformed_line_rejected(self, bw2):
        with pytest.raises(ValueError):
            parse_plan("pickup a", bw2)
