import pytest

from pslift.pddl import (
    ActionSchema,
    ArityMismatch,
    Atom,
    PddlError,
    PddlSyntaxError,
    Task,
    UndeclaredObject,
    UndeclaredPredicate,
    UnknownType,
    UnsupportedFeature,
    load_task,
    parse_domain,
    parse_instance,
)

import oracles
from oracles import signature, write_domain, write_problem
from conftest import BW2_TEXT, BW_DOMAIN_TEXT, SPANNER_MINI_DOMAIN, SPANNER_MINI_PROBLEM
from pslift.bench import validate_plan
from pslift.lifted import ROOT, GroundAction, apply, instantiations
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic
from pslift.search import gbfs_partial, gbfs_state

# a truck loads only at the constant `depot`
DEPOT_DOMAIN = """
(define (domain depot-run)
  (:requirements :strips :typing)
  (:types truck place - object)
  (:constants depot - place)
  (:predicates (at ?v - truck ?p - place) (road ?from ?to - place) (loaded ?v - truck))
  (:action drive
    :parameters (?v - truck ?from ?to - place)
    :precondition (and (at ?v ?from) (road ?from ?to))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action load
    :parameters (?v - truck)
    :precondition (and (at ?v depot))
    :effect (and (loaded ?v)))
)
"""

DEPOT_PROBLEM = """
(define (problem depot-run-1)
  (:domain depot-run)
  (:objects t1 - truck field farm - place)
  (:init (at t1 field) (road field depot) (road depot farm) (road field farm))
  (:goal (and (loaded t1) (at t1 farm)))
)
"""


class TestParseDomain:
    def test_blocksworld_counts(self, bw_domain):
        assert len(bw_domain.predicates) == 5
        assert len(bw_domain.schemas) == 4
        assert [s.name for s in bw_domain.schemas] == ["pickup", "putdown", "stack", "unstack"]

    def test_zero_actions_is_valid(self):
        d = parse_domain("(define (domain empty) (:predicates (p ?x)))")
        assert d.schemas == []
        assert d.predicates == [("p", 1)]

    def test_forall_rejected(self):
        text = """(define (domain bad) (:predicates (p ?x))
          (:action a :parameters (?x)
            :precondition (forall (?y) (p ?y)) :effect (and (p ?x))))"""
        with pytest.raises(UnsupportedFeature) as err:
            parse_domain(text)
        assert err.value.feature == "forall"

    def test_conditional_effect_rejected(self):
        text = """(define (domain bad) (:predicates (p ?x) (q ?x))
          (:action a :parameters (?x)
            :precondition (p ?x) :effect (when (p ?x) (q ?x))))"""
        with pytest.raises(UnsupportedFeature):
            parse_domain(text)

    def test_unknown_requirement_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_domain("(define (domain bad) (:requirements :adl))")

    def test_negative_nonequality_precondition_rejected(self):
        text = """(define (domain bad) (:predicates (p ?x))
          (:action a :parameters (?x)
            :precondition (not (p ?x)) :effect (and (p ?x))))"""
        with pytest.raises(UnsupportedFeature):
            parse_domain(text)

    def test_unbalanced_parens_reports_position(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_domain("(define (domain bad)")
        assert err.value.line >= 1

    @pytest.mark.parametrize("text", [
        "(define (domain))",
        "(define (domain d) (:action))",
        "(define (domain d) (:action a :parameters))",
        "(define (domain d) (:predicates (p)) (:action a :effect (not ())))",
        "(define (domain d) (:predicates (p)) (:action a :effect (not ((p)))))",
        "(define (domain d) (:predicates (p)) (:action a :effect ((p))))",
        "(define (domain d) (:predicates (p)) (:action a :precondition ((p))))",
        "(define (domain d) (:requirements (:strips)))",
    ])
    def test_malformed_sections_raise_pddl_error(self, text):
        with pytest.raises(PddlError):
            parse_domain(text)

    def test_at_sign_names_rejected(self):
        # names containing @ would collide with the relaxation's internal
        # predicates (@goal, @epsilon, @object)
        with pytest.raises(PddlError):
            parse_domain("(define (domain d) (:predicates (@goal)))")

    def test_action_costs_parsed_and_ignored(self):
        text = """(define (domain costed)
          (:requirements :strips :action-costs)
          (:predicates (p ?x))
          (:functions (total-cost))
          (:action a :parameters (?x)
            :precondition (p ?x)
            :effect (and (p ?x) (increase (total-cost) 1))))"""
        d = parse_domain(text)
        assert len(d.schemas) == 1
        assert d.schemas[0].add == [Atom("p", ("?x",))]


class TestParseInstance:
    def test_bw2_counts(self, bw2):
        assert len(bw2.objects) == 2
        assert len(bw2.init) == 5
        assert len(bw2.goal) == 1

    def test_undeclared_goal_predicate(self, bw_domain):
        text = BW2_TEXT.replace("(on a b)", "(shiny a)")
        with pytest.raises(UndeclaredPredicate):
            parse_instance(text, bw_domain)

    @pytest.mark.parametrize("old,new", [
        ("(:goal (and (on a b)))", "(:goal ((on a b)))"),
        ("(problem bw2)", "(problem)"),
        ("(:domain blocksworld)", "(:domain)"),
    ])
    def test_malformed_sections_raise_pddl_error(self, bw_domain, old, new):
        with pytest.raises(PddlError):
            parse_instance(BW2_TEXT.replace(old, new), bw_domain)

    def test_empty_goal_is_goal_state(self, bw_domain):
        text = BW2_TEXT.replace("(:goal (and (on a b)))", "(:goal (and))")
        task = parse_instance(text, bw_domain)
        assert task.goal == frozenset()
        assert task.is_goal(task.initial_state)

    def test_undeclared_object(self, bw_domain):
        text = BW2_TEXT.replace("(ontable a)", "(ontable zonk)")
        with pytest.raises(UndeclaredObject):
            parse_instance(text, bw_domain)

    def test_arity_mismatch(self, bw_domain):
        text = BW2_TEXT.replace("(ontable a)", "(ontable a b)")
        with pytest.raises(ArityMismatch):
            parse_instance(text, bw_domain)


class TestCompileTypes:
    def test_object_type_becomes_static_atom(self, typed_task):
        # t1 - truck also gets the ancestor type vehicle
        assert typed_task.find("truck", ("t1",)) in typed_task.static_atoms
        assert typed_task.find("vehicle", ("t1",)) in typed_task.static_atoms
        assert typed_task.find("truck", ("c1",)) is None

    def test_param_type_becomes_precondition(self, typed_task):
        drive = typed_task.schema("drive")
        assert Atom("vehicle", ("?v",)) in drive.pre
        assert Atom("place", ("?from",)) in drive.pre
        # the root object type never materializes
        assert all(a.pred != "object" for a in drive.pre)

    def test_untyped_input_unchanged(self, bw2):
        names = {p.name for p in bw2.predicates}
        assert names == {"on", "ontable", "clear", "handempty", "holding"}

    def test_domain_constants(self):
        """A typed constant comes first among the objects, with its type
        atoms, and binds like any object where a precondition names it."""
        task = load_task(DEPOT_DOMAIN, DEPOT_PROBLEM)
        assert task.objects == ("depot", "t1", "field", "farm")
        assert task.find("place", ("depot",)) in task.static_atoms
        assert task.find("truck", ("depot",)) is None
        assert Atom("at", ("?v", "depot")) in task.schema("load").pre

        oracle_plan = oracles.bfs_plan(task)
        assert len(oracle_plan) == 3
        state = task.initial_state
        for name, args in oracle_plan:
            got = {(a.name, a.args) for a in instantiations(task, state, ROOT)}
            want = {(s.name, a) for s, a in oracles.oracle_applicable_actions(task, state)}
            assert got == want
            state = apply(task, state, GroundAction(task.schema(name), args))
        assert task.is_goal(state)
        for search, h in ((gbfs_state, FFHeuristic(task)),
                          (gbfs_partial, RestrictedFFHeuristic(task))):
            result = search(task, h)
            assert result.solved and len(result.plan) == len(oracle_plan)
            assert validate_plan(task, result.plan)

    def test_unknown_type_rejected(self):
        domain = """(define (domain bad) (:requirements :typing)
          (:predicates (p ?x)))"""
        problem = "(define (problem b) (:domain bad) (:objects o - ghost) (:init) (:goal (and)))"
        with pytest.raises(UnknownType):
            load_task(domain, problem)


def static_names(task):
    return {p.name for p in task.predicates if p.is_static}


class TestStaticPredicates:
    def test_blocksworld_all_fluent(self, bw2):
        assert static_names(bw2) == set()

    def test_type_predicates_static(self, typed_task):
        names = static_names(typed_task)
        assert {"truck", "car", "vehicle", "place", "shiny"} <= names

    def test_effect_free_schema_leaves_all_static(self):
        task = load_task(
            "(define (domain d) (:predicates (p ?x)) (:action a :parameters (?x) :precondition (p ?x) :effect (and)))",
            "(define (problem q) (:domain d) (:objects o) (:init (p o)) (:goal (and)))",
        )
        assert static_names(task) == {"p"}

    def test_spanner_style_link_static(self, spanner_mini):
        names = static_names(spanner_mini)
        assert "link" in names
        assert "at" not in names

    def test_static_disjoint_from_effects(self, typed_task):
        in_effect = {a.pred for s in typed_task.schemas for a in s.add + s.delete}
        assert not static_names(typed_task) & in_effect


class TestRoundTrip:
    @pytest.mark.parametrize("case", ["bw", "spanner", "typed"])
    def test_write_then_parse_is_structurally_equal(self, case, bw2, spanner_mini, typed_task):
        task = {"bw": bw2, "spanner": spanner_mini, "typed": typed_task}[case]
        reparsed = load_task(write_domain(task), write_problem(task))
        assert signature(reparsed) == signature(task)

    def test_compile_is_idempotent_through_roundtrip(self, typed_task):
        # the written form is untyped; compiling it again must change nothing
        once = load_task(write_domain(typed_task), write_problem(typed_task))
        twice = load_task(write_domain(once), write_problem(once))
        assert signature(once) == signature(twice)


class TestTaskModel:
    def test_interning_is_dense_and_stable(self, bw2):
        i = bw2.intern("on", ("a", "b"))
        j = bw2.intern("on", ("a", "b"))
        assert i == j
        assert bw2.atom(i) == Atom("on", ("a", "b"))

    def test_add_delete_overlap_rejected(self):
        schema = ActionSchema("a", ("?x",), (), (Atom("p", ("?x",)),), (Atom("p", ("?x",)),))
        with pytest.raises(PddlError):
            Task("d", "p", [("p", 1)], [schema], ["o"], [], [])

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(PddlError):
            Task("d", "p", [("p", 1), ("p", 2)], [], ["o"], [], [])
