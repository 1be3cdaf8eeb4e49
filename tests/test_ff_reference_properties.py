"""The FF values against `oracles.ff_reference`, the naive fixpoint in the
enumeration order that the `relaxation` module docstring specifies: plain h,
and restricted h with B the applicable instantiations of a node of the
partial action tree in `instantiations` order, at the states of random walks
on random tasks, on deep tasks and on generator tasks. The first achiever of
an atom depends on that order, so these values catch a change of it that
leaves reachability alone.

The full fixpoint of `relaxed_reach` is checked against
`oracles.reference_reach` too, in every atom's layer and achiever in commit
order, without and with B: a join plan may skip a binding only where it
would derive no head that is not already known, as the cap on a variable
that only inequalities read does (`lifted._join_steps`), and a skip that
moved an achiever that extraction never visits, or the commit order, would
leave h alone. The heuristic paths' fixpoint, which probes the layer that
reaches the last goal atom instead of running it, gives each goal atom the
full fixpoint's layer and achiever."""

import random
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.lifted import ROOT, _apply_effects, _query_body, children, instantiations  # noqa: E402
from pslift.pddl import load_task  # noqa: E402
from pslift.relaxation import GOAL_KEY, DatalogProgram, FFHeuristic, RestrictedFFHeuristic  # noqa: E402
from pslift.search import gbfs_state  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS, deep_strips_task, random_strips_task  # noqa: E402


def check_node(task, restricted, state, rho) -> None:
    actions = list(instantiations(task, state, rho))
    assert restricted(state, rho) == oracles.ff_reference(task, state, actions), rho


def check_state(task, plain, restricted, state, draw=None) -> None:
    """Plain h, and restricted h at every node of the first two levels of
    the partial action tree and, with `draw`, at a drawn path down the tree
    below one of them."""
    assert plain(state) == oracles.ff_reference(task, state)
    kids = children(task, state, ROOT)
    for rho in kids:
        check_node(task, restricted, state, rho)
        for kid in children(task, state, rho):
            check_node(task, restricted, state, kid)
    if draw is not None and kids:
        rho = draw(st.sampled_from(kids))
        while not rho.is_full:
            rho = draw(st.sampled_from(children(task, state, rho)))
            check_node(task, restricted, state, rho)


def check_walk(data, task, steps) -> None:
    plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
    state = task.initial_state
    check_state(task, plain, restricted, state, data.draw)
    for _ in range(data.draw(st.integers(0, steps))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
        check_state(task, plain, restricted, state, data.draw)


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_h_equals_the_reference_on_random_tasks(data):
    check_walk(data, random_strips_task(data), 3)


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_h_equals_the_reference_on_deep_tasks(data):
    check_walk(data, deep_strips_task(data), 5)


@pytest.mark.parametrize("family, params", [
    ("blocksworld", dict(blocks=4)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=2, boxes=4, marked=1)),
])
def test_h_equals_the_reference_on_generator_walks(family, params):
    for seed in range(3):
        task = generate_task(family, seed=seed, **params)
        plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
        rng = random.Random(seed)
        state = task.initial_state
        for _ in range(15):
            check_state(task, plain, restricted, state)
            state = _apply_effects(task, state, rng.choice(list(instantiations(task, state, ROOT))))


def long_body_task():
    """A task whose one schema has 27 preconditions: a walk of six links
    over a four-node cycle, each node after the first marked, open and near
    itself, plus a free ?y near itself. Its adds have a ground head, a head
    bound at the second step and heads bound deep in the join, so the
    first-completion cut-offs cross the functions that a plan's loops are
    split into."""
    xs = [f"?x{i}" for i in range(7)]
    pre = ["(at ?x0)"] + [f"(link {a} {b})" for a, b in zip(xs, xs[1:])]
    for p in ("mark", "open"):
        pre += [f"({p} {x})" for x in xs[1:]]
    pre += [f"(near {x} {x})" for x in xs[1:]] + ["(near ?x6 ?x3)", "(near ?y ?y)"]
    domain = f"""(define (domain long-body)
      (:requirements :strips :equality)
      (:predicates (at ?x) (link ?x ?y) (mark ?x) (open ?x) (near ?x ?y)
                   (visited ?x) (moved) (seen ?x ?y))
      (:action hop
        :parameters ({' '.join(xs)} ?y)
        :precondition (and {' '.join(pre)} (not (= ?x6 ?x0)))
        :effect (and (at ?x6) (not (at ?x0)) (visited ?x1) (moved) (seen ?y ?x6))))"""
    nodes = [f"n{i}" for i in range(4)]
    init = ["(at n0)"] + [f"(link {a} {b})" for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    init += [f"({p} {o})" for p in ("mark", "open") for o in nodes]
    init += [f"(near {a} {b})" for a in nodes for b in nodes if {a, b} != {"n0", "n3"}]
    problem = f"""(define (problem walk) (:domain long-body) (:objects {' '.join(nodes)})
      (:init {' '.join(init)}) (:goal (and (visited n3) (seen n1 n0))))"""
    return load_task(domain, problem)


def test_h_equals_the_reference_on_a_schema_of_27_preconditions():
    # more join steps than CPython nests loops in one function (20): the
    # plans split them into functions
    task = long_body_task()
    assert len(_query_body(task.schemas[0])) == 27
    plain, restricted = FFHeuristic(task), RestrictedFFHeuristic(task)
    result = gbfs_state(task, plain)
    assert result.solved and len(result.plan) == 2
    state = task.initial_state
    for action in [None] + result.plan:
        if action is not None:
            state = _apply_effects(task, state, action)
        assert plain(state) == oracles.ff_reference(task, state)
        for rho in children(task, state, ROOT):
            check_node(task, restricted, state, rho)


def capped(program) -> bool:
    """True if a join plan of program caps the values of a variable."""
    return any(re.search(r"\n *c\d+ = ", plan.source)
               for rule in program.rules for plan in rule.plans)


def check_reach(program, state, actions=None) -> None:
    """The full fixpoint from state, with B = actions if given, equals the
    reference in every layer and achiever, in commit order; `@goal` has the
    reference's layer."""
    reach = program.relaxed_reach(state, actions)
    layers, achievers = oracles.reference_reach(program.task, state, actions)
    goal = (oracles.GOAL, ())
    assert reach.key_layers.get(GOAL_KEY) == layers.pop(goal, None)
    achievers.pop(goal, None)
    got_layers, got_achievers = oracles.reference_form(program, reach, actions)
    assert list(got_layers.items()) == list(layers.items())
    assert list(got_achievers.items()) == list(achievers.items())


def check_goal_atoms(program, state, actions=None) -> None:
    """The heuristic paths' fixpoint from state, with B = actions if given,
    gives each goal atom and `@goal` the layer and achiever of the full
    fixpoint, which `check_reach` judges."""
    cut = program._fixpoint(state, actions)
    full = program.relaxed_reach(state, actions)
    for key in program._goal + [GOAL_KEY]:
        assert cut.key_layers.get(key) == full.key_layers.get(key)
        assert cut.key_achievers.get(key) == full.key_achievers.get(key)


@settings(SETTINGS, max_examples=200)
@given(st.data())
def test_reach_equals_the_reference_on_random_tasks(data):
    task = random_strips_task(data)
    program = DatalogProgram(task)
    event(f"a plan caps a variable: {capped(program)}")
    state = task.initial_state
    for _ in range(data.draw(st.integers(0, 3)) + 1):
        check_reach(program, state)
        check_goal_atoms(program, state)
        for rho in children(task, state, ROOT):
            actions = list(instantiations(task, state, rho))
            check_reach(program, state, actions)
            check_goal_atoms(program, state, actions)
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))


@pytest.mark.parametrize("stacks, marked, seed, checked", [
    (8, 3, 0, range(0, 41, 8)),
    (12, 3, 1, [40]),
])
def test_reach_equals_the_reference_on_warehouse_walks(stacks, marked, seed, checked):
    # from the second layer on, Δon(?b,?from) holds several ?from for a ?b,
    # and Δclear(?to) several ?to: the caps of `move`'s plans skip values
    task = generate_task("warehouse-like", seed=seed, stacks=stacks, marked=marked)
    program = DatalogProgram(task)
    assert capped(program)
    rng = random.Random(seed)
    state = task.initial_state
    for step in range(41):
        if step in checked:
            check_reach(program, state)
            rho = rng.choice(children(task, state, ROOT))
            check_reach(program, state, list(instantiations(task, state, rho)))
        # the goal atoms at every step, with B of one child of the root
        kids = children(task, state, ROOT)
        check_goal_atoms(program, state)
        check_goal_atoms(program, state, list(instantiations(task, state, kids[step % len(kids)])))
        state = _apply_effects(task, state, rng.choice(list(instantiations(task, state, ROOT))))
