"""Tests of the goal cut-off: on random STRIPS tasks and on generator tasks,
at random-walk states, the heuristic values, which stop the fixpoint as
soon as every goal atom has its achiever, equal extraction from the full
fixpoint of `relaxed_reach`, and are inf exactly on the oracle's relaxed
dead ends. The restricted value is checked at each child of the root of
the partial action tree and at each of their children, so that B ranges
from every action of a schema down to a few, and reaches the stop after B
at layer 1 as well as the stop after a schema rule. Restricted
reachability with an action set B matches the grounded fixpoint of the
materialised restricted task. The program's compiled index fills, and the
successor query's, build the tables that the reference fill of `oracles`
builds."""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift import lifted  # noqa: E402
from pslift.generators import generate_task  # noqa: E402
from pslift.lifted import ROOT, _apply_effects, children, instantiations  # noqa: E402
from pslift.relaxation import _OLD, DatalogProgram, RestrictedFFHeuristic  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402


def check_cutoff(task, program, restricted, state) -> None:
    h = program.h_ff(state)
    assert h == program._extract(program.relaxed_reach(state))
    assert math.isinf(h) == (not oracles.relaxed_goal_reachable(task, state))
    for parent in children(task, state, ROOT):
        for rho in [parent] + children(task, state, parent):
            actions = list(instantiations(task, state, rho))
            full = restricted.program.relaxed_reach(state, actions)
            assert restricted(state, rho) == restricted.program._extract(full)


@settings(SETTINGS)
@given(st.data())
def test_cut_h_equals_full_fixpoint_h(data):
    task = random_strips_task(data)
    program = DatalogProgram(task)
    restricted = RestrictedFFHeuristic(task)
    state = task.initial_state
    check_cutoff(task, program, restricted, state)
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
        check_cutoff(task, program, restricted, state)


@pytest.mark.parametrize("family, params", [
    ("blocksworld", dict(blocks=5)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=3, boxes=5, marked=1)),
    ("ferry-like", dict(cars=1, locations=3)),
])
def test_cut_h_on_generator_walks(family, params):
    """Generator tasks reach the goal well before the last layer, which the
    small random tasks above never do: there the h paths stop only in goal
    states. The walks mostly stop after a schema rule with rules of its
    layer left to run; the one-car ferry, whose B often adds the last goal
    atom, reaches the stop after all of B most often of the four."""
    for seed in range(2):
        task = generate_task(family, seed=seed, **params)
        program = DatalogProgram(task)
        restricted = RestrictedFFHeuristic(task)
        rng = random.Random(seed)
        state = task.initial_state
        for _ in range(15):
            check_cutoff(task, program, restricted, state)
            actions = list(instantiations(task, state, ROOT))
            state = _apply_effects(task, state, rng.choice(actions))


@settings(SETTINGS)
@given(st.data())
def test_restricted_reach_matches_the_restricted_task(data):
    """At a random reachable state, with B from `instantiations` of a random
    node of the partial action tree, `relaxed_reach(state, B)` reaches the
    atoms, at the layers, that the oracle's fixpoint reaches on
    `restrict_task(task, B).as_task()`."""
    task = random_strips_task(data)
    state = task.initial_state
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
    kids = children(task, state, ROOT)
    if not kids:
        return
    rho = data.draw(st.sampled_from(kids))
    while not rho.is_full and data.draw(st.booleans()):
        rho = data.draw(st.sampled_from(children(task, state, rho)))
    actions = list(instantiations(task, state, rho))

    reach = DatalogProgram(task).relaxed_reach(state, actions)
    restricted = oracles.restrict_task(task, actions).as_task()
    start = oracles.intern_keys(restricted, oracles.state_to_keys(task, state))
    atoms, layers = oracles.relaxed_reachable(restricted, start)
    assert oracles.reached_atoms(reach) == atoms
    assert {key: reach.layers[key] for key in atoms} == layers


def check_fills(program, state, actions=None) -> None:
    """Over the full fixpoint from state, with the action set B if given,
    the program's compiled fills of its _ALL and _DELTA tables and of its
    _OLD tables give the reference fill's tables, with the same keys and the
    same lists in the same order, after the layer-0 atoms and after each
    later layer's atoms, filled one layer after another."""
    reach = program.relaxed_reach(state, actions)
    by_layer: dict = {}
    for atom, layer in reach.layers.items():
        by_layer.setdefault(layer, []).append(atom)
    for fill, old in ((program._fill_new, False), (program._fill_old, True)):
        tables_of: dict = {}
        for (pred, positions, kind), tid in program._table_ids.items():
            if (kind == _OLD) == old:
                tables_of.setdefault(pred, []).append((tid, positions))
        compiled = [{} for _ in program._table_ids]
        reference = [{} for _ in program._table_ids]
        for layer in sorted(by_layer):
            fill(by_layer[layer], compiled)
            oracles.fill_tables(by_layer[layer], tables_of, reference)
            assert compiled == reference


def check_successor_index(task, state) -> None:
    """The successor query's index of state holds the tables that the
    reference fill builds from the `@object` atoms and then the atoms of
    `state | static atoms`, each as (pred, object ids)."""
    _, tables, _, _ = lifted._successors(task)
    tables_of: dict = {}
    for tid, (pred, positions) in enumerate(tables):
        tables_of.setdefault(pred, []).append((tid, positions))
    atoms = [(oracles.OBJECT, (i,)) for i in range(len(task.objects))]
    for i in state | task.static_atoms:
        pred, args = task.atom(i)
        atoms.append((pred, tuple(task.objects.index(o) for o in args)))
    reference = [{} for _ in tables]
    oracles.fill_tables(atoms, tables_of, reference)
    assert lifted._state_index(task, state).tables == reference


def check_fills_at(task, program, state) -> None:
    check_fills(program, state)
    check_successor_index(task, state)
    kids = children(task, state, ROOT)
    if kids:
        check_fills(program, state, list(instantiations(task, state, kids[-1])))


@settings(SETTINGS)
@given(st.data())
def test_compiled_fill_equals_the_reference(data):
    task = random_strips_task(data)
    program = DatalogProgram(task)
    state = task.initial_state
    check_fills_at(task, program, state)
    for _ in range(data.draw(st.integers(0, 3))):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            break
        state = _apply_effects(task, state, data.draw(st.sampled_from(actions)))
        check_fills_at(task, program, state)


@pytest.mark.parametrize("family, params", [
    ("blocksworld", dict(blocks=5)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=3, boxes=5, marked=1)),
])
def test_compiled_fill_on_generator_walks(family, params):
    for seed in range(2):
        task = generate_task(family, seed=seed, **params)
        program = DatalogProgram(task)
        rng = random.Random(seed)
        state = task.initial_state
        for _ in range(10):
            check_fills_at(task, program, state)
            state = _apply_effects(task, state, rng.choice(list(instantiations(task, state, ROOT))))
