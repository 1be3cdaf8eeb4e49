"""The learned heuristic computes one value per graph key and search. On
random tasks and on generator walks, for AOAG and AEG and in both search
spaces, the value of every node equals -evaluate(...) of that node, and the
graph built from the node's key equals the graph built straight from the
node (`oracles.node_graph`), so nodes with equal keys have identical colors
and edges. The walks visit singleton-B nodes and nodes whose B covers A_s,
which share their keys with other nodes."""

import random
from collections import Counter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pslift.wl  # noqa: E402
from pslift.generators import generate_task  # noqa: E402
from pslift.lifted import ROOT, _apply_effects, children, instantiations, n_applicable  # noqa: E402
from pslift.ranking import LinearModel, evaluate  # noqa: E402
from pslift.search import Limits, gbfs_partial, gbfs_state  # noqa: E402
from pslift.wl import GRAPH_KINDS, ColorDictionary, graph_encoding, phi  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS, random_strips_task  # noqa: E402

GENERATOR_TASKS = [
    ("blocksworld", dict(blocks=4)),
    ("ferry-like", dict(cars=2, locations=3)),
    ("warehouse-like", dict(stacks=3, boxes=4, marked=1)),
]


def tree(task, state):
    """Every node rho of the partial action tree at state, level by level."""
    level = [ROOT]
    while level:
        yield from level
        level = [child for rho in level for child in children(task, state, rho)]


def node_case(task, state, rho) -> str:
    if rho.is_root:
        return "root"
    n = len(list(instantiations(task, state, rho)))
    if n == n_applicable(task, state):
        return "covers"
    return "singleton" if n == 1 else "several"


def random_walk(task, rng, steps: int) -> list:
    states = [task.initial_state]
    for _ in range(steps):
        actions = list(instantiations(task, states[-1], ROOT))
        if not actions:
            break
        states.append(_apply_effects(task, states[-1], rng.choice(actions)))
    return states


def random_model(task, state, kind: str, iterations: int, seed: int) -> LinearModel:
    """Random weights over the colors of the nodes at state; colors of other
    states may be unknown to the frozen dictionary."""
    dictionary = ColorDictionary()
    for rho in tree(task, state):
        phi(task, state, rho, kind, iterations, dictionary)
    rng = random.Random(seed)
    weights = np.array([rng.uniform(-1.0, 1.0) for _ in range(len(dictionary))])
    return LinearModel(weights, dictionary.freeze(), kind, iterations)


def check_walk(task, states, model) -> Counter:
    """Every node of the partial action tree at each state, in walk order;
    returns how many nodes of each case were seen."""
    partial_h, state_h = model.heuristic(task), model.state_heuristic(task)
    key_of, build = graph_encoding(model.graph_kind)
    graphs: dict = {}
    cases: Counter = Counter()
    for state in states:
        assert state_h(state) == -evaluate(model, task, state, ROOT)
        for rho in tree(task, state):
            assert partial_h(state, rho) == -evaluate(model, task, state, rho)
            key = key_of(task, state, rho)
            graph = oracles.node_graph(task, state, rho, model.graph_kind)
            assert build(task, key) == graph
            assert graphs.setdefault(key, graph) == graph
            cases[node_case(task, state, rho)] += 1
    return cases


@settings(SETTINGS)
@given(st.data())
def test_memoised_values_on_random_tasks(data):
    task = random_strips_task(data)
    kind = data.draw(st.sampled_from(GRAPH_KINDS))
    iterations = data.draw(st.integers(0, 2))
    states = random_walk(task, random.Random(data.draw(st.integers(0, 9))),
                         data.draw(st.integers(0, 3)))
    check_walk(task, states, random_model(task, task.initial_state, kind, iterations, 0))


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_memoised_values_on_generator_walks(kind):
    cases: Counter = Counter()
    for family, params in GENERATOR_TASKS:
        task = generate_task(family, seed=0, **params)
        states = random_walk(task, random.Random(1), 5)
        cases += check_walk(task, states, random_model(task, states[0], kind, 2, 1))
    assert cases["singleton"] and cases["covers"] and cases["several"]


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_searches_refine_each_key_once(kind, monkeypatch):
    """In both spaces a search's heuristic equals -evaluate at every node it
    evaluates, and runs WL once per distinct key; partial search evaluates
    some keys more than once."""
    refined = []
    real = pslift.wl.wl_features

    def counted(*args):
        refined.append(None)
        return real(*args)

    repeats = 0
    for family, params in GENERATOR_TASKS:
        task = generate_task(family, seed=2, **params)
        model = random_model(task, task.initial_state, kind, 2, 2)
        key_of, _ = graph_encoding(kind)
        for search, space_h in ((gbfs_partial, model.heuristic),
                                (gbfs_state, model.state_heuristic)):
            h = space_h(task)
            nodes = []

            def logged(state, rho=ROOT):
                value = h(state, rho) if search is gbfs_partial else h(state)
                nodes.append((state, rho, value))
                return value

            refined.clear()
            monkeypatch.setattr(pslift.wl, "wl_features", counted)
            search(task, logged, Limits(max_expansions=200))
            monkeypatch.undo()
            keys = {key_of(task, state, rho) for state, rho, _ in nodes}
            assert len(refined) == len(keys)
            repeats += len(nodes) - len(keys)
            for state, rho, value in nodes:
                assert value == -evaluate(model, task, state, rho)
    assert repeats
