"""WL refinement on tuple keys against the string-key oracle: on random graphs
and on AOAG and AEG graphs of generator walks, first with a growing and then
with a frozen dictionary, every feature vector equals the oracle's item by
item, in the same key order (`sparse_dot` sums in that order), and the two
dictionaries list the same keys with the same indices."""

import functools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.graphs import LabeledGraph, aeg, aoag  # noqa: E402
from pslift.lifted import ROOT, PartialAction, _apply_effects, instantiations  # noqa: E402
from pslift.wl import ColorDictionary, wl_features  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS  # noqa: E402

_COLORS = st.lists(st.sampled_from("abc"), max_size=7)
_EDGES = st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59), st.integers(0, 2)),
                  max_size=12)
_PICK = st.integers(0, 10_000)


def random_graph(data) -> LabeledGraph:
    """Up to 7 vertices of 3 colors and 12 edges of 3 labels, self-loops and
    parallel edges included."""
    graph = LabeledGraph()
    for color in data.draw(_COLORS):
        graph.add_vertex(color)
    n = len(graph.colors)
    if n:
        for u, v, label in data.draw(_EDGES):
            graph.add_edge(u % n, v % n, label)
    return graph


@functools.cache
def walk_graphs() -> tuple[LabeledGraph, ...]:
    """AOAG and AEG graphs of the root and of every prefix of the taken
    action, along a random walk in each generator family."""
    graphs = []
    for family, params in [("blocksworld", dict(blocks=4)),
                           ("ferry-like", dict(cars=2, locations=3)),
                           ("warehouse-like", dict(stacks=3, boxes=4, marked=1))]:
        task = generate_task(family, seed=0, **params)
        rng = random.Random(0)
        state = task.initial_state
        for _ in range(6):
            action = rng.choice(list(instantiations(task, state, ROOT)))
            for rho in [ROOT] + [PartialAction(action.schema, action.args[:k])
                                 for k in range(len(action.args) + 1)]:
                graphs += [aoag(task, state, rho), aeg(task, state, rho)]
            state = _apply_effects(task, state, action)
    return tuple(graphs)


def draw_graphs(data, count: int) -> list[LabeledGraph]:
    pool = walk_graphs()
    return [random_graph(data) if data.draw(st.booleans()) else pool[data.draw(_PICK) % len(pool)]
            for _ in range(count)]


@settings(SETTINGS)
@given(st.data())
def test_tuple_keys_match_string_keys(data):
    iterations = data.draw(st.integers(0, 3))
    dictionary, oracle = ColorDictionary(), ColorDictionary()
    grown = draw_graphs(data, data.draw(st.integers(1, 4)))
    for phase in (grown, grown + draw_graphs(data, 3)):
        for graph in phase:
            fv = wl_features(graph, iterations, dictionary)
            assert list(fv.items()) == list(
                oracles.string_wl_features(graph, iterations, oracle).items())
            assert list(dictionary.items()) == list(oracle.items())
        dictionary.freeze()
        oracle.freeze()
