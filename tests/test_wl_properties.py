"""WL refinement on tuple keys against the string-key oracle: on random
bipartite graphs and on AOAG and AEG graphs of generator walks, first with a
growing and then with a frozen dictionary, every feature vector equals the
oracle's item by item, in the same key order (`sparse_dot` sums in that
order), and the two dictionaries list the same keys with the same indices.

Each task's graphs run through one first-refinement memo. A random task is a
list of object colors that all its graphs share, as a planning task's
objects do. After every call, each memo entry must name the dictionary's id
of the refined key that it stands for."""

import functools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pslift.generators import generate_task  # noqa: E402
from pslift.graphs import LabeledGraph, aeg, aoag, object_colors  # noqa: E402
from pslift.lifted import ROOT, PartialAction, _apply_effects, instantiations  # noqa: E402
from pslift.wl import ColorDictionary, wl_features  # noqa: E402

import oracles  # noqa: E402
from strategies import SETTINGS  # noqa: E402

_COLORS = st.lists(st.sampled_from("abc"), max_size=4)
# per graph, up to 6 facts, each a color and up to 3 argument picks; a pick
# is taken modulo the number of objects (60 is a multiple of 1 to 4)
_FACTS = st.lists(st.lists(st.tuples(st.sampled_from("abc"),
                                     st.lists(st.integers(0, 59), max_size=3)),
                           max_size=6),
                  min_size=1, max_size=3)
_PICK = st.integers(0, 10_000)
_PICKS = st.lists(_PICK, min_size=1, max_size=4)


def random_task(data) -> tuple:
    """(object colors, graphs): up to 4 objects of 3 colors, and up to 3
    graphs on them, each with up to 6 fact vertices of 3 colors and arity 0
    to 3 (arity 0 only if there are no objects), an object repeated in one
    fact included."""
    objects = data.draw(_COLORS)
    graphs = []
    for facts in data.draw(_FACTS):
        graphs.append(LabeledGraph(
            objects + [color for color, _ in facts],
            [tuple(k % len(objects) for k in picks) if objects else () for _, picks in facts]))
    return objects, graphs


@functools.cache
def walk_tasks() -> tuple:
    """(object colors, graphs) of three generator tasks: the AOAG and AEG
    graphs of the root and of every prefix of the taken action, along a
    random walk."""
    tasks = []
    for family, params in [("blocksworld", dict(blocks=4)),
                           ("ferry-like", dict(cars=2, locations=3)),
                           ("warehouse-like", dict(stacks=3, boxes=4, marked=1))]:
        task = generate_task(family, seed=0, **params)
        rng = random.Random(0)
        state = task.initial_state
        graphs = []
        for _ in range(6):
            action = rng.choice(list(instantiations(task, state, ROOT)))
            for rho in [ROOT] + [PartialAction(action.schema, action.args[:k])
                                 for k in range(len(action.args) + 1)]:
                graphs += [aoag(task, state, rho), aeg(task, state, rho)]
            state = _apply_effects(task, state, action)
        tasks.append((list(object_colors(task)), graphs))
    return tuple(tasks)


def draw_tasks(data, count: int) -> list:
    """`count` tasks, each a random one or a few graphs of a walk task."""
    tasks = []
    for _ in range(count):
        if data.draw(st.booleans()):
            tasks.append(random_task(data))
        else:
            objects, graphs = walk_tasks()[data.draw(_PICK) % len(walk_tasks())]
            picks = data.draw(_PICKS)
            tasks.append((objects, [graphs[k % len(graphs)] for k in picks]))
    return tasks


def check_memo(memo: dict, objects: list, dictionary: ColorDictionary) -> None:
    """Every entry (own, args) -> idx names the known refined key of a fact
    vertex of color id `own` on the objects `args`, in the string form."""
    index = dict(dictionary.items())
    for (own, args), idx in memo.items():
        pairs = ";".join(f"{label},{index['c|' + objects[u]]}"
                         for label, u in enumerate(args, 1))
        assert index.get(f"s|{own}|{pairs}") == idx


@settings(SETTINGS)
@given(st.data())
def test_tuple_keys_match_string_keys(data):
    iterations = data.draw(st.integers(0, 3))
    dictionary, oracle = ColorDictionary(), ColorDictionary()
    grown = draw_tasks(data, data.draw(st.integers(1, 3)))
    memos = [{} for _ in range(len(grown) + 2)]
    for phase in (grown, grown + draw_tasks(data, 2)):
        for (objects, graphs), memo in zip(phase, memos):
            for graph in graphs:
                fv = wl_features(graph, iterations, dictionary, memo)
                assert list(fv.items()) == list(
                    oracles.string_wl_features(graph, iterations, oracle).items())
                assert list(dictionary.items()) == list(oracle.items())
                check_memo(memo, objects, dictionary)
        dictionary.freeze()
        oracle.freeze()
