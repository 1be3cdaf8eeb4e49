"""Vertex-colored, edge-labeled graph encodings of planning situations.

Three encodings share one graph type: the instance graph of a state (objects
plus state and goal atoms), its extension with explicit action vertices, and
the effect-level encoding built from the unavoidable/optional effects of an
action set. Object vertices carry the set of arity-1 static predicates true of
the object; atoms of static predicates are otherwise ignored.

Every encoding is bipartite: an atom or action vertex (a fact vertex) is
linked only to its argument objects, the edge to its k-th argument labeled k.
A `LabeledGraph` holds just that, and nothing else WL refinement reads: the
initial color of each vertex, and each fact vertex's argument object vertices
in position order. Vertex layout: the objects first, in declaration order, so
that the vertex of an object is its `task.object_index`; then one vertex per
atom, by ascending atom id; then, in an action graph, one vertex per action
of B, in the order of `instantiations`.

Each encoding runs in two steps. `aoag_key`/`aeg_key` give a node's graph
key, and only they decide the special cases; `Encoding.build` builds the
graph from the key alone, through the atoms, tags and action vertices that
the encoding reads off the key, and each atom's argument vertices and color
strings from a table kept per task, so a build formats no string. A key fixes
the graph exactly, its vertex order included, so nodes with equal keys have
equal WL feature vectors, with the same key order, and equal learned
heuristic values. `aoag` and `aeg` build a node's graph in one call.

The key form. An atom's vertex and color follow from its tag, and its tag
from the key: the build takes the atoms and their tags from the same
functions of the key that WL reads in key form. `AOAG_ENCODING` and
`AEG_ENCODING` give the key, a key's atoms and tags, the atoms whose tag may
differ between two keys of one task, and the action vertices. A `KeyGraph`
is a node's graph as its key alone; `wl` refines it by difference from the
last key, and builds the explicit graph once, and only if its `colors` or
`args` are read. Effects come from `lifted.ground_effects`, grounded once
per task, so a key computes no atom of an action twice.

Color strings:
    ob{p,q}      object with static unary predicates p, q
    ag(P) ap(P) ug(P)     state/goal atom of predicate P
    act(A)       action vertex of schema A
    a:g(P) a:ng(P) u:g(P) oa:ng(P) od:ng(P) ...   effect-graph atom colors
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple

from .lifted import (PartialAction, State, _apply_effects, ground_effects, instantiations,
                     n_applicable)
from .pddl import Task
from .relaxation import EmptyActionSet

# the color tags of an atom vertex, the instance graph's and then the effect
# graph's, and of an action vertex
_TAGS = ("ag", "ap", "ug", "oa:g", "oa:ng", "od:g", "od:ng", "u:g", "a:g", "a:ng", "act")


@dataclass
class LabeledGraph:
    """`colors[v]` is vertex v's initial color: the objects' first, then the
    fact vertices'. `args[j]` holds the argument object vertices of fact
    vertex `len(colors) - len(args) + j`, by position."""

    colors: list[str]
    args: list[tuple[int, ...]]


def object_colors(task: Task) -> tuple[str, ...]:
    """Color of each object, in declaration order: its arity-1 static
    predicates in the initial state."""
    cached = task._info_cache.get("@object_colors")
    if cached is not None:
        return cached
    preds: list[list[str]] = [[] for _ in task.objects]
    for i in task.static_atoms:
        pred, args = task.id_atoms[i]
        if len(args) == 1:
            preds[args[0]].append(pred)
    colors = tuple("ob{" + ",".join(sorted(ps)) + "}" for ps in preds)
    task._info_cache["@object_colors"] = colors
    return colors


def _colors(task: Task, name: str) -> dict:
    """tag -> color of the atoms of predicate `name`, or of the actions of
    schema `name`; made once per task."""
    colors = task._info_cache.get(("@colors", name))
    if colors is None:
        colors = task._info_cache["@colors", name] = {tag: f"{tag}({name})" for tag in _TAGS}
    return colors


class _AtomVertices(dict):
    """Atom id -> (its argument object vertices, tag -> its color), made on
    first use."""

    def __init__(self, task: Task):
        super().__init__()
        self.task = task

    def __missing__(self, i: int) -> tuple:
        pred, args = self.task.id_atoms[i]
        entry = self[i] = (args, _colors(self.task, pred))
        return entry


def atom_vertices(task: Task) -> _AtomVertices:
    """The task's table of atom vertices."""
    table = task._info_cache.get("@atom_vertices")
    if table is None:
        table = task._info_cache["@atom_vertices"] = _AtomVertices(task)
    return table


def action_vertex(task: Task, action: PartialAction) -> tuple:
    """(color, argument object vertices) of an action vertex."""
    index = task.object_index
    return _colors(task, action.schema.name)["act"], tuple(index[obj] for obj in action.args)


def _graph(task: Task, atom_ids, tag_of, actions) -> LabeledGraph:
    """The object vertices, then a vertex per atom by ascending id, colored
    by its tag `tag_of(i)`, then a vertex per action, in order."""
    table = atom_vertices(task)
    colors = list(object_colors(task))
    args = []
    for i in sorted(atom_ids):
        entry = table[i]
        args.append(entry[0])
        colors.append(entry[1][tag_of(i)])
    for action in actions:
        color, action_args = action_vertex(task, action)
        colors.append(color)
        args.append(action_args)
    return LabeledGraph(colors, args)


def _aoag_atoms(task: Task, key: tuple) -> frozenset:
    return key[0] | task.goal_fluent


def _aoag_tags(task: Task, key: tuple):
    """tag_of(i): the tag of atom i in the instance graph of the key's state,
    colored by goal membership; None for an atom that has no vertex there."""
    state = key[0]
    goal = task.goal_fluent

    def tag_of(i):
        if i in state:
            return "ag" if i in goal else "ap"
        return "ug" if i in goal else None

    return tag_of


@dataclass(frozen=True)
class EffectPartition:
    unav_add: frozenset
    unav_del: frozenset
    opt_add: frozenset
    opt_del: frozenset

    @property
    def empty(self) -> bool:
        return not (self.unav_add or self.unav_del or self.opt_add or self.opt_del)


_NO_EFFECTS = EffectPartition(frozenset(), frozenset(), frozenset(), frozenset())


def _covers_all_applicable(task: Task, state: State, actions) -> bool:
    """A_s subset of B. B must hold distinct actions applicable in state, as
    `instantiations` gives them; then B is a subset of A_s, and covers it
    exactly when it is as large."""
    return len(actions) == n_applicable(task, state)


def effect_partition(task: Task, state: State, actions) -> tuple[EffectPartition, State]:
    """Split B's effects into unavoidable (shared by all actions) and optional
    parts, and apply the unavoidable ones. All four sets are empty when B
    covers every applicable action."""
    actions = list(actions)
    if not actions:
        raise EmptyActionSet("effect partition needs at least one action")
    if _covers_all_applicable(task, state, actions):
        return _NO_EFFECTS, state

    adds, dels = zip(*(ground_effects(task, a) for a in actions))
    unav_add = frozenset.intersection(*adds)
    unav_del = frozenset.intersection(*dels)
    opt_add = frozenset.union(*adds) - unav_add
    opt_del = frozenset.union(*dels) - unav_del
    s_prime = (state - unav_del) | unav_add
    return EffectPartition(unav_add, unav_del, opt_add, opt_del), s_prime


def aoag_key(task: Task, state: State, rho: PartialAction) -> tuple:
    """The AOAG graph key of a node: the state whose instance graph is used,
    and the extra action vertices, in the order of `instantiations`.

    This is the one place that decides the special cases. The tuple of actions
    is empty for the root and when B covers all applicable actions (the graph
    is the instance graph of the state), and for a singleton B = {a} (the
    graph is the instance graph of the state after a).
    """
    if rho.is_root:
        return state, ()
    actions = tuple(instantiations(task, state, rho))
    if _covers_all_applicable(task, state, actions):
        return state, ()
    if len(actions) == 1:
        return _apply_effects(task, state, actions[0]), ()
    return state, actions


def aoag(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Shallow action embedding: the instance graph plus one vertex per action
    in B, linked to its arguments by position (see `aoag_key` for the special
    cases)."""
    return AOAG_ENCODING.build(task, aoag_key(task, state, rho))


def aeg_key(task: Task, state: State, rho: PartialAction) -> tuple:
    """The AEG graph key of a node: (s', opt_add, opt_del), the state after
    B's unavoidable effects and B's optional effects. The root, and B
    covering all applicable actions, give (state, {}, {}); a singleton
    B = {a} gives (state after a, {}, {})."""
    if rho.is_root:
        return state, frozenset(), frozenset()
    part, s_prime = effect_partition(task, state, instantiations(task, state, rho))
    return s_prime, part.opt_add, part.opt_del


def _aeg_tags(task: Task, key: tuple):
    """tag_of(i): the tag of atom i in the AEG graph of a key, None for an
    atom that has no vertex there. The tag classifies the atom
    (optional-add > optional-delete > unachieved > achieved) and records
    goal membership."""
    s_prime, opt_add, opt_del = key
    goal = task.goal_fluent

    def tag_of(i):
        if i in goal:
            if i in opt_add:
                return "oa:g"
            if i in opt_del:
                return "od:g"
            return "a:g" if i in s_prime else "u:g"
        if i in opt_add:
            return "oa:ng"
        if i in opt_del:
            return "od:ng"
        return "a:ng" if i in s_prime else None

    return tag_of


def _aeg_atoms(task: Task, key: tuple) -> frozenset:
    s_prime, opt_add, opt_del = key
    return task.goal_fluent | s_prime | opt_add | opt_del


def aeg(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Deep action embedding: the state after B's unavoidable effects, plus
    optional add/delete effect atoms, colored (alpha, beta, P) as `_aeg_tags`
    gives (see `aeg_key`)."""
    return AEG_ENCODING.build(task, aeg_key(task, state, rho))


class Encoding(NamedTuple):
    """A graph kind, with what refinement by difference reads of its graph
    keys: `key(task, state, rho)` gives a node's key; for keys of one task,
    `atoms(task, key)` are the atoms with a vertex, `tags(task, key)` maps
    an atom to its vertex's tag (None without one), `changed(key, old)`
    holds every atom whose tag may differ between the graphs of `old` and
    `key` (the goal is fixed per task), and `actions(key)` are the action
    vertices, in vertex order. `build(task, key)` is a key's graph."""

    key: Callable
    atoms: Callable
    tags: Callable
    changed: Callable
    actions: Callable

    def build(self, task: Task, key: tuple) -> LabeledGraph:
        return _graph(task, self.atoms(task, key), self.tags(task, key), self.actions(key))


AOAG_ENCODING = Encoding(
    aoag_key, _aoag_atoms, _aoag_tags,
    changed=lambda key, old: key[0] ^ old[0],
    actions=itemgetter(1))

AEG_ENCODING = Encoding(
    aeg_key, _aeg_atoms, _aeg_tags,
    changed=lambda key, old: (key[0] ^ old[0]) | (key[1] ^ old[1]) | (key[2] ^ old[2]),
    actions=lambda key: ())


class KeyGraph:
    """A node's graph in key form: the graph key `key` of `encoding` on
    `task`. WL refinement reads the vertices that changed from the keys
    (see `wl`); `colors` and `args` are those of `encoding.build(task,
    key)`, built on the first read."""

    __slots__ = ("encoding", "task", "key", "_graph")

    def __init__(self, encoding: Encoding, task: Task, key: tuple):
        self.encoding, self.task, self.key = encoding, task, key
        self._graph = None

    def graph(self) -> LabeledGraph:
        if self._graph is None:
            self._graph = self.encoding.build(self.task, self.key)
        return self._graph

    @property
    def colors(self) -> list[str]:
        return self.graph().colors

    @property
    def args(self) -> list[tuple[int, ...]]:
        return self.graph().args
