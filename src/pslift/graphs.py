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
key, and only they decide the special cases; `aoag_graph`/`aeg_graph` build
the graph from the key alone, reading each atom's argument vertices and color
strings from a table kept per task, so a build formats no string. A key fixes
the graph exactly, its vertex order included, so nodes with equal keys have
equal WL feature vectors, with the same key order, and equal learned
heuristic values. `aoag` and `aeg` build a node's graph in one call.

Color strings:
    ob{p,q}      object with static unary predicates p, q
    ag(P) ap(P) ug(P)     state/goal atom of predicate P
    act(A)       action vertex of schema A
    a:g(P) a:ng(P) u:g(P) oa:ng(P) od:ng(P) ...   effect-graph atom colors
"""

from __future__ import annotations

from dataclasses import dataclass

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
        a = task.atom(i)
        if len(a.args) == 1:
            preds[task.object_index[a.args[0]]].append(a.pred)
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


def _graph(task: Task, atom_ids, tag_of) -> LabeledGraph:
    """The object vertices, then a vertex per atom by ascending id, colored
    by its tag `tag_of(i)`. The task keeps each atom's argument object
    vertices and tag -> color dict."""
    table = task._info_cache.setdefault("@atom_vertices", {})
    index = task.object_index
    colors = list(object_colors(task))
    args = []
    for i in sorted(atom_ids):
        entry = table.get(i)
        if entry is None:
            atom = task.atom(i)
            entry = table[i] = (tuple(index[obj] for obj in atom.args), _colors(task, atom.pred))
        args.append(entry[0])
        colors.append(entry[1][tag_of(i)])
    return LabeledGraph(colors, args)


def ilg(task: Task, state: State) -> LabeledGraph:
    """Objects plus state and goal atoms, colored by goal membership."""
    goal = task.goal_fluent

    def tag_of(i):
        return ("ag" if i in goal else "ap") if i in state else "ug"

    return _graph(task, state | goal, tag_of)


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

    adds = []
    dels = []
    for a in actions:
        ga, gd = ground_effects(task, a)
        adds.append(frozenset(ga))
        dels.append(frozenset(gd))
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
    is ilg(state)), and for a singleton B = {a} (the graph is ilg of the state
    after a).
    """
    if rho.is_root:
        return state, ()
    actions = tuple(instantiations(task, state, rho))
    if _covers_all_applicable(task, state, actions):
        return state, ()
    if len(actions) == 1:
        return _apply_effects(task, state, actions[0]), ()
    return state, actions


def aoag_graph(task: Task, key: tuple) -> LabeledGraph:
    """The AOAG graph of a key from `aoag_key`: the instance graph plus one
    vertex per action, linked to its arguments by position."""
    state, actions = key
    graph = ilg(task, state)
    index = task.object_index
    for action in actions:
        graph.colors.append(_colors(task, action.schema.name)["act"])
        graph.args.append(tuple(index[obj] for obj in action.args))
    return graph


def aoag(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Shallow action embedding: the instance graph plus one vertex per action
    in B, linked to its arguments by position (see `aoag_key` for the special
    cases)."""
    return aoag_graph(task, aoag_key(task, state, rho))


def aeg_key(task: Task, state: State, rho: PartialAction) -> tuple:
    """The AEG graph key of a node: (s', opt_add, opt_del), the state after
    B's unavoidable effects and B's optional effects. The root, and B
    covering all applicable actions, give (state, {}, {}); a singleton
    B = {a} gives (state after a, {}, {})."""
    if rho.is_root:
        return state, frozenset(), frozenset()
    part, s_prime = effect_partition(task, state, instantiations(task, state, rho))
    return s_prime, part.opt_add, part.opt_del


def aeg_graph(task: Task, key: tuple) -> LabeledGraph:
    """The AEG graph of a key from `aeg_key`: the atoms of s', the goal and
    the optional effects, colored (alpha, beta, P) where alpha classifies the
    atom (optional-add > optional-delete > unachieved > achieved) and beta
    records goal membership."""
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
        return "a:ng"

    return _graph(task, goal | s_prime | opt_add | opt_del, tag_of)


def aeg(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Deep action embedding: the state after B's unavoidable effects, plus
    optional add/delete effect atoms (see `aeg_key` and `aeg_graph`)."""
    return aeg_graph(task, aeg_key(task, state, rho))
