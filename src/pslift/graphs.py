"""Vertex-colored, edge-labeled graph encodings of planning situations.

Three encodings share one graph type: the instance graph of a state (objects
plus state and goal atoms), its extension with explicit action vertices, and
the effect-level encoding built from the unavoidable/optional effects of an
action set. Object vertices carry the set of arity-1 static predicates true of
the object; atoms of static predicates are otherwise ignored. Edge labels are
1-based argument positions.

Color strings:
    ob{p,q}      object with static unary predicates p, q
    ag(P) ap(P) ug(P)     state/goal atom of predicate P
    act(A)       action vertex of schema A
    a:g(P) a:ng(P) u:g(P) oa:ng(P) od:ng(P) ...   effect-graph atom colors
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lifted import ROOT, PartialAction, State, _apply_effects, ground_effects, instantiations
from .pddl import Task
from .relaxation import EmptyActionSet


@dataclass
class LabeledGraph:
    names: list[str] = field(default_factory=list)
    colors: list[str] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)

    def add_vertex(self, name: str, color: str) -> int:
        self.names.append(name)
        self.colors.append(color)
        return len(self.names) - 1

    def add_edge(self, u: int, v: int, label: int) -> None:
        self.edges.append((u, v, label))

    def canonical(self):
        verts = frozenset(zip(self.names, self.colors))
        edges = frozenset(
            (min(self.names[u], self.names[v]), max(self.names[u], self.names[v]), l)
            for u, v, l in self.edges
        )
        return verts, edges

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and self.canonical() == other.canonical()

    def dump(self) -> str:
        lines = [f"v {i} {c}" for i, c in enumerate(self.colors)]
        lines.extend(f"e {u} {v} {l}" for u, v, l in self.edges)
        return "\n".join(lines) + "\n"


def object_colors(task: Task) -> dict[str, str]:
    """Color of each object: its arity-1 static predicates in the initial state."""
    cached = task._info_cache.get("@object_colors")
    if cached is not None:
        return cached
    preds: dict[str, list[str]] = {o: [] for o in task.objects}
    for i in task.static_atoms:
        a = task.atom(i)
        if len(a.args) == 1 and task.predicate(a.pred).arity == 1:
            preds[a.args[0]].append(a.pred)
    colors = {o: "ob{" + ",".join(sorted(ps)) + "}" for o, ps in preds.items()}
    task._info_cache["@object_colors"] = colors
    return colors


def _atom_vertices(task: Task, graph: LabeledGraph, obj_ids: dict[str, int], atom_ids, color_of):
    """Add atom vertices (deterministic id order) with positional edges."""
    for i in sorted(atom_ids):
        atom = task.atom(i)
        v = graph.add_vertex(str(atom), color_of(i))
        for pos, obj in enumerate(atom.args, start=1):
            graph.add_edge(v, obj_ids[obj], pos)


def ilg(task: Task, state: State) -> LabeledGraph:
    """Objects plus state and goal atoms, colored by goal membership."""
    graph = LabeledGraph()
    colors = object_colors(task)
    obj_ids = {o: graph.add_vertex(o, colors[o]) for o in task.objects}
    atoms = state | task.goal_fluent

    def color_of(i):
        in_s = i in state
        in_g = i in task.goal_fluent
        tag = "ag" if in_s and in_g else ("ap" if in_s else "ug")
        return f"{tag}({task.atom(i).pred})"

    _atom_vertices(task, graph, obj_ids, atoms, color_of)
    return graph


@dataclass
class EffectPartition:
    unav_add: frozenset
    unav_del: frozenset
    opt_add: frozenset
    opt_del: frozenset

    @property
    def empty(self) -> bool:
        return not (self.unav_add or self.unav_del or self.opt_add or self.opt_del)


def _covers_all_applicable(task: Task, state: State, actions) -> bool:
    """A_s subset of B, decided lazily: stop at the first applicable action
    outside B."""
    bset = set(actions)
    return all(a in bset for a in instantiations(task, state, ROOT))


def effect_partition(task: Task, state: State, actions) -> tuple[EffectPartition, State]:
    """Split B's effects into unavoidable (shared by all actions) and optional
    parts, and apply the unavoidable ones. All four sets are empty when B
    covers every applicable action."""
    actions = list(actions)
    if not actions:
        raise EmptyActionSet("effect partition needs at least one action")
    if _covers_all_applicable(task, state, actions):
        return EffectPartition(frozenset(), frozenset(), frozenset(), frozenset()), state

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


def aoag(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Shallow action embedding: the instance graph plus one vertex per action
    in B, linked to its arguments by position.

    Special cases: when B covers all applicable actions the graph is exactly
    ilg(state); when B is a singleton {a} it is ilg of the state after a.
    """
    if rho.is_root:
        return ilg(task, state)
    actions = list(instantiations(task, state, rho))
    if _covers_all_applicable(task, state, actions):
        return ilg(task, state)
    if len(actions) == 1:
        return ilg(task, _apply_effects(task, state, actions[0]))

    graph = ilg(task, state)
    for action in actions:
        v = graph.add_vertex(repr(action), f"act({action.schema.name})")
        for pos, obj in enumerate(action.args, start=1):
            # ilg adds the objects first, in declaration order
            graph.add_edge(v, task.object_index[obj], pos)
    return graph


def aeg(task: Task, state: State, rho: PartialAction) -> LabeledGraph:
    """Deep action embedding: the state after B's unavoidable effects, plus
    optional add/delete effect atoms, colored (alpha, beta, P) where alpha
    classifies the atom (optional-add > optional-delete > unachieved > achieved)
    and beta records goal membership."""
    if rho.is_root:
        part = EffectPartition(frozenset(), frozenset(), frozenset(), frozenset())
        s_prime = state
    else:
        actions = instantiations(task, state, rho)
        part, s_prime = effect_partition(task, state, actions)

    graph = LabeledGraph()
    colors = object_colors(task)
    obj_ids = {o: graph.add_vertex(o, colors[o]) for o in task.objects}
    atoms = task.goal_fluent | s_prime | part.opt_add | part.opt_del

    def color_of(i):
        if i in part.opt_add:
            alpha = "oa"
        elif i in part.opt_del:
            alpha = "od"
        elif i in task.goal_fluent and i not in s_prime:
            alpha = "u"
        else:
            alpha = "a"
        beta = "g" if i in task.goal_fluent else "ng"
        return f"{alpha}:{beta}({task.atom(i).pred})"

    _atom_vertices(task, graph, obj_ids, atoms, color_of)
    return graph
