"""Weisfeiler-Lehman color refinement over bipartite labeled graphs.

Refined colors are canonical signatures (own color plus the sorted multiset of
(edge label, neighbor color) pairs), interned injectively in a ColorDictionary;
no lossy hashing. In memory an initial color's key is the string
`"c|" + color` and a refined color's key is the tuple
`(own, ((label, color), ...))` of integer ids, pairs sorted; model files
spell the tuple as `s|own|label,color;label,color`. Feature vectors count
color occurrences over iterations 0..L. A frozen dictionary never grows:
colors it has not seen contribute nothing, but refinement still runs over
them so known colors downstream keep their meaning.

The graphs are those of `graphs`: object vertices, then fact vertices, each
fact vertex linked to its argument objects with labels 1, 2, ... in order.
A fact vertex's pairs are thus `((1, c(arg 1)), (2, c(arg 2)), ...)`, sorted
as they are built. An object's pairs are gathered from the fact vertices that
name it.

Refinement by difference. A vertex's color after t iterations depends only
on its t-hop neighborhood, and consecutive graphs of one search differ in a
few atoms. So `wl_features` refines a graph in key form (below) by
difference from the last one that the same featurizer refined, its
`BaseGraph`, which keeps that graph's color id of every vertex at every
iteration. Objects are matched by vertex index, fact vertices by (color,
args), since their indices shift. At each iteration after the first, a
vertex is recomputed only if it is dirty:
- it is a fact vertex that the base lacks;
- it is an object whose set of incident fact vertices changed;
- its own color, or a neighbor's, changed at the previous iteration.
A clean vertex keeps its id from the base. Its key is built from its own id
and its neighbors' ids at the previous iteration, and all of these are the
base's, so the key is the one looked up for the base, and its id is the
same: a growing dictionary never changes an id, and a frozen one never
learns one. A growing dictionary also still hands out new ids as the full
refinement would. A clean vertex's key is in the dictionary already, so its
lookup would add nothing; the dirty vertices are looked up in vertex order
(objects ascending, then fact vertices ascending) at each iteration, so each
new key is first met at the vertex where the full refinement first meets
it. The counts are then rebuilt in one pass over the ids, in vertex order
and iteration by iteration, so feature vectors keep the key order that
`ranking.sparse_dot` sums in. Without a usable base (an explicit graph,
the first key, a different object color list or iteration count, a change
of task (below), or a caller that keeps none, as `phi`) every vertex is new,
and the same loop does the full refinement.

The first two ids of a slot. Objects start with the colors of
`graphs.object_colors`, fixed per task, and a fact vertex's slot is its
(color, args). So for one task and one dictionary a slot's ids at
iterations 0 and 1 depend on the slot alone, and they are fixed while the
base lives: a growing dictionary never changes an id, and a frozen one
never learns one, since it stores no key that holds an unknown color. An
object or slot is therefore looked up at iteration 0, as `"c|" + color`,
only while its id there is None, and a dirty fact vertex at iteration 1
only while its slot has no id there; a skipped lookup would have added
nothing, so ids, counts and key order are unchanged. An unknown input makes
every key that holds it unknown, so one placeholder, -1, serves every
unknown color: it is never counted, never stored, and never part of a known
key.

The key form. An explicit graph lists every vertex, so finding the few that
changed would mean pairing all of them with their slots; it is always
refined in full, and stays the reference. A `graphs.KeyGraph`
gives only a node's graph key, and its encoding says which atoms may have
changed tag since the base's last key: the symmetric differences of the two
keys' atom sets (the state for AOAG; s', opt_add and opt_del for AEG; the
goal is fixed per task). Only those atoms and the action vertices, whose
slots the base keeps by (schema name, args), are looked up. The atoms'
slots come in ascending atom id from the base's atom -> slot map, then the
actions' in B's order: the vertex order of `graphs`. From there the same
refinement runs as for an explicit graph; only how the new and gone fact
vertices are found differs. A key means nothing without its task, and an
atom's tags without its encoding, so a base restarts with a full
refinement when the form (explicit or key), the task, the encoding or the
dictionary changes; it is never diffed across them. A key-form graph
builds its explicit graph once, and only if `colors` or `args` is read, as
tracers do.

`phi` featurizes a node through the key and build of its
`graph_encoding`, an explicit graph, as the reference; `keyed_features`
does so in key form once per distinct graph key of a task, with one base
for the task, for the learned heuristic, training and dataset export.
`aoag` and `aeg` stay importable here because the benchmark's tracer wraps
them by these names.
"""

from __future__ import annotations

from itertools import repeat

from .graphs import (AEG_ENCODING, AOAG_ENCODING, Encoding, KeyGraph,  # noqa: F401
                     LabeledGraph, action_vertex, aeg, aoag, atom_vertices, object_colors)

AOAG = "aoag"
AEG = "aeg"
GRAPH_KINDS = (AOAG, AEG)

FeatureVector = dict  # feature index -> positive count


ColorKey = str | tuple  # "c|<color>", or (own id, sorted ((label, id), ...))


class ColorDictionary:
    """Injective map from color signatures to dense feature indices.

    Two vertices get the same refined key exactly when they had the same
    color and the same multiset of (edge label, neighbor color) pairs: the
    pairs are sorted, and a key holds nothing else. Distinct colors thus keep
    distinct keys at every iteration, as they do with the string form. A
    stored key never holds a negative placeholder id (a frozen dictionary
    stores nothing), so `items()` and `from_items()` convert between the two
    forms without loss, and a dictionary read from a file gives every color
    the index it had when it was written.
    """

    def __init__(self):
        self._index: dict[ColorKey, int] = {}
        self.frozen = False

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, key: ColorKey) -> int | None:
        idx = self._index.get(key)
        if idx is None and not self.frozen:
            idx = len(self._index)
            self._index[key] = idx
        return idx

    def freeze(self) -> "ColorDictionary":
        self.frozen = True
        return self

    def items(self):
        """(key, index) pairs in insertion order, keys in their string form."""
        return ((_to_text(key), idx) for key, idx in self._index.items())

    @classmethod
    def from_items(cls, items) -> "ColorDictionary":
        """A frozen dictionary from string-form (key, index) pairs. Raises
        ValueError for a malformed, non-canonical or repeated key, or for
        indices that are not 0..n-1."""
        d = cls()
        for text, idx in items:
            key = _from_text(text)
            if key in d._index:
                raise ValueError(f"color key {text!r} appears twice")
            d._index[key] = idx
        if sorted(d._index.values()) != list(range(len(d._index))):
            raise ValueError("color dictionary indices are not dense")
        d.frozen = True
        return d


def _to_text(key: ColorKey) -> str:
    if isinstance(key, str):
        return key
    own, pairs = key
    return f"s|{own}|" + ";".join(f"{label},{color}" for label, color in pairs)


def _from_text(text: str) -> ColorKey:
    tag, sep, rest = text.partition("|")
    if tag == "c" and sep:
        return text
    if tag != "s":
        raise ValueError(f"color key {text!r} has an unknown tag")
    own, _, body = rest.partition("|")
    pairs = []
    for part in body.split(";") if body else ():
        label, color = part.split(",")
        pairs.append((int(label), int(color)))
    key = (int(own), tuple(pairs))
    if _to_text(key) != text:
        raise ValueError(f"color key {text!r} is not canonical")
    if key[0] < 0 or any(color < 0 for _, color in pairs):
        raise ValueError(f"color key {text!r} holds a placeholder id")
    return key


UNKNOWN = -1  # the id of every color a frozen dictionary does not know


class BaseGraph:
    """What `wl_features` keeps of the last graph that one featurizer refined,
    to refine the next one by difference (see the module docstring). It
    starts afresh when the graph's form (explicit, or key form and then its
    task and encoding), the dictionary, the object colors or the iteration
    count change.

    Objects keep their vertex index as their slot. Every fact vertex
    (color, args) met since has a slot after them, `keys[slot]`, so that it
    keeps its slot while vertex indices shift from graph to graph.
    `levels[t][slot]` is the color id of that vertex at iteration t in
    `dictionary`, and `incident[u]` the (label, slot) pairs of the fact
    vertices on object u; a slot's ids at iterations 0 and 1 never change
    while the base lives.
    Of a key-form graph, `key` and `tag_of` are its key and its tags,
    `atom_slot` maps each of its atoms to its slot, `atom_order` lists
    those slots by ascending atom id, `action_order` the slots of its
    actions, and `action_slot` gives the slot of every action met since,
    by its (schema name, args)."""

    __slots__ = ("dictionary", "objects", "iterations", "task", "encoding", "slot", "keys",
                 "levels", "incident", "key", "tag_of", "atom_slot", "atom_order",
                 "action_slot", "action_order")

    def __init__(self):
        self.dictionary = self.objects = None
        self.task = self.encoding = None


def _slot_of(base: BaseGraph, vertex: tuple) -> int:
    """The slot of fact vertex (color, args), given on first use."""
    s = base.slot.get(vertex)
    if s is None:
        s = base.slot[vertex] = len(base.keys)
        base.keys.append(vertex)
    return s


def _graph_vertices(graph: LabeledGraph, base: BaseGraph, n: int) -> tuple:
    """(slots, first, new, gone) of an explicit graph: the slot of each fact
    vertex, the first vertex index of each slot, every slot in that order,
    and None, since an explicit graph is always refined in full."""
    slots = [_slot_of(base, key) for key in zip(graph.colors[n:], graph.args)]
    first: dict = {}
    for v, s in enumerate(slots, n):
        first.setdefault(s, v)
    return slots, first, list(first), None


def _no_tag(i):
    return None


def _key_vertices(graph: KeyGraph, base: BaseGraph, n: int) -> tuple:
    """(slots, first, new, gone) of a key-form graph, as `_graph_vertices`
    gives them, but by difference from the base's last key: `new` holds the
    slots that the last graph lacks, sorted by vertex index, and `gone` the
    slots that it had and this graph lacks, or is None on a restart. Only
    the atoms of `encoding.changed(key, base.key)` and the actions are
    looked up, and the slots of the atoms come in ascending atom id from
    the base's map."""
    task, key, encoding = graph.task, graph.key, graph.encoding
    tag_of = encoding.tags(task, key)
    restart = base.key is None
    if restart:
        changed, old_tag = encoding.atoms(task, key), _no_tag
    else:
        changed, old_tag = encoding.changed(key, base.key), base.tag_of
    atom_slot = base.atom_slot
    table = atom_vertices(task)
    new, gone = [], []
    for i in changed:
        tag = tag_of(i)
        was = old_tag(i)
        if tag != was:
            if was is not None:
                gone.append(atom_slot.pop(i))
            if tag is not None:
                args, colors = table[i]
                s = atom_slot[i] = _slot_of(base, (colors[tag], args))
                new.append(s)
    if new or gone:
        base.atom_order = list(map(atom_slot.__getitem__, sorted(atom_slot)))

    action_slot = base.action_slot
    order = []
    for action in encoding.actions(key):
        s = action_slot.get(action._key)
        if s is None:
            s = action_slot[action._key] = _slot_of(base, action_vertex(task, action))
        order.append(s)
    old_order = base.action_order
    if order != old_order:
        now, old = set(order), set(old_order)
        gone += [s for s in old_order if s not in now]
        new += [s for s in order if s not in old]
    base.action_order = order
    base.key, base.tag_of = key, tag_of

    slots = base.atom_order + order
    first = dict(zip(slots, range(n, n + len(slots))))
    new.sort(key=first.__getitem__)
    return slots, first, new, None if restart else gone


def wl_features(graph: LabeledGraph | KeyGraph, iterations: int, dictionary: ColorDictionary,
                *, base: BaseGraph | None = None) -> FeatureVector:
    """Count colors of every vertex at iterations 0..L against the dictionary.

    Vertices are refined in vertex order, iteration by iteration. Unknown
    colors are never counted and never enter the dictionary. `base` keeps
    what this call needs of the last graph refined with this dictionary,
    which the call replaces by `graph` (see the module docstring); without
    one, the call has its own. The graph is explicit, or in key form, when
    the vertices that changed are read from the keys. Raises ValueError for
    negative iterations.
    """
    if iterations < 0:
        raise ValueError(f"WL iterations must be at least 0, not {iterations}")
    if base is None:
        base = BaseGraph()
    if isinstance(graph, KeyGraph):
        task, encoding = graph.task, graph.encoding
        objects = object_colors(task)
    else:
        task = encoding = None
        objects = graph.colors[:len(graph.colors) - len(graph.args)]
    n = len(objects)
    if (base.task is not task or base.encoding is not encoding or base.objects != objects
            or base.iterations != iterations or base.dictionary is not dictionary):
        base.dictionary, base.objects, base.iterations = dictionary, objects, iterations
        base.task, base.encoding = task, encoding
        base.slot, base.keys = {}, [None] * n
        base.levels = [[] for _ in range(iterations + 1)]
        base.key, base.atom_slot, base.atom_order = None, {}, []
        base.action_slot, base.action_order = {}, []
    if task is None:
        slots, first, new, gone = _graph_vertices(graph, base, n)
    else:
        slots, first, new, gone = _key_vertices(graph, base, n)
    keys = base.keys
    levels = base.levels
    for level in levels:
        level += repeat(None, len(keys) - len(level))

    if gone is None:
        # no usable base: every vertex is new
        gone = ()
        added = slots
        fresh = range(n)
        incident = [[] for _ in range(n)]
    else:
        added = new
        fresh = ()
        incident = base.incident
    base.incident = incident

    # objects whose incident fact vertices changed
    moved = set(fresh)
    for s in gone:
        for u in keys[s][1]:
            incident[u] = [pair for pair in incident[u] if pair[1] != s]
            moved.add(u)
    for s in added:
        for label, u in enumerate(keys[s][1], 1):
            incident[u].append((label, s))
            moved.add(u)

    known = dictionary._index.get
    lookup = dictionary.lookup
    current = levels[0]
    for v, color in [(u, objects[u]) for u in fresh] + [(s, keys[s][0]) for s in new]:
        if current[v] is None:  # an iteration-0 id is fixed while the base lives
            idx = lookup("c|" + color)
            current[v] = UNKNOWN if idx is None else idx

    changed_objects: list[int] = []
    changed_facts: list[int] = []
    for iteration in range(iterations):
        # a vertex is dirty if it is new, or if its incident fact vertices,
        # its own color or a neighbor's changed at the last iteration; the
        # others keep their ids
        dirty_objects = set(moved)
        dirty_facts = set(new)
        for u in changed_objects:
            dirty_objects.add(u)
            dirty_facts.update(s for _, s in incident[u])
        for s in changed_facts:
            dirty_facts.add(s)
            dirty_objects.update(keys[s][1])
        refined = levels[iteration + 1]
        changed_objects = []
        changed_facts = []
        for u in sorted(dirty_objects):
            key = (current[u], tuple(sorted([(label, current[s]) for label, s in incident[u]])))
            idx = known(key)
            if idx is None:
                idx = lookup(key)
                if idx is None:
                    idx = UNKNOWN
            if idx != refined[u]:
                refined[u] = idx
                changed_objects.append(u)
        for v in sorted(map(first.__getitem__, dirty_facts)):
            s = slots[v - n]
            if not iteration and refined[s] is not None:
                continue  # a slot's iteration-1 id is fixed while the base lives
            args = keys[s][1]
            key = (current[s], tuple([(label, current[u]) for label, u in enumerate(args, 1)]))
            idx = known(key)
            if idx is None:
                idx = lookup(key)
                if idx is None:
                    idx = UNKNOWN
            if idx != refined[s]:
                refined[s] = idx
                changed_facts.append(s)
        current = refined

    order = list(range(n))
    order += slots
    counts: FeatureVector = {}
    for level in levels:
        for idx in map(level.__getitem__, order):
            counts[idx] = counts.get(idx, 0) + 1
    counts.pop(UNKNOWN, None)
    return counts


def phi(task, state, rho, graph_kind: str, iterations: int,
        dictionary: ColorDictionary) -> FeatureVector:
    """Feature vector of a (state, partial action) pair through AOAG or AEG."""
    encoding = graph_encoding(graph_kind)
    return wl_features(encoding.build(task, encoding.key(task, state, rho)), iterations,
                       dictionary)


def graph_encoding(graph_kind: str) -> Encoding:
    """The `graphs.Encoding` of AOAG or AEG: `key(task, state, rho)` gives a
    node's graph key and `build(task, key)` its graph, as `phi` builds it.
    Equal keys give equal graphs, vertex order included. Raises ValueError
    for another kind."""
    kind = graph_kind.lower()
    if kind == AOAG:
        return AOAG_ENCODING
    if kind == AEG:
        return AEG_ENCODING
    raise ValueError(f"unknown graph kind: {graph_kind}")


def keyed_features(task, graph_kind: str, iterations: int, dictionary: ColorDictionary,
                   then=None):
    """(state, rho) -> the node's feature vector, or then(vector) if `then`
    is given, computed once per graph key of `graph_encoding` and cached, with
    one base graph for the task. A key fixes the graph and its vertex order,
    so a repeated key would give an equal vector with the same key order; in
    a growing dictionary it would only meet colours that are already in it.
    Each new key is refined in key form, by difference from the last one."""
    encoding = graph_encoding(graph_kind)
    key_of = encoding.key
    values: dict = {}
    base = BaseGraph()

    def features(state, rho):
        key = key_of(task, state, rho)
        value = values.get(key)
        if value is None:
            # a module global looked up at each call, so that tracers that
            # wrap `wl_features` see every refinement
            value = wl_features(KeyGraph(encoding, task, key), iterations, dictionary,
                                base=base)
            if then is not None:
                value = then(value)
            values[key] = value
        return value

    return features
