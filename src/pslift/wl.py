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

The first refinement memo. Object vertices always start with the colors of
`graphs.object_colors`, fixed per task. So a fact vertex's iteration-1 color
is a function of its initial color id and its argument objects, for one task
and one dictionary, and `wl_features` can keep it in a dict `memo` that the
caller owns for that task and dictionary (one per search in the learned
heuristic, one per task in training). The memo holds known ids only (>= 0).
That is sound in both kinds of dictionary:
- A growing dictionary gives every key an id and never changes an id once
  given, so a memo hit names the key that a lookup would have found; the
  lookup would have added nothing.
- A frozen dictionary knows a refined key only if it knows every id in it,
  since it stores no key that holds an unknown color. So a known refined id
  implies known inputs, and an unknown input makes every key that holds it
  unknown, whatever placeholder stands for it. That is also why one
  placeholder, -1, serves every unknown color: it is never counted, never
  stored, and never part of a known key.
A hit counts its color at the point where the lookup would have counted it,
so feature vectors keep their key order, which `ranking.sparse_dot` sums in.

`phi` featurizes a node through the graph key and build of
`graph_encoding`; `keyed_features` does so once per distinct graph key of a
task, for the learned heuristic, training and dataset export. `aoag` and
`aeg` stay importable here because the benchmark's tracer wraps them by
these names.
"""

from __future__ import annotations

from .graphs import LabeledGraph, aeg, aeg_graph, aeg_key, aoag, aoag_graph, aoag_key  # noqa: F401

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


def wl_features(graph: LabeledGraph, iterations: int, dictionary: ColorDictionary,
                memo: dict | None = None) -> FeatureVector:
    """Count colors of every vertex at iterations 0..L against the dictionary.

    Vertices are refined in vertex order, iteration by iteration. Unknown
    colors are never counted and never enter the dictionary. `memo` keeps
    the iteration-1 colors of fact vertices for the graph's task and this
    dictionary (see the module docstring); without one, the call has its own.
    Raises ValueError for negative iterations.
    """
    if iterations < 0:
        raise ValueError(f"WL iterations must be at least 0, not {iterations}")
    if memo is None:
        memo = {}
    counts: FeatureVector = {}
    # most keys are known; only a miss needs `lookup`, which may add the key
    known = dictionary._index.get

    def resolve(key: ColorKey) -> int:
        idx = known(key)
        if idx is None:
            idx = dictionary.lookup(key)
            if idx is None:
                return UNKNOWN
        counts[idx] = counts.get(idx, 0) + 1
        return idx

    current = [resolve("c|" + color) for color in graph.colors]
    facts = graph.args
    n = len(current) - len(facts)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v, args in enumerate(facts, n):
        for label, u in enumerate(args, 1):
            incident[u].append((label, v))

    for iteration in range(iterations):
        refined = [resolve((current[u], tuple(sorted([(label, current[v])
                                                      for label, v in incident[u]]))))
                   for u in range(n)]
        if iteration:
            refined += [resolve((own, tuple([(label, current[u])
                                             for label, u in enumerate(args, 1)])))
                        for own, args in zip(current[n:], facts)]
        else:
            for own, args in zip(current[n:], facts):
                idx = memo.get((own, args))
                if idx is None:
                    idx = resolve((own, tuple([(label, current[u])
                                               for label, u in enumerate(args, 1)])))
                    if idx != UNKNOWN:
                        memo[own, args] = idx
                else:
                    counts[idx] = counts.get(idx, 0) + 1
                refined.append(idx)
        current = refined
    return counts


def phi(task, state, rho, graph_kind: str, iterations: int, dictionary: ColorDictionary,
        memo: dict | None = None) -> FeatureVector:
    """Feature vector of a (state, partial action) pair through AOAG or AEG.
    `memo` is as in `wl_features`: one per task and dictionary, or none."""
    key_of, build = graph_encoding(graph_kind)
    return wl_features(build(task, key_of(task, state, rho)), iterations, dictionary, memo)


def graph_encoding(graph_kind: str):
    """(key, build) of AOAG or AEG: `key(task, state, rho)` gives a node's
    graph key and `build(task, key)` its graph, as `phi` would build it.
    Equal keys give equal graphs, vertex order included."""
    kind = graph_kind.lower()
    if kind == AOAG:
        return aoag_key, aoag_graph
    if kind == AEG:
        return aeg_key, aeg_graph
    raise ValueError(f"unknown graph kind: {graph_kind}")


def keyed_features(task, graph_kind: str, iterations: int, dictionary: ColorDictionary,
                   then=None):
    """(state, rho) -> the node's feature vector, or then(vector) if `then`
    is given, computed once per graph key of `graph_encoding` and cached with
    one WL memo for the task. A key fixes the graph and its vertex order, so
    a repeated key would give an equal vector with the same key order; in a
    growing dictionary it would only meet colours that are already in it."""
    key_of, build = graph_encoding(graph_kind)
    values: dict = {}
    memo: dict = {}

    def features(state, rho):
        key = key_of(task, state, rho)
        value = values.get(key)
        if value is None:
            # a module global looked up at each call, so that tracers that
            # wrap `wl_features` see every refinement
            value = wl_features(build(task, key), iterations, dictionary, memo)
            if then is not None:
                value = then(value)
            values[key] = value
        return value

    return features
