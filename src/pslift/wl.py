"""Weisfeiler-Lehman color refinement over labeled graphs.

Refined colors are canonical signatures (own color plus the sorted multiset of
(edge label, neighbor color) pairs), interned injectively in a ColorDictionary;
no lossy hashing. In memory an initial color's key is the string
`"c|" + color` and a refined color's key is the tuple
`(own, ((label, color), ...))` of integer ids, pairs sorted; model files
spell the tuple as `s|own|label,color;label,color`. Feature vectors count
color occurrences over iterations 0..L. A frozen dictionary never grows:
colors it has not seen contribute nothing, but refinement still runs over
them so known colors downstream keep their meaning.
"""

from __future__ import annotations

from .graphs import LabeledGraph, aeg, aeg_graph, aeg_key, aoag, aoag_graph, aoag_key

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


def wl_features(graph: LabeledGraph, iterations: int, dictionary: ColorDictionary) -> FeatureVector:
    """Count colors of every vertex at iterations 0..L against the dictionary.

    Unknown colors get call-local placeholder ids so refinement stays
    well-defined, but they are never counted and never enter the dictionary.
    Raises ValueError for negative iterations.
    """
    if iterations < 0:
        raise ValueError(f"WL iterations must be at least 0, not {iterations}")
    counts: FeatureVector = {}
    temps: dict[ColorKey, int] = {}
    # most keys are known; only a miss needs `lookup`, which may add the key
    known = dictionary._index.get

    def resolve(key: ColorKey) -> int:
        idx = known(key)
        if idx is None:
            idx = dictionary.lookup(key)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
            return idx
        t = temps.get(key)
        if t is None:
            t = -1 - len(temps)
            temps[key] = t
        return t

    current = [resolve("c|" + color) for color in graph.colors]

    adjacency: list[list[tuple[int, int]]] = [[] for _ in graph.colors]
    for u, v, label in graph.edges:
        adjacency[u].append((label, v))
        adjacency[v].append((label, u))

    for _ in range(iterations):
        current = [
            resolve((own, tuple(sorted([(label, current[u]) for label, u in adjacency[v]]))))
            for v, own in enumerate(current)
        ]
    return counts


def phi(task, state, rho, graph_kind: str, iterations: int, dictionary: ColorDictionary) -> FeatureVector:
    """Feature vector of a (state, partial action) pair through AOAG or AEG."""
    kind = graph_kind.lower()
    if kind == AOAG:
        graph = aoag(task, state, rho)
    elif kind == AEG:
        graph = aeg(task, state, rho)
    else:
        raise ValueError(f"unknown graph kind: {graph_kind}")
    return wl_features(graph, iterations, dictionary)


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
