"""Weisfeiler-Lehman color refinement over labeled graphs.

Refined colors are canonical signatures (own color plus the sorted multiset of
(edge label, neighbor color) pairs), interned injectively in a ColorDictionary;
no lossy hashing. Feature vectors count color occurrences over iterations
0..L. A frozen dictionary never grows: colors it has not seen contribute
nothing, but refinement still runs over them so known colors downstream keep
their meaning.
"""

from __future__ import annotations

from .graphs import LabeledGraph, aeg, aoag

AOAG = "aoag"
AEG = "aeg"
GRAPH_KINDS = (AOAG, AEG)

FeatureVector = dict  # feature index -> positive count


class ColorDictionary:
    """Injective map from color signatures to dense feature indices."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self.frozen = False

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, key: str) -> int | None:
        idx = self._index.get(key)
        if idx is None and not self.frozen:
            idx = len(self._index)
            self._index[key] = idx
        return idx

    def freeze(self) -> "ColorDictionary":
        self.frozen = True
        return self

    def items(self):
        return self._index.items()

    @classmethod
    def from_items(cls, items) -> "ColorDictionary":
        d = cls()
        for key, idx in items:
            d._index[key] = idx
        if sorted(d._index.values()) != list(range(len(d._index))):
            raise ValueError("color dictionary indices are not dense")
        d.frozen = True
        return d


def wl_features(graph: LabeledGraph, iterations: int, dictionary: ColorDictionary) -> FeatureVector:
    """Count colors of every vertex at iterations 0..L against the dictionary.

    Unknown colors get call-local placeholder ids so refinement stays
    well-defined, but they are never counted and never enter the dictionary.
    """
    counts: FeatureVector = {}
    temps: dict[str, int] = {}

    def resolve(key: str) -> int:
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
        refined = []
        for v in range(len(current)):
            pairs = sorted((label, current[u]) for label, u in adjacency[v])
            key = f"s|{current[v]}|" + ";".join(f"{l},{c}" for l, c in pairs)
            refined.append(resolve(key))
        current = refined
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
