import random

import pytest

from pslift.graphs import LabeledGraph, ilg
from pslift.lifted import ROOT, PartialAction, apply, instantiations
from pslift.wl import AEG, AOAG, ColorDictionary, phi, wl_features


def path_graph():
    g = LabeledGraph()
    v1 = g.add_vertex("c")
    v2 = g.add_vertex("c")
    v3 = g.add_vertex("c")
    g.add_edge(v1, v2, 1)
    g.add_edge(v2, v3, 1)
    return g


def random_graph(rng, n=8, colors=("r", "g", "b"), labels=(1, 2)):
    g = LabeledGraph()
    for _ in range(n):
        g.add_vertex(rng.choice(colors))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                g.add_edge(i, j, rng.choice(labels))
    return g


def permuted(g, rng):
    perm = list(range(len(g.colors)))
    rng.shuffle(perm)
    out = LabeledGraph()
    order = sorted(range(len(perm)), key=lambda i: perm[i])
    for i in order:
        out.add_vertex(g.colors[i])
    new_id = {i: perm[i] for i in range(len(perm))}
    edges = [(new_id[u], new_id[v], l) for u, v, l in g.edges]
    rng.shuffle(edges)
    for u, v, l in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(u, v, l)
    return out


class TestWlFeatures:
    def test_path_refinement_by_hand(self):
        d = ColorDictionary()
        fv = wl_features(path_graph(), 1, d)
        # iteration 0: all three vertices share color c
        # iteration 1: endpoints see one (1,c) pair, the middle sees two
        assert len(d) == 3
        c = d.lookup("c|c")
        assert fv[c] == 3
        others = sorted(v for k, v in fv.items() if k != c)
        assert others == [1, 2]

    def test_zero_iterations_is_color_histogram(self):
        rng = random.Random(0)
        g = random_graph(rng)
        d = ColorDictionary()
        fv = wl_features(g, 0, d)
        from collections import Counter
        hist = Counter(g.colors)
        assert {k: v for k, v in fv.items()} == {
            d.lookup(f"c|{c}"): n for c, n in hist.items()
        }

    def test_permutation_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng)
            d = ColorDictionary()
            base = wl_features(g, 2, d)
            for _ in range(10):
                assert wl_features(permuted(g, rng), 2, d) == base

    def test_iteration_prefix_property(self):
        rng = random.Random(3)
        g = random_graph(rng)
        d = ColorDictionary()
        fv2 = wl_features(g, 2, d)
        fv1 = wl_features(g, 1, d)
        fv0 = wl_features(g, 0, d)
        for small, big in ((fv0, fv1), (fv1, fv2)):
            assert all(big.get(k) == v for k, v in small.items())

    def test_total_iteration0_count_is_vertex_count(self):
        rng = random.Random(11)
        g = random_graph(rng)
        d0 = ColorDictionary()
        fv0 = wl_features(g, 0, d0)
        assert sum(fv0.values()) == len(g.colors)

    def test_frozen_dictionary_drops_unknown_colors(self):
        g1 = path_graph()
        d = ColorDictionary()
        wl_features(g1, 1, d)
        d.freeze()
        size = len(d)
        g2 = LabeledGraph()
        a = g2.add_vertex("never-seen")
        b = g2.add_vertex("c")
        g2.add_edge(a, b, 1)
        fv = wl_features(g2, 1, d)
        assert len(d) == size  # no growth
        known_c = d.lookup("c|c")
        assert fv.get(known_c) == 1
        assert all(idx >= 0 for idx in fv)

    def test_growing_twice_is_stable(self):
        rng = random.Random(9)
        graphs = [random_graph(rng) for _ in range(5)]
        d = ColorDictionary()
        for g in graphs:
            wl_features(g, 2, d)
        first = dict(d.items())
        for g in graphs:
            wl_features(g, 2, d)
        assert dict(d.items()) == first


class TestPhi:
    def test_phi_root_aoag_equals_ilg_features(self, bw2):
        d = ColorDictionary()
        got = phi(bw2, bw2.initial_state, ROOT, AOAG, 2, d)
        expected = wl_features(ilg(bw2, bw2.initial_state), 2, d)
        assert got == expected

    def test_phi_full_action_matches_successor_root(self, bw2):
        s = bw2.initial_state
        rho = PartialAction(bw2.schema("pickup"), ("a",))
        action = next(instantiations(bw2, s, rho))
        d = ColorDictionary()
        assert phi(bw2, s, rho, AOAG, 2, d) == phi(bw2, apply(bw2, s, action), ROOT, AOAG, 2, d)

    def test_phi_aeg_runs(self, bw3_stack):
        d = ColorDictionary()
        rho = PartialAction(bw3_stack.schema("stack"), ("b",))
        fv = phi(bw3_stack, bw3_stack.initial_state, rho, AEG, 2, d)
        assert fv and all(v > 0 for v in fv.values())

    def test_unknown_kind_rejected(self, bw2):
        with pytest.raises(ValueError):
            phi(bw2, bw2.initial_state, ROOT, "ilg2", 2, ColorDictionary())
