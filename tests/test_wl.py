import random

import pytest

from pslift.graphs import LabeledGraph
from pslift.lifted import ROOT, PartialAction, apply, instantiations
from pslift.wl import AEG, AOAG, ColorDictionary, phi, wl_features

import oracles


def path_graph():
    """A path of three vertices of color c: an object between two unary facts
    on it."""
    return LabeledGraph(["c", "c", "c"], [(0,), (0,)])


def random_graph(rng, objects=4, facts=5, colors=("r", "g", "b")):
    """Objects, then facts of arity 0 to 3 on random objects, repeats
    included."""
    return LabeledGraph(
        [rng.choice(colors) for _ in range(objects + facts)],
        [tuple(rng.randrange(objects) for _ in range(rng.randrange(4))) for _ in range(facts)])


def permuted(g, rng):
    """The same graph with its objects and its fact vertices each put in a
    random order."""
    n = len(g.colors) - len(g.args)
    objects = list(range(n))
    rng.shuffle(objects)
    new_id = {old: new for new, old in enumerate(objects)}
    facts = list(range(len(g.args)))
    rng.shuffle(facts)
    return LabeledGraph([g.colors[u] for u in objects] + [g.colors[n + j] for j in facts],
                        [tuple(new_id[u] for u in g.args[j]) for j in facts])


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
        g2 = LabeledGraph(["c", "never-seen"], [(0,)])
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
        expected = wl_features(oracles.node_graph(bw2, bw2.initial_state, ROOT, "aoag"), 2, d)
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
