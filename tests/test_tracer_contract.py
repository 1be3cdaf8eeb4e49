"""What the benchmark's tracer and replay use of the program.

`perfbench/spans.py` swaps public names of pslift modules for traced
wrappers, and `perfbench/run.py` replays logged nodes through the programs
behind the FF heuristics. Neither is part of the package, so a rename here
would break traced benchmark runs without any other test failing. The
tracer module is loaded from its file as it is, without edits.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from pslift import ranking, wl
from pslift.graphs import AOAG_ENCODING, KeyGraph
from pslift.lifted import ROOT, instantiations
from pslift.ranking import TrainConfig, load_model, save_model, train_model
from pslift.relaxation import DatalogProgram, FFHeuristic, RestrictedFFHeuristic
from pslift.search import gbfs_partial, gbfs_state

from test_ranking import tiny_corpus

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODELS = pathlib.Path(__file__).resolve().parent / "fixtures" / "models"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(spans):
    for module_name, attr, _, is_gen in spans.PATCHES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
        assert inspect.isgeneratorfunction(target) == is_gen, f"{module_name}.{attr}"


def test_program_methods_the_replay_calls():
    params = {name: list(inspect.signature(getattr(DatalogProgram, name)).parameters)
              for name in ("h_ff", "h_ff_restricted", "relaxed_reach", "_extract")}
    assert params["h_ff"] == ["self", "state"]
    assert params["h_ff_restricted"] == ["self", "state", "actions"]
    assert params["relaxed_reach"] == ["self", "state", "actions"]
    assert params["_extract"] == ["self", "reach"]


def test_heuristics_expose_their_program(bw2):
    s0 = bw2.initial_state
    ff = FFHeuristic(bw2)
    assert isinstance(ff.program, DatalogProgram)
    assert ff.program.h_ff(s0) == ff(s0) == ff.program._extract(ff.program.relaxed_reach(s0))

    restricted = RestrictedFFHeuristic(bw2)
    assert isinstance(restricted.program, DatalogProgram)
    actions = list(instantiations(bw2, s0, ROOT))
    program = restricted.program
    assert program.h_ff_restricted(s0, actions) == restricted(s0, ROOT)
    assert program._extract(program.relaxed_reach(s0, actions)) == restricted(s0, ROOT)


def _refine_args(task):
    key = AOAG_ENCODING.key(task, task.initial_state, ROOT)
    return KeyGraph(AOAG_ENCODING, task, key), 2, wl.ColorDictionary()


def _dataset_args(dictionary):
    _, task, plan = tiny_corpus(n=1)[0]
    features = wl.keyed_features(task, "aoag", 2, dictionary)
    return task, plan, features, TrainConfig().resolved_importances()


def _lp_args():
    dictionary = wl.ColorDictionary()
    dataset = ranking.informative(ranking.generate_dataset(*_dataset_args(dictionary)))
    return dataset, 1.0, len(dictionary)


# per noted span: the (module, name) that its span wraps, and the args of
# one real call of it
NOTE_CALLS = {
    "graphs.build": ("pslift.wl", "aoag", lambda task: (task, task.initial_state, ROOT)),
    "wl.refine": ("pslift.wl", "wl_features", _refine_args),
    "ranking.dataset": ("pslift.ranking", "generate_dataset",
                        lambda task: _dataset_args(wl.ColorDictionary())),
    "ranking.lp": ("pslift.ranking", "train_lp", lambda task: _lp_args()),
}


def test_every_note_has_a_real_call(spans):
    assert set(NOTE_CALLS) == set(spans.NOTES)


@pytest.mark.parametrize("span", [
    pytest.param("graphs.build", marks=pytest.mark.xfail(
        strict=True, raises=AttributeError,
        reason="the note reads g.edges, which graphs.LabeledGraph lacks; the fix is "
               "part of ROADMAP item 1, which must then remove this marker")),
    "wl.refine", "ranking.dataset", "ranking.lp"])
def test_each_note_reads_what_its_call_gives(spans, bw3_stack, span):
    """A note reads only attributes that the args and the result of the
    function that its span wraps have."""
    module_name, attr, make_args = NOTE_CALLS[span]
    assert (module_name, attr, span, False) in spans.PATCHES
    args = make_args(bw3_stack)
    result = getattr(importlib.import_module(module_name), attr)(*args)
    assert spans.NOTES[span](args, result) is not None


def _traced_and_plain(spans, space, run):
    """The tracer of a traced run(), after checking that it restores every
    patched name and gives the plan and counters of a plain run()."""

    def patched():
        return [getattr(importlib.import_module(m), attr) for m, attr, _, _ in spans.PATCHES]

    plain = run()
    originals = patched()
    tracer = spans.Tracer()
    tracer.solve = space
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert patched() == originals

    assert traced.plan == plain.plan
    counters = [(r.stats.expansions, r.stats.evaluations, r.stats.generated)
                for r in (plain, traced)]
    assert counters[0] == counters[1]
    return tracer


@pytest.mark.parametrize("space", ["state", "partial"])
def test_traced_search_matches_the_plain_one(spans, bw3_stack, space):
    if space == "state":
        def run():
            return gbfs_state(bw3_stack, FFHeuristic(bw3_stack))
    else:
        def run():
            return gbfs_partial(bw3_stack, RestrictedFFHeuristic(bw3_stack))

    tracer = _traced_and_plain(spans, space, run)
    assert tracer.counts[(space, "lifted.instantiations_calls")] > 0
    names = {tracer.names[i] for i in tracer.name}
    if space == "partial":
        assert "lifted.children" in names


@pytest.mark.parametrize("kind", ["aoag", "aeg"])
@pytest.mark.parametrize("space", ["state", "partial"])
def test_traced_learned_search_matches_the_plain_one(spans, bw3_stack, space, kind):
    """The `wl.refine` note reads the colours of the graph that
    `wl_features` receives."""
    model = load_model(str(MODELS / f"tiny-{kind}.model"))
    if space == "state":
        def run():
            return gbfs_state(bw3_stack, model.state_heuristic(bw3_stack))
    else:
        def run():
            return gbfs_partial(bw3_stack, model.heuristic(bw3_stack))

    tracer = _traced_and_plain(spans, space, run)
    assert "wl.refine" in {tracer.names[i] for i in tracer.name}
    assert tracer.notes["wl.refine"]


@pytest.mark.parametrize("kind", ["aoag", "aeg"])
def test_traced_training_matches_the_plain_one(spans, tmp_path, kind):
    """Training with every span installed writes the model file of a plain
    run byte for byte, and the tracer sees its WL calls."""
    corpus = tiny_corpus(n=3)

    def train(path):
        model, _ = train_model(corpus, TrainConfig(graph_kind=kind))
        save_model(model, str(path))
        return path.read_bytes()

    plain = train(tmp_path / "plain.model")
    tracer = spans.Tracer()
    tracer.solve = f"train-{kind}"
    tracer.install()
    try:
        traced = train(tmp_path / "traced.model")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.notes["wl.refine"] and tracer.notes["ranking.dataset"]
