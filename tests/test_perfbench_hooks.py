"""The benchmark's code against the package it runs.

perfbench/spans.py patches patchloom's public functions by name.  A
renamed or deleted function makes its install raise, so one test runs
install and restore on the checkout's package: a traced name that goes
missing fails here, not only in a traced benchmark run.  Another runs
one pass of the train workload, the only caller of the lexicon_to_ids ->
train(lexicon=) -> corpus_loss path outside the package, a third one
pass of the generate workload, which reads each answer's patch tokens,
NA reason, score and finished flag, and a fourth two passes of the
pipeline-git workload: the six subcommands over a git repository, which
train at H=512, save, load and generate at float64, and whose second
pass must write byte-identical artifacts.
"""

import importlib.util
import os

from patchloom import (cli, corpus, decoding, evaluation, generation, lexicon,
                       mining, model, modelio, repo, training)

from conftest import needs_git

PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

OWNERS = (cli, corpus, decoding, evaluation, generation, lexicon, mining,
          model, modelio, repo, training, repo.GitCliRepo, repo.InMemoryRepo,
          training.AdamState)


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {(owner, name): value for owner in OWNERS
            for name, value in vars(owner).items()}


def test_install_patches_the_traced_names_and_restore_undoes_it():
    spans = load_perfbench("spans")
    before = snapshot()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        during = snapshot()
    finally:
        tracer.restore()
    patched = {(owner.__name__, name) for (owner, name), value in during.items()
               if before.get((owner, name)) is not value}
    for owner, names in (
            (model, ("lstm_step", "attend", "attentional_vector",
                     "predict_distribution", "encode")),
            (decoding, ("lstm_step", "attend", "attentional_vector",
                        "predict_distribution", "encode")),
            (training, ("forward_pair", "backward_pair",
                        "batch_loss_and_gradients", "corpus_loss", "train"))):
        for name in names:
            assert (owner.__name__, name) in patched, name
    assert ("AdamState", "update") in patched

    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in after.items() if before[key] is not value]
    assert changed == []


def test_train_workload_pass_passes_its_checks(tmp_path):
    workloads = load_perfbench("workloads")
    train = workloads.Train(1, str(tmp_path))
    state = train.setup(0)
    record = train.run_pass(state, 0)
    record["scale"] = 1.0       # run.py sets each pass's speed scale
    _, checks = train.report(state, [], [record])
    assert [name for name, ok, _ in checks if not ok] == []


def test_generate_workload_pass_passes_its_checks(tmp_path):
    workloads = load_perfbench("workloads")
    generate = workloads.Generate(1, str(tmp_path))
    state = generate.setup(0)
    state.update(setup_s=0.0, scale=1.0)    # run.py records both per setup
    record = generate.run_pass(state, 0)
    record["scale"] = 1.0
    _, checks = generate.report(state, [state], [record])
    assert [name for name, ok, _ in checks if not ok] == []


@needs_git
def test_pipeline_git_workload_two_passes_pass_their_checks(tmp_path):
    workloads = load_perfbench("workloads")
    pipeline = workloads.PipelineGit(1, str(tmp_path))
    state = pipeline.setup(0)
    passes = [pipeline.run_pass(state, index) for index in range(2)]
    for record in passes:
        record["scale"] = 1.0
    _, checks = pipeline.report(state, [], passes)
    assert [name for name, ok, _ in checks if not ok] == []
