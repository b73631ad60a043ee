"""The benchmark's tracer against the package it traces.

perfbench/spans.py patches patchloom's public functions by name.  A
renamed or deleted function makes its install raise, so this test runs
install and restore on the checkout's package: a traced name that goes
missing fails here, not only in a traced benchmark run.
"""

import importlib.util
import os

from patchloom import (cli, corpus, decoding, evaluation, generation, lexicon,
                       mining, model, modelio, repo, training)

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "spans.py")

OWNERS = (cli, corpus, decoding, evaluation, generation, lexicon, mining,
          model, modelio, repo, training, repo.GitCliRepo, repo.InMemoryRepo,
          training.AdamState)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def snapshot():
    return {(owner, name): value for owner in OWNERS
            for name, value in vars(owner).items()}


def test_install_patches_the_traced_names_and_restore_undoes_it():
    spans = load_spans()
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
