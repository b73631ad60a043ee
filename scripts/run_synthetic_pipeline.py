#!/usr/bin/env python3
"""Train and score the bundled synthetic rewrite benchmark.

Runs the release gate (synthdata.run_benchmark with GATE_CONFIG): 2000
training pairs over five rewrite rules plus distractors, a held-out
exact-match set, and a query set with 40% novel statements scored
against the pattern-matching baseline.  Writes model.plm, summary.json
and sweep.csv to --out-dir.  The whole run is deterministic.

Usage:
    python scripts/run_synthetic_pipeline.py --out-dir out/synth
"""

import argparse
import json
import logging
import os
import sys

from patchloom.evaluation import render_table, sweep_thresholds, write_sweep_csv
from patchloom.modelio import save_model
from patchloom.synthdata import GATE_CONFIG, make_benchmark, run_benchmark

log = logging.getLogger("synthetic-pipeline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out/synthetic")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s")
    os.makedirs(args.out_dir, exist_ok=True)

    run = run_benchmark(make_benchmark(), GATE_CONFIG)
    if run.logbook.aborted:
        log.error("training aborted on non-finite loss")
        return 1
    log.info("trained: best dev loss %.4f at epoch %d (%.0fs)",
             run.logbook.best_dev_loss, run.logbook.best_epoch,
             run.train_seconds)
    model_path = os.path.join(args.out_dir, "model.plm")
    save_model(model_path, run.params, run.src_vocab, run.tgt_vocab)
    log.info("held-out exact match: %d/%d = %.3f",
             run.hits, run.total, run.exact)
    print(render_table([("model", run.model_report),
                        ("baseline", run.baseline_report)]))

    sweep = sweep_thresholds(run.results, run.references)
    write_sweep_csv(os.path.join(args.out_dir, "sweep.csv"),
                    sweep, run.baseline_report)
    for threshold, rep in sweep:
        log.info("sweep %+.1f: F1 %.4f", threshold, rep.f1)

    summary = {
        "held_out_exact": run.exact,
        "model": run.model_report.as_dict(),
        "baseline": run.baseline_report.as_dict(),
        "best_epoch": run.logbook.best_epoch,
        "best_dev_loss": run.logbook.best_dev_loss,
        "seconds": round(run.seconds, 1),
        "model_path": model_path,
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    log.info("done in %.0fs; summary in %s; gate %s", run.seconds,
             args.out_dir, "passed" if run.passed else "FAILED")
    return 0 if run.passed else 1


if __name__ == "__main__":
    sys.exit(main())
