#!/usr/bin/env python3
"""patchloom benchmark.

    python3 perfbench/run.py --workload {train,generate,pipeline-git,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is imported from the
checkout's src/.  A run sets the workload up several times, then
repeats passes of its timed phase until --seconds have elapsed, checks
every output, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from passes run with spans
recorded, interleaved with untraced passes so the tracing overhead is
measured in the same run.  Exit code 1 means a correctness check failed,
2 that the checkout or the arguments are unusable.  --workload all runs
each workload in its own process and prints every metric.

Files go to .perfbench-out/ in the checkout: one JSON record per run
(with the environment it ran in) and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
DEFAULT_SEED = 1
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# set up at least MIN_SETUPS times, and more while set-up is cheap, so the
# median of a fast set-up is not one noisy sample
MIN_SETUPS = 3
MAX_SETUPS = 20
SETUP_BUDGET_S = 2.0
# a run must end within 180 s: start no pass that would end past this
HARD_LIMIT_S = 160.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="patchloom benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["train", "generate", "pipeline-git", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Before numpy loads: one BLAS thread (threaded BLAS slows the small
    matrix-vector products that dominate patchloom), and git that reads
    no configuration or attributes from outside the checkout."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
    os.environ["GIT_CONFIG_GLOBAL"] = os.devnull
    os.environ["GIT_ATTR_NOSYSTEM"] = "1"
    os.environ["XDG_CONFIG_HOME"] = os.path.join(OUT, "xdg")
    os.environ["GIT_TERMINAL_PROMPT"] = "0"


_median = statistics.median


def _pass_seconds(passes, scaled=True) -> float:
    """Time of one pass, as the sum over its calls of each call's median
    across passes: a burst of machine noise in one pass then moves none
    of the calls it hit.  Scaled to reference speed unless told not to."""
    columns = zip(*([t * (p["scale"] if scaled else 1.0) for t in p["ops"]]
                    for p in passes))
    return sum(_median(times) for times in columns)


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    combined, correct, attempted, failed, status = {}, True, 0, 0, 0
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry
    print("all workloads:")
    _print_metrics(combined)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return status or (0 if correct else 1)


def run_one(args, spec) -> int:
    import calibrate
    import machine
    import spans
    import workloads

    # patchloom logs progress at INFO; keep stderr to warnings
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    started = time.perf_counter()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(OUT, "work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        speed = calibrate.Speed(workload.speed_scaled)
        setups = []
        while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS
                and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S):
            t0 = time.perf_counter()
            state = workload.setup(len(setups))
            state["setup_s"] = time.perf_counter() - t0
            state["scale"] = speed.step()
            setups.append(state)

        tracer = spans.Tracer() if args.trace else None
        passes = []
        window_end = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            lo, before = 0, None
            if traced:
                spans.install(tracer)
                lo, before = len(tracer), tracer.counters.copy()
            try:
                record = workload.run_pass(
                    state, len(passes), tracer.span if traced else workloads.no_span)
            finally:
                if traced:
                    tracer.restore()
            if traced:
                record["layers"] = spans.layer_metrics(
                    tracer, lo, len(tracer), tracer.counters - before)
            record["traced"] = traced
            record["scale"] = speed.step()
            passes.append(record)
            now = time.perf_counter()
            n_traced = sum(p["traced"] for p in passes)
            enough = (len(passes) - n_traced >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
                      and (tracer is None or n_traced >= MIN_TRACED_PASSES))
            if now >= window_end and enough:
                break
            if now - started + record["seconds"] > HARD_LIMIT_S:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        extra, checks = workload.report(state, setups, passes)
        untraced = [p for p in passes if not p["traced"]]
        metrics = dict(
            setup_s=_median([s["setup_s"] * s["scale"] for s in setups]),
            run_s=_pass_seconds(untraced),
            peak_rss_mb=peak_rss_mb,
        )
        if workload.speed_scaled:
            extra["setup_wall_s"] = (_median([s["setup_s"] for s in setups]), "s")
            extra["run_wall_s"] = (_pass_seconds(untraced, scaled=False), "s")
            extra["speed_scale"] = (_median([p["scale"] for p in passes]), "ratio")
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        extra["failed_ratio"] = (failed / attempted, "ratio")
        extra["passes"] = (len(untraced), "count")
        if tracer is not None:
            layers, differing = spans.summarize(
                [p["layers"] for p in passes if p["traced"]])
            checks.append(("exact counts repeat across traced passes",
                           not differing, ", ".join(differing)))
            layers["bench.traced_run_s"] = _pass_seconds(
                [p for p in passes if p["traced"]])
            layers["bench.trace_overhead_s"] = (layers["bench.traced_run_s"]
                                                - metrics["run_s"])
            layers["bench.spans"] = len(tracer)
            chosen, section = layers, "per_layer"
        else:
            chosen, section = metrics, "end_to_end"
        correct = all(ok for _, ok, _ in checks)
        units = {m["name"]: m["unit"] for m in spec[section]}
        missing = sorted(set(units) - set(chosen))
        if missing:
            # a failed subcommand leaves nothing to measure
            for name, ok, detail in checks:
                if not ok:
                    print(f"check FAIL {name} ({detail})", file=sys.stderr)
            if correct:
                raise RuntimeError(f"workload produced no value for {missing}")
            return 1
        out = {name: {"value": chosen[name], "unit": unit}
               for name, unit in units.items()}
        env = machine.environment()

        print(f"workload {args.workload}  seed {args.seed}  window {seconds:g} s"
              f"  trace {args.trace}  passes {len(passes)}"
              f"  setups {len(setups)}")
        print("env  " + "  ".join(f"{k} {v}" for k, v in env.items()))
        print(f"{section} metrics:")
        _print_metrics(out)
        print("more figures:")
        _print_metrics({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
        for name, ok, detail in checks:
            print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
                  + (f" ({detail})" if detail else ""))

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        with open(os.path.join(OUT, "results", tag + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "window_s": seconds, "trace": args.trace, "env": env,
                "metrics": out,
                "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                "checks": [{"name": n, "ok": ok, "detail": d}
                           for n, ok, d in checks],
                "setup_s": [s["setup_s"] for s in setups],
                "pass_s": [p["seconds"] for p in passes],
                "probe_s": speed.probes,
                "pass_scale": [p["scale"] for p in passes],
                "setup_scale": [s["scale"] for s in setups],
                "ops": [p["ops"] for p in passes],
                "pass_traced": [p["traced"] for p in passes],
                "attempted": attempted, "failed": failed,
            }, fh, indent=2)
        if tracer is not None:
            tracer.write(os.path.join(OUT, "traces", tag + ".tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_environment()
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "patchloom", "__init__.py")):
        print(f"error: no patchloom sources under {src}; run from the root "
              "of a patchloom checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, src)
    import patchloom
    if os.path.dirname(os.path.abspath(patchloom.__file__)) != os.path.join(src, "patchloom"):
        print(f"error: imported patchloom from {patchloom.__file__}, not {src}",
              file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
