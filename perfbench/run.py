#!/usr/bin/env python3
"""Benchmark of bnesolve's certified-solve pipeline, run as a user runs a preset.

    python3 perfbench/run.py --workload ipv_fine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload runs in its own process with the BLAS thread count pinned.
The problems are built with ``build_problem`` and ``Problem.discretize`` and
solved with ``run_batch``, the call behind ``bnesolve solve`` and ``preset
run``; all timing happens out here, from ``run_batch``'s public ``progress``
records.  With ``--trace 1`` one untraced round is followed by a traced
set-up and round (see ``spans.py``), and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ipv_fine", "correlated", "split_award")

# Reference thread count; never more than the cores this process may use.
BLAS_THREADS = 2
# Address-space cap of a workload process.  Resident memory peaks at 1.4 GiB
# and every workload runs under the cap; it makes an allocation beyond it fail
# the same way on every host instead of pressing on the machine's memory.
ADDRESS_SPACE_CAP = 6 << 30
WARM_UP_ITERATIONS = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int,
                   default=min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return p.parse_args(argv)


def pin_process(threads: int):
    """Pin BLAS threads (read when numpy loads) and cap the address space."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def machine_facts(threads: int) -> dict:
    import ctypes

    import numpy
    import scipy

    def blas_version(mod):
        return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    in_force = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                in_force[Path(lib).name] = fn()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
            "scipy_openblas": blas_version(scipy), "blas_threads_pinned": threads,
            "blas_threads_in_force": in_force}


# -- one workload in this process --------------------------------------------------

def setup(bn, workload, seed):
    """Build and discretize every problem of the workload, as a preset run does."""
    problems = []
    for item in workload.items:
        mapping = {**bn.presets.get_preset(item.preset), **item.overrides}
        if item.seeded:
            mapping["seed"] = seed
        problem = bn.config.build_problem(bn.config.config_from_mapping(mapping))
        problem.discretize()
        problems.append(problem)
    return problems


def run_item(bn, item, problem, out_dir, returned, tracer):
    """One ``run_batch`` call; returns its wall time and one record per run."""
    from workloads import check_artifacts  # imports numpy: only after the timed import

    shutil.rmtree(out_dir, ignore_errors=True)
    records = []

    def progress(rec):
        if "run" in rec:  # pair the run's end record with what run() returned for it
            rec = {**rec, "result": returned.pop() if returned else None}
            returned.clear()
        records.append((perf_counter(), rec))

    returned.clear()
    start = perf_counter()
    try:
        bn.runner.run_batch(problem, out_dir, runs=item.runs, force=True, progress=progress)
        batch_error = ""
    except RuntimeError as exc:
        if not str(exc).startswith(f"all {item.runs} runs failed"):
            raise
        batch_error = str(exc)
    wall = perf_counter() - start

    reasons = {}
    summary = out_dir / "summary.csv"
    if summary.exists():
        with summary.open() as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            reasons = {r["run"]: r["termination"] for r in rows}

    tol = problem.config.tolerance
    runs, iters, run_start = [], [], start
    for t, rec in records:
        if "run" not in rec:
            iters.append((t, rec["iteration"], rec["max_loss"]))
            continue
        certified = bool(iters) and iters[-1][2] < tol
        run = {"item": item.label, "run": rec["run"], "status": rec["status"],
               "certified": certified,
               "certify_s": iters[-1][0] - run_start if iters else 0.0,
               "iterations": iters[-1][1] if iters else 0,
               "span_s": iters[-1][0] - iters[0][0] if iters else 0.0,
               "span_iters": iters[-1][1] - iters[0][1] if iters else 0,
               "max_loss": iters[-1][2] if iters else None}
        result = rec["result"]
        if rec["status"] != "ok":
            run["reason"] = "raised: " + (reasons.get(rec["run"]) or batch_error or "unknown")
        elif not certified:
            run["reason"] = f"no certificate: max loss {run['max_loss']:.3e} after " \
                            f"{run['iterations']} iterations"
        else:
            run_dir = out_dir / rec["run"]
            meta = json.loads((run_dir / "meta.json").read_text())
            if meta.get("termination") != "converged":
                run["reason"] = f"meta.json says termination={meta.get('termination')}"
            elif result is None:
                run["reason"] = "run() returned no result"
            else:
                if tracer is not None:
                    tracer.context = "check"
                why = check_artifacts(bn, item, problem, run_dir, result, meta)
                if tracer is not None:
                    tracer.context = "round"
                if why:
                    run["reason"] = "check: " + why
        run["expected"] = "reason" in run and item.is_known_fault(run)
        runs.append(run)
        iters, run_start = [], t
    return wall, runs


def warm_up(bn, item, problem, out_dir):
    """One short, untimed run of the first item, so that the first measured run
    does not pay for the process's first large allocations; it is not counted."""
    cfg = dataclasses.replace(problem.config, iterations=WARM_UP_ITERATIONS)
    try:
        bn.runner.run_batch(dataclasses.replace(problem, config=cfg), out_dir, runs=1,
                            force=True)
    except RuntimeError as exc:  # a known fault fails the warm-up run too
        if not str(exc).startswith("all 1 runs failed"):
            raise
    shutil.rmtree(out_dir, ignore_errors=True)


def run_round(bn, workload, problems, work_dir, returned, tracer=None):
    rnd = {"batch_s": 0.0, "runs": []}
    for item, problem in zip(workload.items, problems):
        wall, runs = run_item(bn, item, problem, work_dir / item.label, returned, tracer)
        rnd["batch_s"] += wall
        rnd["runs"] += runs
    return rnd


def end_to_end(import_s, setups, rounds, peak_rss_mib):
    def per_round(key):
        return [sum(r[key] for r in rnd["runs"]) for rnd in rounds]

    span_s, span_iters = per_round("span_s"), per_round("span_iters")
    runs = sum(len(rnd["runs"]) for rnd in rounds)
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "certify_s": (statistics.median(per_round("certify_s")), "s"),
        "ms_per_iter": (statistics.median(1e3 * s / n for s, n in zip(span_s, span_iters)),
                        "ms"),
        "iterations": (statistics.median(per_round("iterations")), "count"),
        "runs_per_min": (60.0 * runs / sum(rnd["batch_s"] for rnd in rounds), "runs/min"),
        "peak_rss_mb": (peak_rss_mib, "MiB"),
    }


def run_workload(args) -> int:
    pin_process(args.blas_threads)
    t0 = perf_counter()
    import bnesolve as bn
    import bnesolve.config
    import bnesolve.presets
    import bnesolve.runner  # noqa: F401 - the pipeline's modules, imported as a user would
    import_s = perf_counter() - t0
    if not Path(bn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported bnesolve from {bn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.blas_threads)
    print("machine: " + json.dumps(facts), flush=True)
    work_dir = OUT / f"work-{os.getpid()}"

    returned = []
    run = bn.runner.run

    def capture(*a, **k):
        result = run(*a, **k)
        returned.append(result)
        return result

    bn.runner.run = capture

    try:
        setups, problems = [], None
        for _ in range(workload.setup_repeats):
            problems = None  # free the previous set before building the next
            t = perf_counter()
            problems = setup(bn, workload, args.seed)
            setups.append(perf_counter() - t)
        warm_up(bn, workload.items[0], problems[0], work_dir / "warm-up")
        rounds = []
        start = perf_counter()
        while not rounds or (not args.trace and perf_counter() - start < args.seconds):
            rounds.append(run_round(bn, workload, problems, work_dir, returned))
        untraced_s = setups[-1] + perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(import_s, setups, rounds, peak)
        trace = None
        if args.trace:
            tracer = spans.Tracer("setup")
            spans.install(tracer, bn)
            t = perf_counter()
            problems = None
            problems = setup(bn, workload, args.seed)
            tracer.context = "round"
            rounds.append(run_round(bn, workload, problems, work_dir, returned, tracer))
            overhead = perf_counter() - t - untraced_s
            metrics, calls, selfs = spans.layer_metrics(tracer.spans, overhead)
            residuals = spans.run_residuals(tracer.spans, selfs)
            trace = {"calls": calls, "run_residual_s": residuals,
                     "spans": [[s.name, s.start, s.end, s.parent, s.run, s.attrs]
                               for s in tracer.spans]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_runs = [r for rnd in rounds for r in rnd["runs"]]
    failed = [r for r in all_runs if "reason" in r]
    unexpected = [r for r in failed if not r["expected"]]
    for r in failed:
        tag = "known fault" if r["expected"] else "UNEXPECTED"
        print(f"failed run ({tag}): {r['item']}/{r['run']}: {r['reason']}")
    correct = not unexpected
    if trace is not None:
        worst = max((abs(v) for v in trace["run_residual_s"].values()), default=0.0)
        print(f"trace: {len(trace['spans'])} spans, {len(trace['run_residual_s'])} runs, "
              f"largest |run wall - sum of self times| = {worst:.2e} s")
        correct = correct and worst < 1e-6
        for name, c in trace["calls"].items():
            tail = f"  p{c['tail']['p']} {c['tail']['ms']:.3f} ms" if c["tail"] else ""
            print(f"  {name:36s} n={c['n']:6d}  median {c['median_ms']:10.3f} ms{tail}"
                  f"  total {c['total_s']:8.3f} s  self {c['self_s']:8.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")

    result = {"correct": correct, "attempted": len(all_runs), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    record = {"args": vars(args), "machine": facts, "import_s": import_s, "setups_s": setups,
              "rounds": rounds, "result": result}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace is not None:
        (OUT / "results" / f"{stem}.trace.json").write_text(json.dumps(trace, default=str))
    print(json.dumps(result))
    return 0


# -- every workload, one process each, one after another ---------------------------

def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {name}\n{proc.stdout}", end="", flush=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    print("\n" + f"{'':42s}" + "".join(f"{n:>14s}" for n in names))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:42s}" + "".join(f"{str(results[n][key]):>14s}" for n in names))
    for metric, first in results[names[0]]["metrics"].items():
        label = f"{metric} [{first['unit']}]"
        print(f"{label:42s}" + "".join(f"{results[n]['metrics'][metric]['value']:14.6g}"
                                       for n in names))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bnesolve" / "__init__.py").is_file():
        print(f"perfbench: no bnesolve package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
