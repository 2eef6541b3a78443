"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload syn6 --seed 1 --seconds 32 --trace 0

The workload inputs come from --seed only.  Set-up time is measured in
fresh interpreters; the pipeline then runs in passes for about --seconds,
and each step's time is its median over the passes, in reference-speed
seconds (speed.py); the raw wall seconds are printed beside them.  With
--trace 1, untraced and traced passes alternate and the per-layer metrics
come from the traced ones.  Output checks run after the timed passes.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed
from tracing import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Single-threaded BLAS: the matrices are small (|U| x P) and the runs share
# a 2-core machine, where a second BLAS thread only adds noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOAD_NAMES = ("syn6", "classroom", "tempering")
SETUP_REPEATS = 9
MIN_PASSES = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", dest="setup_only", metavar="DIR",
                    help="import, build the workload inputs in DIR, and exit (used to time set-up)")
    return ap.parse_args(argv)


def _import_hrem():
    if not os.path.isdir(os.path.join(SRC, "hrem")):
        raise SystemExit("perfbench: %s/hrem not found; run from a checkout of the repository"
                         % SRC)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def _blas_threads():
    """Thread count OpenBLAS reports, read through ctypes; None if unavailable."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args):
    import numpy
    import scipy

    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "hrem"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "hrem", name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": _blas_threads(),
            "blas_threads_requested": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "source_sha256": source.hexdigest(),
            "machine": platform.machine()}


def measure_setup(args, workdir):
    """Set-up time of fresh interpreters that each import hrem and build the inputs.

    Returns the wall seconds per interpreter and the probe samples of the
    bursts run just before and just after each one.
    """
    wall, probes = [], []
    for r in range(SETUP_REPEATS):
        target = os.path.join(workdir, "setup-%d" % r)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", target]
        probes += speed.burst()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        probes += speed.burst()
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + proc.stderr)
        wall.append(elapsed)
    return wall, probes


def stage_times(passes):
    """Stage times: each step's median over passes, summed per stage."""
    stages = {}
    for key in passes[0]:
        stage = key.split("/")[0]
        stages[stage] = stages.get(stage, 0.0) + statistics.median(p[key] for p in passes)
    return stages


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer_metrics(tracer, n_passes, fit_diag, stages, pipeline_traced):
    """Per-pass layer metrics from the traced passes (0 where a layer is not reached).

    The ``stage.*`` times and ``inference.min_ess_per_s`` come from the
    untraced passes of the same run.
    """
    c, tm, ex = tracer.calls, tracer.time, tracer.extra
    pipeline_untraced = sum(stages.values())
    fit_s = stages["fit_s"]
    per = 1.0 / n_passes
    sweeps_t = ex["tempering.sweeps"]
    slice_updates = c["inference.slice_sample"]
    m = {
        "stage.simulate_s": stages["simulate_s"],
        "stage.fit_s": fit_s,
        "stage.evaluate_s": stages["evaluate_s"],
        "cli.self_s": tracer.self_time["cli.main"] * per,
        "events.load_calls": c["events.load_history"] * per,
        "events.load_us_per_event": _ratio(tm["events.load_history"],
                                           ex["events.loaded_events"], 1e6),
        "stats.table_builds": c["stats.unique_stat_table"] * per,
        "stats.table_us_per_event": _ratio(tm["stats.unique_stat_table"],
                                           ex["stats.table_events"], 1e6),
        "stats.rows_hashed": ex["stats.rows_hashed"] * per,
        "stats.unique_rows": ex["stats.unique_rows"] * per,
        "stats.unique_frac": _ratio(ex["stats.unique_rows"], ex["stats.rows_hashed"]),
        "stats.matrix_calls": c["stats.matrix"] * per,
        "stats.matrix_us_per_call": _ratio(tm["stats.matrix"], c["stats.matrix"], 1e6),
        "stats.vector_calls": c["stats.vector"] * per,
        "simulate.events": ex["simulate.events"] * per,
        "simulate.us_per_event": _ratio(tm["simulate.simulate_history"],
                                        ex["simulate.events"], 1e6),
        "simulate.self_us_per_event": _ratio(tracer.self_time["simulate.simulate_history"],
                                             ex["simulate.events"], 1e6),
        "likelihood.loglik_full_calls": c["likelihood.loglik_full"] * per,
        "likelihood.loglik_full_us": _ratio(tm["likelihood.loglik_full"],
                                            c["likelihood.loglik_full"], 1e6),
        "likelihood.hessian_calls": c["likelihood.hessian_loglik_full"] * per,
        "likelihood.hessian_us": _ratio(tm["likelihood.hessian_loglik_full"],
                                        c["likelihood.hessian_loglik_full"], 1e6),
        "inference.sweeps": c["inference.sweep"] * per,
        "inference.sweep_ms": _ratio(tm["inference.sweep"], c["inference.sweep"], 1e3),
        "inference.slice_updates": slice_updates * per,
        "inference.slice_evals_per_update": _ratio(c["inference.slice_eval"], slice_updates),
        "inference.slice_eval_us": _ratio(tm["inference.slice_eval"],
                                          c["inference.slice_eval"], 1e6),
        "inference.map_s": tm["inference.map_estimate"] * per,
        "inference.min_ess": fit_diag["min_ess"],
        "inference.max_rhat": fit_diag["max_rhat"],
        "inference.min_ess_per_s": _ratio(fit_diag["min_ess"], fit_s),
        "tempering.sweeps": sweeps_t * per,
        "tempering.sweep_ms": _ratio(tm["tempering.tempered_sample"], sweeps_t, 1e3),
        "tempering.energy_evals": c["tempering.joint_log_posterior"] * per,
        "tempering.energy_eval_us": _ratio(tm["tempering.joint_log_posterior"],
                                           c["tempering.joint_log_posterior"], 1e6),
        "tempering.swap_rate": tracer.notes.get("tempering.swap_rate", 0.0),
        "tempering.accept_rate": tracer.notes.get("tempering.accept_rate", 0.0),
        "trace.overhead_frac": (pipeline_traced - pipeline_untraced) / pipeline_untraced,
    }
    for key in ("residuals", "probabilities", "surprise", "recall"):
        m["diagnostics.%s_us_per_event" % key] = _ratio(
            tm["diagnostics." + key], ex["diagnostics.%s_events" % key], 1e6)
    m["diagnostics.dic_us_per_draw"] = _ratio(tm["diagnostics.dic"],
                                              ex["diagnostics.dic_draws"], 1e6)
    return m


def main(argv=None):
    args = parse_args(argv)
    workloads = _import_hrem()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.setup_only).setup()
        return 0

    run_id = "%s-s%d-p%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(OUT, run_id)
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workloads, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, run_id, workdir):
    env = _environment(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer_units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    setup_wall, setup_probes = measure_setup(args, workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(workdir, "data"))
    wl.setup()

    attempted = failed = 0
    failures = []
    pass_failed = False
    untraced, traced = [], []  # reference-speed seconds per step, one dict per pass
    walls = []  # wall seconds per step of the untraced passes
    tracer = Tracer(run_id)
    fingerprints = []
    t_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes so that both
        # see the same machine conditions; its per-layer metrics come from
        # the traced passes and its overhead from the difference.
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        if trace_this:
            install(tracer)
        attempted += wl.operations_per_pass
        try:
            steps = wl.run_pass(tracer if trace_this else None)
        except Exception:  # a pass that fails is counted and reported, not fatal
            failed += 1
            pass_failed = True
            failures.append(traceback.format_exc())
            print(failures[-1], file=sys.stderr)
            break
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(steps.reference)
        if not trace_this:
            walls.append(steps.wall)
        fingerprints.append(json.dumps(wl.fingerprint(), sort_keys=True))
        # Run at least MIN_PASSES passes, then another only if it should
        # end within --seconds.
        elapsed = time.perf_counter() - t_start
        n = len(untraced) + len(traced)
        if n >= MIN_PASSES and elapsed * (n + 1) / n > args.seconds:
            break

    # Checks and metrics read the outputs of the last pass, so a run whose
    # last pass failed reports neither.
    complete = bool(untraced) and not pass_failed
    checks = []
    if complete:
        try:
            checks = wl.check()
        except Exception:
            failures.append(traceback.format_exc())
            print(failures[-1], file=sys.stderr)
            checks = [("checks_ran", False, "exception")]
        checks.append(("passes_repeat_exactly", len(set(fingerprints)) == 1,
                       "%d passes" % len(fingerprints)))
    attempted += len(checks)
    failed += sum(1 for _, ok, _ in checks if not ok)

    report = {"environment": env, "run_id": run_id, "setup_wall_s": setup_wall,
              "setup_probe_median_s": statistics.median(setup_probes),
              "passes_wall_s": walls,
              "passes_untraced": untraced, "passes_traced": traced,
              "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
              "failures": failures, "attempted": attempted, "failed": failed}
    metrics = {}
    if complete:
        fit_diag = wl.fit_diagnostics()
        report["inputs"] = wl.counts()
        report["fit_diagnostics"] = fit_diag
        stages = stage_times(untraced)
        fit_s = stages["fit_s"]
        e2e = {
            "setup_s": (speed.reference_seconds(statistics.median(setup_wall), setup_probes),
                        "s"),
            "pipeline_s": (sum(stages.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        report["wall"] = {"setup_s": statistics.median(setup_wall),
                          "pipeline_s": sum(stage_times(walls).values())}
        report["stages"] = stages
        report["error_rate"] = failed / attempted
        report["min_ess_per_s"] = fit_diag["min_ess"] / fit_s
        if args.trace:
            layers = per_layer_metrics(tracer, len(traced), fit_diag, stages,
                                       sum(stage_times(traced).values()))
            report["per_layer"] = layers
            metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units.items()}
            tracer.write(os.path.join(OUT, run_id + ".spans.jsonl"))
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    with open(os.path.join(OUT, run_id + ".report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    for n, ok, d in checks:
        print("check %-32s %s  %s" % (n, "ok  " if ok else "FAIL", d))
    print("wall seconds per untraced pass: %s" % " ".join("%.3f" % sum(w.values())
                                                          for w in walls))
    print("error_rate %.4f (%d of %d operations failed)" % (failed / attempted, failed,
                                                            attempted))
    if "end_to_end" in report:
        for k, v in report["wall"].items():
            print("wall %-35s %14.6g s" % (k, v))
        for k, v in report["stages"].items():
            print("stage %-34s %14.6g s" % (k, v))
        print("min_ess_per_s %.4g 1/s (min ESS %.1f)" % (report["min_ess_per_s"],
                                                         report["fit_diagnostics"]["min_ess"]))
    for k, v in metrics.items():
        print("%-40s %14.6g %s" % (k, v["value"], v["unit"]))
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
