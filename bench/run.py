"""Benchmark of the opcauchy solve path, driven the way a user drives it.

    python3 bench/run.py --workload free3d --seed 1 --seconds 10 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Each run is one process and one workload:

1. set-up, repeated SETUP_REPS times: import opcauchy afresh, write the
   workload's three problem files from the seed, and run ``--mode probe``
   when the repeated-root case is forced and so needs a verdict file;
2. passes over the three problem files through ``cli.main --mode solve``
   until ``--seconds`` of solving have been measured;
3. outside the timed region, the artifacts of every pass are decoded and
   checked, and a seeded sample of modes is compared with the oracle.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the same passes run first untraced, then with spans around each layer, and
the per-layer metrics are printed.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Spans of a traced
run are written to ``.bench_out/``.
"""

import os

# One thread for BLAS and OpenMP, set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
import scipy.integrate  # loaded by opcauchy.oracle; imported here so set-up times opcauchy alone

import check
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5

# Per-kind solve times are per-layer metrics (cli.main.<kind>_s), not
# end-to-end ones: on a shared 2-core VM a 0.4-15 s slot varies by up to
# 30 % between runs, more than any bound allows; the whole pass varies less.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}

PER_LAYER = {
    "kernels.inhomogeneous_mode.s": "s",
    "kernels.inhomogeneous_mode.self_s": "s",
    "kernels.inhomogeneous_mode.calls": "count",
    "kernels.homogeneous_mode.s": "s",
    "kernels.homogeneous_mode.self_s": "s",
    "kernels.homogeneous_mode.calls": "count",
    "kernels.solve.self_s": "s",
    "multiplier.opfunc.s": "s",
    "multiplier.opfunc.calls": "count",
    "multiplier.opfunc.elems": "count",
    "multiplier.opfunc.ns_per_elem": "ns",
    "kernels.forcing.s": "s",
    "kernels.forcing.calls": "count",
    "exprparse.evaluate.s": "s",
    "exprparse.evaluate.calls": "count",
    "multiplier.fft.s": "s",
    "multiplier.fft.calls": "count",
    "symbol_poly.symbol_grid.s": "s",
    "cli.load_problem.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.write_opc1.s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.main.first_s": "s",
    "cli.main.even_s": "s",
    "cli.main.repeated_s": "s",
    "oracle.mode_ode_solve.s": "s",
    "oracle.mode_ode_solve.calls": "count",
    "oracle.mode_ode_solve.probe_s": "s",
    "check_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_frac": "ratio",
}


def import_opcauchy():
    """Import opcauchy from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "opcauchy" or n.startswith("opcauchy.")]:
        del sys.modules[name]
    modules = {"opcauchy": importlib.import_module("opcauchy")}
    for name in ("cli", "kernels", "exprparse", "oracle"):
        modules[name] = importlib.import_module(f"opcauchy.{name}")
    if not os.path.abspath(modules["opcauchy"].__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"opcauchy imported from {modules['opcauchy'].__file__}, not {SRC}")
    return modules


def out_dir(workdir, kind):
    return os.path.join(workdir, f"out_{kind}")


def probe_argv(workdir):
    return ["--mode", "probe", "--out", out_dir(workdir, "repeated")]


def set_up(workload, seed, workdir):
    """Import, write the problem files and probe; return (seconds, modules, cases)."""
    start = time.perf_counter()
    modules = import_opcauchy()
    cases = workloads.generate(workload, seed, workdir)
    if workload.forced:
        with contextlib.redirect_stdout(sys.stderr):
            code = modules["cli"].main(probe_argv(workdir))
        if code != 0:
            raise RuntimeError(f"probe exited with {code}")
    return time.perf_counter() - start, modules, cases


def plain(fn, *args):
    return fn(*args)


def run_pass(cli, cases, workdir, call):
    """Solve each case once through the CLI; return per-kind seconds and exit codes."""
    seconds, codes = {}, {}
    with contextlib.redirect_stdout(sys.stderr):
        for case in cases:
            argv = ["--mode", "solve", "--problem", case.path, "--out", out_dir(workdir, case.kind)]
            start = time.perf_counter()
            try:
                codes[case.kind] = call(cli.main, argv)
            except Exception:
                traceback.print_exc()
                codes[case.kind] = "exception"
            seconds[case.kind] = time.perf_counter() - start
    return seconds, codes


def artifact_bytes(workdir, cases):
    total = 0
    for case in cases:
        for entry in os.scandir(out_dir(workdir, case.kind)):
            if entry.name.startswith("solution") or entry.name == "stability.txt":
                total += entry.stat().st_size
    return total


def measure(cli, cases, workload, workdir, seconds, call=plain):
    """Passes until ``seconds`` of solving are measured, at least one.

    Returns (per-pass seconds by kind, failure reasons, last snapshots).
    Artifacts are checked after each pass, outside the timed region.
    """
    passes, failures, snapshots = [], [], {}
    while not passes or sum(sum(p.values()) for p in passes) < seconds:
        times, codes = run_pass(cli, cases, workdir, call)
        passes.append(times)
        for case in cases:
            if codes[case.kind] != 0:
                failures.append(f"{case.kind}: exit code {codes[case.kind]}")
                continue
            snaps, why = check.read_artifacts(cli, out_dir(workdir, case.kind), workload.shape)
            if why:
                failures.append(f"{case.kind}: {why}")
            else:
                snapshots[case.kind] = snaps
    return passes, failures, snapshots


def check_accuracy(modules, cases, workload, seed, snapshots):
    """Oracle comparison of the last pass; return (max error, ok, counts)."""
    rng = np.random.default_rng([seed, 1])
    sample = check.sample_modes(list(cases[0].data[0]), list(cases[0].forcing), workload.shape, rng)
    worst, ok, counts = 0.0, True, {}
    for case in cases:
        if case.kind not in snapshots:
            ok = False
            continue
        spec = check.spec_for(modules["opcauchy"], case.kind)
        acc = check.compare_with_oracle(
            modules["oracle"], spec, case, snapshots[case.kind], sample, workload.shape
        )
        worst = max(worst, acc.max_rel_err)
        ok = ok and check.accuracy_ok(acc)
        counts[case.kind] = {
            "modes": acc.modes,
            "oracle_calls": acc.oracle_calls,
            "max_rel_err": acc.max_rel_err,
            "low_p_rel_err": acc.low_rel_err,
        }
    return worst, ok, counts


def kind_medians(passes):
    return {kind: statistics.median(p[kind] for p in passes) for kind in passes[0]}


def end_to_end(setup_times, passes, max_err, rss_mb, attempted, failed):
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p.values()) for p in passes),
        "max_rel_err": max_err,
        "peak_rss_mb": rss_mb,
        "completed_frac": (attempted - failed) / attempted,
    }


def layer_values(summary, wall):
    """Per-layer metrics of one traced pass from its span summary."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    values = {}
    for name in ("kernels.inhomogeneous_mode", "kernels.homogeneous_mode"):
        values[f"{name}.s"] = get(name, "s")
        values[f"{name}.self_s"] = get(name, "self_s")
        values[f"{name}.calls"] = get(name, "calls")
    for name in ("multiplier.opfunc", "kernels.forcing", "exprparse.evaluate", "multiplier.fft"):
        values[f"{name}.s"] = get(name, "s")
        values[f"{name}.calls"] = get(name, "calls")
    elems = get("multiplier.opfunc", "elems")
    values["multiplier.opfunc.elems"] = elems
    if elems:
        values["multiplier.opfunc.ns_per_elem"] = 1e9 * get("multiplier.opfunc", "s") / elems
    values["kernels.solve.self_s"] = get("kernels.solve", "self_s")
    values["symbol_poly.symbol_grid.s"] = get("symbol_poly.symbol_grid", "s")
    values["cli.load_problem.self_s"] = get("cli.load_problem", "self_s")
    values["cli.write_csv.s"] = get("cli.write_csv", "s")
    values["cli.write_opc1.s"] = get("cli.write_opc1", "s")
    values["cli.main.self_s"] = get("cli.main", "self_s")
    values["trace.wall_s"] = wall
    values["trace.self_sum_frac"] = sum(v["self_s"] for v in summary.values()) / wall
    return values


def layer_of(metric):
    return metric.rsplit(".", 1)[0]


def write_spans(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        {"name": n, "start": s - origin, "end": e - origin, "parent": p, "elems": k}
        for n, s, e, p, k in tracer.spans
    ]
    with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(rows, fh)


def traced_run(modules, cases, workload, seed, workdir, seconds):
    """Untraced passes, then traced ones; return (metrics, failures, attempted, ok, extra)."""
    cli = modules["cli"]
    untraced, failures, _ = measure(cli, cases, workload, workdir, seconds)
    tracer = spans.Tracer()
    absent, missing = spans.install(tracer, modules)
    try:
        probe_s = 0.0
        if workload.forced:
            first = len(tracer.spans)
            with contextlib.redirect_stdout(sys.stderr):
                tracer.call("cli.main", cli.main, probe_argv(workdir))
            probe = spans.summarize(tracer.spans, [first])
            probe_s = probe.get("oracle.mode_ode_solve", {}).get("s", 0.0)

        per_pass = []

        def call(fn, argv):
            return tracer.call("cli.main", fn, argv)

        start_all = len(tracer.spans)
        traced, traced_failures, snapshots = measure(cli, cases, workload, workdir, seconds, call)
        roots = [i for i in range(start_all, len(tracer.spans)) if tracer.spans[i][3] == -1]
        # cli.main roots come in groups of len(cases), one group per pass
        for n, times in enumerate(traced):
            group = roots[n * len(cases):(n + 1) * len(cases)]
            values = layer_values(spans.summarize(tracer.spans, group), sum(times.values()))
            values.update({f"cli.main.{kind}_s": t for kind, t in times.items()})
            per_pass.append(values)
        failures += traced_failures
        bytes_written = artifact_bytes(workdir, cases)

        first = len(tracer.spans)
        start = time.perf_counter()
        _, ok, counts = tracer.call(
            "check", check_accuracy, modules, cases, workload, seed, snapshots
        )
        check_s = time.perf_counter() - start
        oracle = spans.summarize(tracer.spans, [first]).get("oracle.mode_ode_solve", {})
    finally:
        tracer.restore()
    write_spans(tracer, workload.name, seed)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.artifact_bytes"] = bytes_written
    metrics["oracle.mode_ode_solve.s"] = oracle.get("s", 0.0)
    metrics["oracle.mode_ode_solve.calls"] = oracle.get("calls", 0)
    metrics["oracle.mode_ode_solve.probe_s"] = probe_s
    metrics["check_s"] = check_s
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        sum(p.values()) for p in untraced
    )
    metrics = {k: v for k, v in metrics.items() if layer_of(k) not in absent}
    attempted = (len(untraced) + len(traced)) * len(cases)
    extra = {"absent_layers": sorted(absent), "missing_names": missing, "check": counts,
             "passes": {"untraced": len(untraced), "traced": len(traced)}}
    return metrics, failures, attempted, ok, extra


def untraced_run(modules, cases, setup_times, workload, seed, workdir, seconds):
    """Timed passes, then the check; return (metrics, failures, attempted, ok, extra)."""
    cli = modules["cli"]
    passes, failures, snapshots = measure(cli, cases, workload, workdir, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    worst, ok, counts = check_accuracy(modules, cases, workload, seed, snapshots)
    check_s = time.perf_counter() - start
    attempted = len(passes) * len(cases)
    metrics = end_to_end(setup_times, passes, worst, rss_mb, attempted, len(failures))
    extra = {"check": counts, "check_s": check_s, "kind_s": kind_medians(passes),
             "pass_walls": [round(sum(p.values()), 4) for p in passes]}
    return metrics, failures, attempted, ok, extra


def git_commit():
    """HEAD of the checkout's git repository, when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "opcauchy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="opcauchy benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for a quick end-to-end test of the benchmark itself")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "opcauchy", "__init__.py")):
        print(f"error: no opcauchy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        reps = 1 if args.trace else SETUP_REPS
        setup_times = []
        for _ in range(reps):
            seconds, modules, cases = set_up(workload, args.seed, workdir)
            setup_times.append(seconds)
        if args.trace:
            metrics, failures, attempted, ok, extra = traced_run(
                modules, cases, workload, args.seed, workdir, args.seconds)
        else:
            metrics, failures, attempted, ok, extra = untraced_run(
                modules, cases, setup_times, workload, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": workload.name,
        "shape": list(workload.shape),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "setup_reps": len(setup_times),
        "failures": failures,
        **extra,
    }
    for name, unit in units.items():
        shown = f"{metrics[name]:.6g}" if name in metrics else "absent"
        print(f"{workload.name:9s} {name:36s} {shown} {unit}")
    for kind, seconds in extra.get("kind_s", {}).items():
        print(f"{workload.name:9s} {kind + '_s (record only)':36s} {seconds:.6g} s")
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures and ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
