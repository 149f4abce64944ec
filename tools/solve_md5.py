"""The md5 of every artifact that the benchmark's problem files give.

    python tools/solve_md5.py --src CHECKOUT/src [--seeds 3 4] [--smoke]

For each workload in ``bench/workloads.py`` and each seed, the workload's
three problem files are written by ``workloads.generate`` into a temporary
directory.  Where the workload is forced, ``--mode probe`` writes the
verdict that the repeated-root kind reads; then every file is solved with
``--mode solve``.  The ``first`` file is also solved with its forcing
replaced by ``REST``, as the case ``rest``: no workload's own forcing has
a rest, so this case alone covers that path of the solver.  The other
modes run on the ``first`` file into its directory: ``--mode verify`` and
``--mode convergence``, and ``--mode compare-spherical`` where the grid is
3-D.  All run through ``cli.main`` of the opcauchy package found under
``--src``.  One ``md5  workload-seed/kind/file`` line is printed per
artifact, and one ``md5  probe-s/probe_verdict.txt`` line per verdict of
``--mode probe --seed s`` for each s in ``PROBE_SEEDS``, all sorted, so the
artifacts of two checkouts compare with ``diff``.  ``--smoke`` solves each workload on
its tiny grid; the probe has no grid, and runs the same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

#: A forcing whose rest, the part that is no sum of g_j(t) h_j(x), is all of it.
REST = "[forcing]\nf = cos(t*x1)"
#: The seeds of ``--mode probe`` whose verdicts are hashed on every run.
PROBE_SEEDS = range(10)


def import_cli(src):
    """``opcauchy.cli`` imported from the directory ``src``."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    cli = importlib.import_module("opcauchy.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"opcauchy imported from {cli.__file__}, not {src}")
    return cli


def with_rest(case, workdir):
    """The path of a copy of ``case``'s problem file whose forcing is REST."""
    sections = [s for s in case.text.split("\n\n") if not s.startswith("[forcing]")]
    sections.insert(next(i for i, s in enumerate(sections) if s.startswith("[output]")), REST)
    path = os.path.join(workdir, "rest.ini")
    with open(path, "w") as fh:
        fh.write("\n\n".join(sections))
    return path


def run(cli, label, out, *argv):
    """``cli.main`` of ``argv`` into ``out``, its stdout discarded; a run
    that does not exit with 0 ends the tool with a message naming ``label``."""
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        code = cli.main([*argv, "--out", out])
    if code != 0:
        raise SystemExit(f"{label}: {argv[1]} exited with {code}")


def md5_line(path, label):
    with open(path, "rb") as fh:
        return f"{hashlib.md5(fh.read()).hexdigest()}  {label}"


def artifacts(cli, workload, seed, workdir):
    """{workload-seed/kind/file: path} of every file written for one seed."""
    outs = {}

    def solve(kind, *argv):
        outs[kind] = os.path.join(workdir, kind)
        run(cli, f"{workload.name} seed {seed} {kind}", outs[kind], *argv)

    cases = workloads.generate(workload, seed, workdir)
    if workload.forced:
        solve("repeated", "--mode", "probe")
    for case in cases:
        solve(case.kind, "--mode", "solve", "--problem", case.path)
    first = next(case for case in cases if case.kind == "first")
    modes = ["verify", "convergence"] + (["compare-spherical"] if len(workload.shape) == 3 else [])
    for mode in modes:
        run(cli, f"{workload.name} seed {seed} first", outs["first"], "--mode", mode,
            "--problem", first.path)
    solve("rest", "--mode", "solve", "--problem", with_rest(first, workdir))
    return {
        f"{workload.name}-{seed}/{kind}/{name}": os.path.join(out, name)
        for kind, out in outs.items()
        for name in os.listdir(out)
    }


def md5_lines(cli, seeds, smoke):
    lines = []
    for workload in workloads.WORKLOADS.values():
        if smoke:
            workload = workloads.smoke(workload)
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for label, path in artifacts(cli, workload, seed, workdir).items():
                    lines.append(md5_line(path, label))
    with tempfile.TemporaryDirectory() as workdir:
        for seed in PROBE_SEEDS:
            out = os.path.join(workdir, str(seed))
            run(cli, f"probe seed {seed}", out, "--mode", "probe", "--seed", str(seed))
            lines.append(md5_line(os.path.join(out, "probe_verdict.txt"),
                                  f"probe-{seed}/probe_verdict.txt"))
    return sorted(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="a checkout's src/")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4])
    ap.add_argument("--smoke", action="store_true", help="tiny grids")
    args = ap.parse_args(argv)
    print("\n".join(md5_lines(import_cli(args.src), args.seeds, args.smoke)))


if __name__ == "__main__":
    main()
