"""The md5 of every artifact that the benchmark's problem files give.

    python tools/solve_md5.py --src CHECKOUT/src [--seeds 3 4] [--smoke]

For each workload in ``bench/workloads.py`` and each seed, the workload's
three problem files are written by ``workloads.generate`` into a temporary
directory.  Where the workload is forced, ``--mode probe`` writes the
verdict that the repeated-root kind reads; then every file is solved with
``--mode solve``.  The ``first`` file is also solved with its forcing
replaced by ``REST``, as the case ``rest``: no workload's own forcing has
a rest, so this case alone covers that path of the solver.  It is solved
once more with ``phi0`` and the forcing replaced by ``WIDEN``, as the case
``widen``: expressions whose arrays, node arrays and numbers are made
complex by ``/``, ``^``, ``sqrt``, ``exp``, ``sinh`` and ``cosh``, beside
values made from ``abs`` alone, which stay real.  It is solved once more
with them replaced by ``SUMS``, as the case ``sums``: sums whose terms
c*X are read as one slot each, calls read as one token and repeated, and
terms that are read the other way.  The other
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
REST = {"f": "cos(t*x1)"}
#: Data and a forcing with a rest that make values complex before each operation.
WIDEN = {
    "phi0": "exp(-abs(x1))/(2+cos(x1))^2+sqrt(2+sin(x1))-sinh(sin(x1))/cosh(cos(x1))",
    "f": "sinh(t)/(1+t)^2*cos(x1)+cosh(t)*sqrt(2+sin(x1))+exp(-t*abs(x1))",
}
#: Data and a forcing of sums read as total ± c*X, beside terms that are not:
#: c*X followed by '^', '*' or '/', a complex c, a call with spaces or a
#: nested call.  The t-free 2*sin(x1) added to cos(t) in the rest is one
#: fused slot too, run at every time.  The fused sum in sqrt is not made
#: from abs values alone, so sqrt makes it complex.
SUMS = {
    "phi0": "0.5*cos(1*x1)+0.25*sin(2*x1)-1.5*cos(1*x1)+2*cos( 3*x1 )+3*sin(cos(x1))"
            "+2*cos(x1)^2-2*cos(x1)*x1+2i*sin(x1)-2*(sin(x1))/5+sqrt(abs(x1)+2*abs(x1))",
    "f": "cos(2*t)*(0.5*cos(1*x1)-0.25*sin(2*x1))+exp(-t)*(1.5*sin(1*x1)+2*cos(3*x1))"
         "+cos(t*x1)*(cos(t)+2*sin(x1))",
}
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


def with_lines(case, workdir, name, lines):
    """The path of a copy ``name``.ini of ``case``'s problem file whose lines
    ``key = ...`` are ``lines[key]``, the forcing ``f`` in a new section."""
    sections = [s for s in case.text.split("\n\n") if not s.startswith("[forcing]")]
    sections.insert(next(i for i, s in enumerate(sections) if s.startswith("[output]")),
                    "[forcing]\nf = ")
    out = []
    for line in "\n\n".join(sections).split("\n"):
        key = line.partition(" = ")[0]
        out.append(f"{key} = {lines[key]}" if key in lines else line)
    path = os.path.join(workdir, f"{name}.ini")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
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
    for name, lines in (("rest", REST), ("widen", WIDEN), ("sums", SUMS)):
        solve(name, "--mode", "solve", "--problem", with_lines(first, workdir, name, lines))
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
