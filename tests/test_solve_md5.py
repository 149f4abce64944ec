"""tools/solve_md5.py: one md5 line per artifact and per probe verdict, the
same on every run."""

import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "solve_md5.py")
ARTIFACTS = {"solution_t0.csv", "solution_t1.csv", "solution_t2.csv", "solution.opc",
             "stability.txt"}


def smoke_lines(tmp_path):
    proc = subprocess.run(
        [sys.executable, TOOL, "--src", os.path.join(ROOT, "src"), "--seeds", "3", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_smoke_runs_print_the_same_sorted_lines_for_every_artifact(tmp_path):
    lines = smoke_lines(tmp_path)
    assert lines == sorted(lines) == smoke_lines(tmp_path)
    files = defaultdict(set)
    for line in lines:
        digest, label = line.split("  ")
        assert len(digest) == 32 and int(digest, 16) >= 0
        case, name = label.rsplit("/", 1)
        files[case].add(name)
    # "rest": the first kind with a forcing that is all rest; "widen": with
    # data and a forcing that make values complex; "sums": with data and a
    # forcing of sums whose terms c*X are read as one slot each
    cases = {f"{w}-3/{k}" for w in ("free3d", "forced3d", "stiff1d")
             for k in ("first", "even", "repeated", "rest", "widen", "sums")}
    # the verdict of --mode probe --seed s, for s = 0..9
    probes = {f"probe-{s}" for s in range(10)}
    assert set(files) == cases | probes
    for case, names in files.items():
        if case in probes:
            assert names == {"probe_verdict.txt"}, case
            continue
        probed = case in ("forced3d-3/repeated", "stiff1d-3/repeated")
        others = set()
        if case.endswith("/first"):  # the other modes write into the first file's directory
            others = {"verify.txt", "convergence.txt", "compare_spherical.txt"}
            if case.startswith("stiff1d"):  # compare-spherical needs a 3-D grid
                others.remove("compare_spherical.txt")
        assert names == ARTIFACTS | others | ({"probe_verdict.txt"} if probed else set()), case
