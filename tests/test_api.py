import os
import subprocess
import sys
import types

import opcauchy


def test_star_import_binds_the_api_and_no_module():
    namespace = {}
    exec("from opcauchy import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert namespace["sinhc_sqrt"] is opcauchy.kernels.sinhc_sqrt
    assert namespace["NonFiniteForcing"] is opcauchy.errors.NonFiniteForcing


def test_import_loads_no_scipy():
    # scipy is a test and benchmark dependency only; a fresh interpreter
    # that imports the library and its CLI must not load it
    src = os.path.dirname(os.path.dirname(opcauchy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, opcauchy, opcauchy.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
