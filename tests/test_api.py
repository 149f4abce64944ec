import types

import opcauchy


def test_star_import_binds_the_api_and_no_module():
    namespace = {}
    exec("from opcauchy import *", namespace)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert namespace["sinhc_sqrt"] is opcauchy.kernels.sinhc_sqrt
    assert namespace["NonFiniteForcing"] is opcauchy.errors.NonFiniteForcing
