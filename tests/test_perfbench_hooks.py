"""Every function the traced benchmark hooks exists in casmat.

perfbench/tracing.py wraps casmat functions by module and name. A rename
in src/ leaves the hook unbound, and only a traced benchmark run would
notice, so the names are checked here as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("mod_name, fn_name",
                         [(mod, fn) for mod, fn, _ in _hooks()])
def test_traced_function_exists(mod_name, fn_name):
    module = importlib.import_module(f"casmat.{mod_name}")
    assert callable(getattr(module, fn_name, None)), \
        f"casmat.{mod_name}.{fn_name} is traced but does not exist"
