"""The package root loads nothing until a name is asked for, and each CLI command loads only the modules it calls.

Module sets are read in child interpreters, where nothing of ``ljlab`` was imported before.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import entry_checks
import ljlab

_MODULES = ("errors", "linalg", "products", "subspace", "states", "witness")


_LOADED = "sorted(m for m in sys.modules if m.startswith('ljlab'))"


def _in_child(*lines: str, show: str = _LOADED):
    """``show`` in a fresh interpreter after ``lines``, through JSON; by default the ``ljlab`` modules it holds."""
    code = ["import json, sys", *lines, f"print(json.dumps({show}))"]
    child = subprocess.run([sys.executable, "-c", "\n".join(code)], capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_import_ljlab_loads_no_submodule():
    assert _in_child("import ljlab", "ljlab.__version__") == ["ljlab"]


@pytest.mark.parametrize(
    "name, module, later",
    [
        ("jordan", "products", {"witness", "subspace", "states"}),
        ("avr_witness_search", "witness", {"subspace", "states"}),
    ],
)
def test_a_name_loads_no_module_looked_up_after_its_own(name, module, later):
    loaded = _in_child("import ljlab", f"ljlab.{name}")
    assert f"ljlab.{module}" in loaded and not {f"ljlab.{m}" for m in later} & set(loaded), loaded


def test_a_star_import_binds_each_name_to_its_modules_object():
    unbound = _in_child(
        "from ljlab import *",
        "from ljlab import errors, linalg, products, states, subspace, witness",
        "ns = globals()",
        show="[name for m in (errors, linalg, products, subspace, states, witness) for name in m.__all__"
        " if ns.get(name) is not getattr(m, name)]",
    )
    assert unbound == []


def test_dir_lists_all_and_the_modules_and_an_unknown_name_raises_naming_it():
    listed = _in_child("import ljlab", show="dir(ljlab)")
    assert {"__all__", "__version__", *_MODULES, *ljlab.__all__} <= set(listed)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ljlab.no_such_name  # noqa: B018


#: The modules each command must not load.
_NEVER = {
    "verify": {"witness", "subspace", "states"},
    "witness": {"subspace", "states"},
    "generate": {"states", "witness"},
    "repr": {"states", "witness"},
    "classify": {"witness"},
}


@pytest.mark.parametrize("command", _NEVER)
def test_each_command_loads_only_the_modules_it_calls(command, tmp_path):
    modules, _ = entry_checks.command_modules(entry_checks.command_argvs(str(tmp_path))[command])
    assert not {f"ljlab.{m}" for m in _NEVER[command]} & set(modules), modules
    assert {"ljlab.cli", "ljlab.products"} <= set(modules)
