"""Numerical toolkit for Lie-Jordan algebras of Hermitian matrices.

Observables carry two products: the symmetrized Jordan product and a
Hermitian-valued bracket with an i/2 factor. The package checks the
algebraic identities tying them together, computes subspace closures and
derived algebras, tests states for classicality, and builds
quantumness witnesses. See the ``ljlab`` CLI for batch experiments.

The package root re-exports each module's ``__all__``, which is the one
list of that module's public names. ``import ljlab`` loads no submodule:
a module is imported the first time it, or one of its names, is asked for
(PEP 562), and the name is then cached here. A name is looked up in
``errors``, ``linalg``, ``products``, ``witness``, ``subspace`` and
``states``, in that order, importing each until one's ``__all__`` holds
it, so a name of ``witness`` never loads ``subspace`` or ``states``.
``__all__``, ``dir(ljlab)`` and ``from ljlab import *`` load every module.
"""

import importlib

__version__ = "0.1.0"

#: The modules the root re-exports, in ``__all__``'s order.
_MODULES = ("errors", "linalg", "products", "subspace", "states", "witness")
#: The order names are looked up in: each module after those it imports.
_LOOKUP = ("errors", "linalg", "products", "witness", "subspace", "states")


def __getattr__(name: str):
    # ``from ljlab import cli`` asks for the attribute before it imports the submodule
    if name in _MODULES or name in ("cli", "jsonio"):
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        module = next((m for m in map(__getattr__, _LOOKUP) if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    exported = __getattr__("__all__")  # first: it imports the modules, which binds them here
    return sorted({*globals(), *exported})
