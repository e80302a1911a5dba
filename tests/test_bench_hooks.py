"""The functions the benchmark's tracer wraps (``perfbench/tracer.py``'s ``TARGETS``) still exist, so a refactor that
drops or renames one fails here and not only in the benchmark's own self-test."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ljlab
from ljlab.subspace import _product_pairs

_spec = importlib.util.spec_from_file_location("perfbench_tracer", Path(__file__).parent.parent / "perfbench" / "tracer.py")
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # registered: its dataclasses look it up
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_every_traced_target_is_a_callable_of_its_module(target):
    assert callable(getattr(importlib.import_module(f"ljlab.{target.module}"), target.attr, None))


def test_the_round_pairs_dispatch_on_the_products_the_tracer_rebinds():
    """The tracer rebinds ``jordan`` and ``lie`` by identity; ``_product_pairs`` picks i >= j or i > j by it."""
    assert len(_product_pairs(4, ljlab.jordan)) == 10
    assert len(_product_pairs(4, ljlab.lie)) == 6
