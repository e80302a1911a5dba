"""The scaling harness's builders at small n: each gives its row's result, so a library rename fails here."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import ljlab
from ljlab import cli

_spec = importlib.util.spec_from_file_location("bench_scaling", Path(__file__).parent.parent / "bench_scaling.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("builder", bench.WARM, ids=lambda builder: builder.__name__)
def test_every_warm_builder_gives_its_rows_result_at_small_n(builder):
    query, want = builder(ljlab, 4)
    assert query() == want


@pytest.mark.parametrize("state", bench.STATES)
def test_classify_full_algebra_gives_the_commutator_criterions_verdict(state):
    query, want = bench.classify_full_algebra(ljlab, 4, state)
    assert query() == want
    assert want is True or state != "mixed"


def test_the_block_states_read_their_verdicts_against_the_blocks():
    L = bench.blocks(ljlab, 4)
    assert L.dim_span == 8
    for rho, want in bench.block_states(ljlab, 4).values():
        assert ljlab.classify(ljlab.State(rho), L).classical is want


#: Each warm row's sizes, written out here so that a row dropped from ``WARM``, or resized, fails a test.
_WARM_SIZES = {
    "lie_generate": (8, 12, 16, 24),
    "jordan_generate_three": (8, 12, 16, 24),
    "lie_generate_blocks": (8, 16, 24),
    "jordan_generate_three_blocks": (8, 16, 24),
    "jordan_generate_three_multiplicity": (8, 16, 24),
    "centralizer": (8, 12, 16, 24),
    "centralizer_blocks": (16, 24),
    "centralizer_sub": (12, 16, 24),
    "closedness_blocks": (16, 24),
    "is_semisimple_lie": (16, 24),
    "is_semisimple_lie_conjugated": (24,),
    "associator_defect": (8, 12, 16),
    "commutator_defect": (24,),
    "derived_algebra": (16, 24),
    "derived_algebra_full": (24,),
    "derived_algebra_lie_blocks": (24,),
    "is_jordan_associative": (24,),
    "check_positivity_closure": (16, 24),
    "function_representation": (12, 24),
    "avr_witness_search": (4,),
    "associator_witness_search": (6,),
    "cmd_verify": (2, 4, 6),
    "classify_wishart": (3, 4, 8),
    "classify_block_scalar": (4,),
}


def test_warm_holds_every_row_at_its_sizes():
    assert {builder.__name__: sizes for builder, (sizes, _, _) in bench.WARM.items()} == _WARM_SIZES


def test_only_names_every_warm_builder_and_the_four_process_benches():
    names = [builder.__name__ for builder in bench.WARM]
    assert bench.NAMES == [*names, "verify", "classify_full_algebra", "classify_blocks", "cli_start"]


def test_each_cli_start_command_passes_its_check(tmp_path):
    commands = bench.cli_start(str(tmp_path))
    assert list(commands) == ["verify", "witness", "generate", "classify", "repr"]
    for argv, check in commands.values():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
        assert check(json.loads(out.getvalue())) is True, argv
