"""The entry-point check script: its list of checks, its child runner and its failure report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import entry_checks

CHECKS = [
    "check_small_reports",
    "check_repr_of_the_full_2x2_algebra",
    "check_generate_from_a_commuting_pair",
    "check_closures_at_16_and_12",
    "check_classify_at_12",
    "check_classify_at_24",
    "check_near_threshold_at_16",
    "check_near_threshold_at_24",
    "check_closures_at_24",
    "check_centralizer_of_the_full_16x16_algebra",
    "check_su24_is_semisimple",
    "check_derived_algebra_of_su24",
    "check_algebras_at_the_lie_bound_at_24",
    "check_full_24x24_algebra_is_not_jordan_associative",
    "check_associator_defect_of_the_full_algebras",
    "check_positivity_on_the_full_24x24_algebra",
    "check_repr_of_a_conjugated_diagonal_algebra_at_24",
    "check_witness_search_at_24",
    "check_verify_at_many_trials",
    "check_products_reject_an_inf_matrix",
    "check_tol_flag",
    "check_command_imports",
]


def test_the_script_runs_exactly_the_listed_checks():
    assert [name for name in vars(entry_checks) if name.startswith("check_")] == CHECKS


def test_run_reads_each_childs_own_peak_rss():
    # A child's reading also holds its parent's peak at exec, so both children are run from a fresh interpreter,
    # whose own peak is small: a running maximum over children would read the 100 MB child's peak twice.
    hold = "import numpy as np; a = np.ones(100 * 2**20 // 8); print(a.sum())"
    code = (
        "import sys, entry_checks as e; "
        f"big = e._run([sys.executable, '-c', {hold!r}]); bare = e._run([sys.executable, '-c', 'pass']); "
        "print(big[0], big[1].strip(), big[2], bare[0], bare[2])"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, capture_output=True, text=True, check=True)
    big_code, total, big, bare_code, bare = out.stdout.split()
    assert (big_code, float(total), bare_code) == ("0", 100 * 2**20 // 8, "0")
    assert float(big) >= 100 > float(bare)


def test_main_names_each_failed_check_and_runs_the_rest(monkeypatch, capsys):
    ran = []
    for k, name in enumerate(CHECKS):

        def stub(d, name=name, fail=k in (1, 4)):
            ran.append(name)
            if fail:
                raise AssertionError("a reading over its bound")

        monkeypatch.setattr(entry_checks, name, stub)
    assert entry_checks.main() == 1
    assert ran == CHECKS
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAILED")] == [CHECKS[1], CHECKS[4]]
    assert lines[-1] == f"failed: {CHECKS[1]}, {CHECKS[4]}"
