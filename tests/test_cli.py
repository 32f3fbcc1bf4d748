"""End-to-end CLI behaviour: outputs, formats, flags, and exit codes."""

import json
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from multirank import PRIMES_3_MOD_4

REPO = Path(__file__).resolve().parent.parent
STATES = REPO / "states"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "multirank", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_w3_text_output():
    result = run_cli(str(STATES / "w3.state"))
    assert result.returncode == 0
    assert result.stdout == "{{2, 2, 2}}\nverdict: GME\n"


def test_cluster4_text_output():
    result = run_cli(str(STATES / "cluster4.state"))
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "{{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}"


def test_qutrit3_text_output():
    result = run_cli(str(STATES / "qutrit3.state"))
    assert result.stdout.splitlines()[0] == "{{3, 3, 3}}"


def test_six_qutrit_text_output():
    result = run_cli(str(STATES / "ghz6_qutrit_plus.state"))
    assert result.stdout.splitlines()[0] == (
        "{{3, 3, 3, 3, 3, 3}, "
        "{3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3}, "
        "{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}}"
    )


def test_repeat_runs_are_byte_identical():
    first = run_cli(str(STATES / "cluster4.state"), "--seed", "42")
    second = run_cli(str(STATES / "cluster4.state"), "--seed", "42")
    assert first.stdout == second.stdout


def test_json_output_round_trips():
    result = run_cli(str(STATES / "cluster4.state"), "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["dims"] == [2, 2, 2, 2]
    assert doc["profile"] == [[2, 2, 2, 2], [2, 4, 4, 4, 4, 2]]
    assert doc["verdict"]["gme"] is True
    assert doc["verdict"]["product_cuts"] == []
    flat = [e["rank"] for lvl in doc["levels"] for e in lvl["ranks"]]
    assert flat == [2, 2, 2, 2, 2, 4, 4, 4, 4, 2]
    labels = [e["parties"] for e in doc["levels"][1]["ranks"]]
    assert labels == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


def test_structured_alias():
    result = run_cli(str(STATES / "w3.state"), "--format", "structured")
    assert json.loads(result.stdout)["profile"] == [[2, 2, 2]]


def test_single_level_selection():
    result = run_cli(str(STATES / "cluster4.state"), "--levels", "2")
    assert result.returncode == 0
    assert result.stdout == "{2, 4, 4, 4, 4, 2}\n"


def test_level_out_of_range():
    result = run_cli(str(STATES / "cluster4.state"), "--levels", "3")
    assert result.returncode == 2
    assert "level" in result.stderr


def test_dedupe_halves_the_middle_level():
    result = run_cli(str(STATES / "cluster4.state"), "--dedupe")
    assert result.stdout.splitlines()[0] == "{{2, 2, 2, 2}, {2, 4, 4}}"


def test_dedupe_json_keeps_pairing_info():
    result = run_cli(str(STATES / "cluster4.state"), "--dedupe", "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["dedupe"] is True
    kept = [tuple(e["parties"]) for e in doc["levels"][1]["ranks"]]
    assert kept == [(1, 2), (1, 3), (1, 4)]
    assert all(1 in parties for parties in kept)
    # every kept entry names its dropped twin via the complement
    assert [tuple(e["complement"]) for e in doc["levels"][1]["ranks"]] == [
        (3, 4), (2, 4), (2, 3),
    ]


def test_dump_matrices_goes_to_stderr():
    result = run_cli(str(STATES / "w3.state"), "--dump-matrices")
    assert result.stdout == "{{2, 2, 2}}\nverdict: GME\n"
    assert "# matrix I=[1] (2x4)" in result.stderr
    assert "# [0, 1, 1, 0]" in result.stderr


def test_exact_policy_flag():
    result = run_cli(str(STATES / "cluster4.state"), "--rank", "exact")
    assert result.stdout.splitlines()[0] == "{{2, 2, 2, 2}, {2, 4, 4, 4, 4, 2}}"


def test_modular_policy_flag():
    result = run_cli(str(STATES / "w3.state"), "--rank", "mod:7")
    assert result.stdout.splitlines()[0] == "{{2, 2, 2}}"


def test_generic_policy_on_parametric_state():
    result = run_cli(str(STATES / "param_ghz3.state"), "--rank", "generic:5,2147483647")
    assert result.returncode == 0
    assert result.stdout == "{{2, 2, 2}}\nverdict: GME (generic)\n"


def test_generic_warning_without_parameters():
    result = run_cli(str(STATES / "w3.state"), "--rank", "generic:3,2147483647")
    assert result.returncode == 0
    assert "warning" in result.stderr


def test_empty_file_is_exit_2(tmp_path):
    empty = tmp_path / "empty.state"
    empty.write_text("")
    result = run_cli(str(empty))
    assert result.returncode == 2
    assert result.stderr.strip()


def test_zero_state_is_exit_3(tmp_path):
    doc = tmp_path / "zero.state"
    doc.write_text("dims 2 2\n+1 |00>\n-1 |00>\n")
    result = run_cli(str(doc))
    assert result.returncode == 3


@pytest.mark.parametrize(
    "policy,second",
    [("fast", "+1"), ("exact", "+1"), ("generic", "+1"), ("generic", "a")],
)
def test_denominator_divisible_by_every_table_prime(tmp_path, policy, second):
    # the prime search continues below the table instead of giving up
    doc = tmp_path / "clash.state"
    doc.write_text(f"dims 2 2\n1/{prod(PRIMES_3_MOD_4)} |00>\n{second} |11>\n")
    result = run_cli(str(doc), "--rank", policy)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "{{2, 2}}"


def test_parametric_under_exact_is_exit_4():
    result = run_cli(str(STATES / "param_ghz3.state"), "--rank", "exact")
    assert result.returncode == 4
    assert "generic" in result.stderr


def test_parametric_under_fast_is_exit_4():
    result = run_cli(str(STATES / "param_ghz3.state"))
    assert result.returncode == 4


def test_unreadable_input_is_exit_2(tmp_path):
    result = run_cli(str(tmp_path / "missing.state"))
    assert result.returncode == 2


def test_bad_policy_is_exit_2():
    result = run_cli(str(STATES / "w3.state"), "--rank", "best-effort")
    assert result.returncode == 2


def test_json_input_document(tmp_path):
    doc = tmp_path / "w3.json"
    doc.write_text(
        '{"dims": [2, 2, 2], "terms": ['
        '{"coeff": "1", "ket": [0, 0, 1]},'
        '{"coeff": "1", "ket": [0, 1, 0]},'
        '{"coeff": "1", "ket": [1, 0, 0]}]}'
    )
    result = run_cli(str(doc))
    assert result.stdout == "{{2, 2, 2}}\nverdict: GME\n"


def test_in_process_main_matches_subprocess(capsys):
    from multirank.cli import main

    code = main([str(STATES / "w3.state")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "{{2, 2, 2}}\nverdict: GME\n"


def test_biseparable_verdict_text(tmp_path):
    doc = tmp_path / "cutstate.state"
    doc.write_text("dims 2 2 2\n+1 |000>\n+1 |011>\n")
    result = run_cli(str(doc))
    assert result.stdout.splitlines()[0] == "{{1, 2, 2}}"
    assert "biseparable" in result.stdout
    assert "I=[1]" in result.stdout


def test_fully_product_verdict_text(tmp_path):
    doc = tmp_path / "product.state"
    doc.write_text("dims 2 2\n+1 |01>\n")
    result = run_cli(str(doc))
    assert "fully product" in result.stdout
