"""End-to-end CLI behaviour: outputs, formats, flags, and exit codes."""

import json
import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from multirank import PRIMES_3_MOD_4

REPO = Path(__file__).resolve().parent.parent
STATES = REPO / "states"


def run_cli(*args, **kwargs):
    # the child finds the package in src/ without an install, as pytest does
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "multirank", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
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


@pytest.mark.parametrize(
    "terms", ["1/7 |00>\na |11>", "a |11>\n1/7 |00>"], ids=["fraction-first", "parameter-first"]
)
def test_parametric_state_with_clashing_denominator_is_exit_4(tmp_path, terms):
    # the policy mismatch wins over the prime clash, whatever the term order
    doc = tmp_path / "clash.state"
    doc.write_text(f"dims 2 2\n{terms}\n")
    result = run_cli(str(doc), "--rank", "mod:7")
    assert result.returncode == 4
    assert result.stderr == (
        "multirank: matrix has parametric entries; use the generic policy\n"
    )


def test_generic_scales_a_parameter_with_its_row(tmp_path):
    # row 0 (1/2, a) clears to (1, 2a); drawing a into the cleared row
    # unscaled would make it equal to row 1 (1, a)
    doc = tmp_path / "shared.state"
    doc.write_text("dims 2 2\n1/2 |00>\na |01>\n1 |10>\na |11>\n")
    result = run_cli(str(doc), "--rank", "generic")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "{{2, 2}}"


def test_unreadable_input_is_exit_2(tmp_path):
    result = run_cli(str(tmp_path / "missing.state"))
    assert result.returncode == 2


def test_bad_policy_is_exit_2():
    result = run_cli(str(STATES / "w3.state"), "--rank", "best-effort")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "policy,message",
    [
        ("mod:5", "3 mod 4"),
        ("mod:15", "not prime"),
        ("mod:2147483659", "below 2**31"),
        ("generic:-1", "trials must be >= 1"),
        ("generic:0", "trials must be >= 1"),
        ("generic:2,5", "3 mod 4"),
        ("generic:2,2147483659", "below 2**31"),
    ],
)
def test_bad_policy_value_is_exit_2_before_reading(tmp_path, capsys, policy, message):
    from multirank.cli import main

    # the input does not exist: the policy must be rejected first
    code = main([str(tmp_path / "missing.state"), "--rank", policy])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "cannot read input" not in err


def test_bad_levels_is_exit_2_before_reading(tmp_path, capsys):
    from multirank.cli import main

    code = main([str(tmp_path / "missing.state"), "--levels", "x"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        "multirank: --levels must be 'all' or a level between 1 and floor(n/2), got 'x'\n"
    )


@pytest.mark.parametrize("policy", ["fast", "exact"])
def test_certified_json_does_not_depend_on_the_seed(tmp_path, capsys, policy):
    from multirank.cli import main

    # the first table prime divides the |00> amplitude, so I=[1] takes 2 passes
    path = tmp_path / "big.state"
    path.write_text("dims 2 2\n2147483647 |00>\n1 |11>\n")
    docs = []
    for seed in range(1, 9):
        argv = [str(path), "--rank", policy, "--format", "json", "--seed", str(seed)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["seed"]
        docs.append(doc)
    assert all(doc == docs[0] for doc in docs)
    assert docs[0]["levels"][0]["ranks"][0]["primes"] == 2


def test_generic_bound_on_more_rows_than_the_prime(tmp_path, capsys):
    from multirank.cli import main

    # level-3 flattenings are 8x8, so deg/p = 8/7 and the bound is capped at 1
    rng = random.Random(2)
    path = tmp_path / "dense6.state"
    path.write_text(
        "dims 2 2 2 2 2 2\n"
        + "".join(f"{rng.randint(1, 6)} |{x:06b}>\n" for x in range(64))
    )
    assert main([str(path), "--rank", "generic:6000,7", "--format", "json"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert {e["failure_bound"] for e in levels[2]["ranks"]} == {1.0}
    assert {e["failure_bound"] for e in levels[0]["ranks"]} == {0.0}


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


@pytest.mark.parametrize(
    "dims,ket,coeff",
    [
        ("[2.9, 2]", "[0, 0]", '"1"'),
        ('"22"', "[0, 0]", '"1"'),
        ("[2, null]", "[0, 0]", '"1"'),
        ("[1e400, 2]", "[0, 0]", '"1"'),
        ("[true, 2]", "[0, 0]", '"1"'),
        ("[2, 2]", "[0.7, 1]", '"1"'),
        ("[2, 2]", "[true, 0]", '"1"'),
        ("[2, 2]", '["x", 0]', '"1"'),
        ("[2, 2]", '"00"', '"1"'),
        ("[2, 2]", "5", '"1"'),
        ("[2, 2]", "[0, 0]", "true"),
        ("[2, 2]", "[0, 0]", "0.5"),
        ("[2, 2]", "[0, 0]", "null"),
    ],
)
def test_malformed_json_document_is_exit_2(tmp_path, capsys, dims, ket, coeff):
    from multirank.cli import main

    doc = tmp_path / "bad.json"
    doc.write_text(f'{{"dims": {dims}, "terms": [{{"coeff": {coeff}, "ket": {ket}}}]}}')
    code = main([str(doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("multirank: ")


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"dims": [2, 2], "terms": [{"coeff": "1", "ket": [0, 0]}], "dims": [3, 3]}', "dims"),
        ('{"dims": [2, 2], "terms": [{"coeff": "1", "coeff": "2", "ket": [0, 0]}]}', "coeff"),
    ],
    ids=["document", "term"],
)
def test_duplicate_json_key_is_exit_2(tmp_path, capsys, text, key):
    from multirank.cli import main

    doc = tmp_path / "dup.json"
    doc.write_text(text)
    code = main([str(doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"multirank: {doc}: duplicate key '{key}'\n"


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    from multirank.cli import main

    json_doc = tmp_path / "w3.json"
    json_doc.write_text(
        '{"dims": [2, 2, 2], "terms": [{"coeff": "1", "ket": [0, 0, 1]},'
        '{"coeff": "1", "ket": [0, 1, 0]}, {"coeff": "1", "ket": [1, 0, 0]}]}'
    )
    for original in (STATES / "w3.state", json_doc):
        bom = tmp_path / f"bom-{original.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        assert main([str(original)]) == 0
        expected = capsys.readouterr()
        assert main([str(bom)]) == 0
        assert capsys.readouterr().out == expected.out
        assert expected.out == "{{2, 2, 2}}\nverdict: GME\n"


@pytest.mark.parametrize("terms", ["5", '"ab"', '{"coeff": "1", "ket": [0, 0]}'])
def test_json_terms_must_be_a_list(tmp_path, capsys, terms):
    from multirank.cli import main

    doc = tmp_path / "bad.json"
    doc.write_text(f'{{"dims": [2, 2], "terms": {terms}}}')
    assert main([str(doc)]) == 2
    assert capsys.readouterr().err.startswith("multirank: ")


def _mutate_json(doc, rng):
    """Replace, delete or append one value somewhere inside ``doc``."""
    slots = []

    def walk(node):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    node, key = rng.choice(slots)
    values = [None, True, 0, -1, 2, 10**30, 2.5, 1e308, "x", "1/0", "a", [], {}, [2, 2]]
    if rng.random() < 0.7:
        node[key] = rng.choice(values)
    elif isinstance(node, dict):
        del node[key]
    else:
        node.append(rng.choice(values))


def test_mutated_documents_never_escape_the_exit_codes(tmp_path):
    from multirank.cli import main

    rng = random.Random(5)
    line_docs = [p.read_text() for p in sorted(STATES.glob("*.state"))]
    alphabet = "0123456789|>; #,/-+ia\n"
    path = tmp_path / "mutated"
    for _ in range(150):
        doc = {
            "dims": [2, 3, 2],
            "terms": [
                {"coeff": "1", "ket": [0, 0, 1]},
                {"coeff": 1, "ket": [0, 2, 0]},
                {"coeff": "1/2+i", "ket": [1, 0, 0]},
            ],
        }
        for _ in range(rng.randint(1, 3)):
            _mutate_json(doc, rng)
        text = list(rng.choice(line_docs))
        for _ in range(rng.randint(1, 3)):
            # delete, insert or replace one character
            at = rng.randrange(len(text))
            text[at : at + rng.randint(0, 1)] = rng.choice(["", rng.choice(alphabet)])
        for body in (json.dumps(doc), "".join(text)):
            path.write_text(body)
            for policy in ("fast", "generic"):
                assert main([str(path), "--rank", policy]) in (0, 2, 3, 4), body


def test_exact_json_entries_carry_a_certificate():
    seen = 0
    for path in sorted(STATES.glob("*.state")):
        policy = "generic" if path.name.startswith("param") else "fast"
        result = run_cli(str(path), "--format", "json", "--rank", policy)
        assert result.returncode == 0, result.stderr
        for level in json.loads(result.stdout)["levels"]:
            for entry in level["ranks"]:
                if entry["certainty"] == "exact":
                    seen += 1
                    assert entry["certificate"] in ("structural", "hadamard")
                    assert entry["primes"] >= 1
    assert seen > 0


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
