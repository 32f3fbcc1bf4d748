"""End-to-end CLI behaviour: outputs, formats, flags, and exit codes."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb, prod
from pathlib import Path

import pytest

from multirank.rank import PRIMES_3_MOD_4

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


def test_dedupe_applies_to_a_single_level():
    result = run_cli(str(STATES / "cluster4.state"), "--levels", "2", "--dedupe")
    assert result.returncode == 0
    assert result.stdout == "{2, 4, 4}\n"


def test_dedupe_single_level_json_filters_ranks_and_profile(capsys):
    from multirank.cli import main

    path = str(STATES / "cluster4.state")
    assert main([path, "--levels", "2", "--format", "json"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert main([path, "--levels", "2", "--format", "json", "--dedupe"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kept = [e for e in full["ranks"] if 1 in e["parties"]]
    assert [e["parties"] for e in kept] == [[1, 2], [1, 3], [1, 4]]
    assert doc == {**full, "ranks": kept, "profile": [[2, 4, 4]]}
    assert list(doc) == list(full)


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
        # past int()'s digit limit, and past the decoder's recursion limit
        pytest.param("[2, 2]", "[0, 0]", "7" * 5000, id="5000-digit-coeff"),
        pytest.param(f"[2, {'2' * 5000}]", "[0, 0]", '"1"', id="5000-digit-dim"),
        pytest.param("[" * 100_000 + "]" * 100_000, "[0, 0]", '"1"', id="nested-100000-deep"),
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


def test_superscript_ket_digit_is_exit_2(tmp_path):
    doc = tmp_path / "superscript.state"
    doc.write_text("dims 2 2\n+1 |0\u00b2>\n", encoding="utf-8")
    result = run_cli(str(doc))
    assert result.returncode == 2
    assert "malformed ket" in result.stderr
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize(
    "data,err",
    [
        (
            b"dims 2 2\n\xff |00>\n",
            "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
        ),
        (
            "dims 2 2\n1 |00>\n".encode("utf-16"),
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (
            '{"dims": [2, 2], "terms": [{"coeff": "\u00e9", "ket": [0, 0]}]}'.encode("latin-1"),
            "'utf-8' codec can't decode byte 0xe9 in position 38: invalid continuation byte",
        ),
    ],
    ids=["latin-byte", "utf-16", "latin-1-json"],
)
def test_input_that_is_not_utf8_is_exit_2(tmp_path, capsys, data, err):
    from multirank.cli import main

    path = tmp_path / "input.state"
    path.write_bytes(data)
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"multirank: cannot read input: {err}\n"
    assert captured.out == ""


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
                    assert entry["certificate"] in ("structural", "product", "hadamard")
                    assert entry["primes"] >= 1
    assert seen > 0


@pytest.mark.parametrize(
    "text,err",
    [
        (
            "dims 2 2\n1 |00>\ndims 2 2\n1 |11>\n",
            "line 3, column 1: second 'dims' declaration",
        ),
        ("dims 2 2 ; dims 2 2 2", "line 1, column 12: second 'dims' declaration"),
        ('{"dims": [2, 2], "terms": []}', "'terms' is empty: no terms were given"),
        ("dims 2 2\n# no terms\n", "no terms were given"),
    ],
    ids=["second-dims", "second-dims-same-line", "json-no-terms", "lines-no-terms"],
)
def test_parser_names_the_fault(tmp_path, capsys, text, err):
    from multirank.cli import main

    path = tmp_path / "input.state"
    path.write_text(text)
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == f"multirank: {path}: {err}\n"


def test_dump_above_the_cell_limit_is_refused_before_flattening(tmp_path, capsys, monkeypatch):
    import multirank.cli as cli

    def no_dump(*args, **kwargs):
        raise AssertionError("dump started")

    monkeypatch.setattr(cli, "_dump_matrices", no_dump)
    path = tmp_path / "wide.state"
    path.write_text("dims 20000 20000\n1 |0,0>\n")
    assert cli.main([str(path), "--dump-matrices"]) == 2
    assert capsys.readouterr().err == (
        "multirank: --dump-matrices would print 800000000 entries, "
        f"more than the limit of {2**24}\n"
    )
    # without the flag the same state runs at once
    assert cli.main([str(path)]) == 0
    assert capsys.readouterr().out == "{{1, 1}}\nverdict: fully product\n"
    assert f"{2**24} entries" in " ".join(cli.build_parser().format_help().split())


@pytest.mark.parametrize(
    "flags,entries", [([], 10 * 16), (["--levels", "1"], 4 * 16), (["--levels", "2"], 6 * 16)]
)
def test_dump_limit_counts_every_entry_printed(capsys, monkeypatch, flags, entries):
    import multirank.cli as cli

    argv = [str(STATES / "cluster4.state"), "--dump-matrices", *flags]
    monkeypatch.setattr(cli, "DUMP_LIMIT", entries)
    assert cli.main(argv) == 0
    dump = capsys.readouterr().err
    assert sum(line.count(",") + 1 for line in dump.splitlines() if line.startswith("# [")) == entries
    monkeypatch.setattr(cli, "DUMP_LIMIT", entries - 1)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"multirank: --dump-matrices would print {entries} entries, "
        f"more than the limit of {entries - 1}\n"
    )


@pytest.mark.parametrize(
    "flags,entries",
    [([], 616_665 * 2**20), (["--levels", "1"], 20 * 2**20)],
    ids=["all-levels", "one-level"],
)
def test_oversized_dump_is_refused_before_any_cut_is_enumerated(
    tmp_path, capsys, monkeypatch, flags, entries
):
    import multirank.cli as cli
    import multirank.profile as profile_module

    def no_enumeration(*args, **kwargs):
        raise AssertionError("cuts enumerated")

    monkeypatch.setattr(profile_module, "all_levels", no_enumeration)
    monkeypatch.setattr(cli, "enumerate_bipartitions", no_enumeration)
    path = tmp_path / "twenty.state"
    path.write_text("dims " + " ".join(["2"] * 20) + "\n1 |" + "0" * 20 + ">\n")
    assert cli.main([str(path), "--dump-matrices", *flags]) == 2
    assert capsys.readouterr().err == (
        f"multirank: --dump-matrices would print {entries} entries, "
        f"more than the limit of {2**24}\n"
    )


def _qubits(tmp_path, n, kets):
    path = tmp_path / f"q{n}.state"
    path.write_text("dims " + " ".join(["2"] * n) + "\n" + "".join(f"1 |{k}>\n" for k in kets))
    return path


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_run_above_the_cut_limit_exits_2_at_once(tmp_path, capsys, monkeypatch, fmt):
    # 64 parties have 2**63 - 1 + C(64, 32) / 2 cuts; building them would
    # exhaust memory, so the run must refuse on their count alone
    import multirank.cli as cli
    import multirank.profile as profile_module

    def no_enumeration(*args, **kwargs):
        raise AssertionError("cuts enumerated")

    monkeypatch.setattr(profile_module, "all_levels", no_enumeration)
    path = _qubits(tmp_path, 64, ["0" * 64, "1" * 64])
    start = time.perf_counter()
    assert cli.main([str(path), "--format", fmt]) == 2
    assert time.perf_counter() - start < 1
    cuts = sum(comb(64, k) for k in range(1, 33))
    assert capsys.readouterr() == (
        "",
        f"multirank: the profile has {cuts} cuts, more than the limit of {2**20}\n",
    )


def test_one_level_of_a_state_past_the_cut_limit_still_runs(tmp_path):
    result = run_cli(str(_qubits(tmp_path, 64, ["0" * 64, "1" * 64])), "--levels", "1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "{" + ", ".join(["2"] * 64) + "}\n"


def test_twenty_two_parties_are_past_the_cut_limit(tmp_path):
    result = run_cli(str(_qubits(tmp_path, 22, ["0" * 22])))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"multirank: the profile has {2**21 - 1 + comb(22, 11) // 2} cuts, "
        f"more than the limit of {2**20}\n"
    )


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


W3 = str(STATES / "w3.state")


@pytest.mark.parametrize(
    "text,flags,code,err",
    [
        (None, [W3, "--rank", "bogus"], 2, "unknown rank policy 'bogus'"),
        (
            None,
            [W3, "--levels", "x"],
            2,
            "--levels must be 'all' or a level between 1 and floor(n/2), got 'x'",
        ),
        (None, [W3, "--seed", "-1"], 2, "seed must fit in 64 bits"),
        (
            None,
            ["{path}"],
            2,
            "cannot read input: [Errno 2] No such file or directory: '{path}'",
        ),
        ("dims 2 2\n+1 |00\n", ["{path}"], 2, "{path}: line 2, column 1: expected '<coeff> |<ket>>'"),
        (
            "dims 2 2\n+1 |02>\n",
            ["{path}"],
            2,
            "{path}: term 0: ket digit 2 out of range for party 2 (dimension 2)",
        ),
        (
            "dims 2 2\n+1 |00>\n-1 |00>\n",
            ["{path}"],
            3,
            "{path}: all terms cancel: the zero state is not admissible",
        ),
        (None, [str(STATES / "cluster4.state"), "--levels", "3"], 2, "level must be between 1 and 2"),
        (
            None,
            [str(STATES / "param_ghz3.state")],
            4,
            "matrix has parametric entries; use the generic policy",
        ),
        ("dims 2 2\n1/7 |00>\n1 |11>\n", ["{path}", "--rank", "mod:7"], 2, "prime 7 divides a denominator"),
        (None, [W3, "--rank", "generic"], 0, "warning: generic policy on a state with no parameters"),
    ],
    ids=[
        "bad-rank", "bad-levels", "negative-seed", "unreadable", "syntax", "invalid",
        "zero-state", "level-out-of-range", "parametric-under-fast", "prime-clash",
        "generic-warning",
    ],
)
def test_every_failure_path_pins_stderr_and_exit_code(tmp_path, capsys, text, flags, code, err):
    from multirank.cli import main

    path = tmp_path / "input.state"
    if text is not None:
        path.write_text(text)
    argv = [flag.format(path=path) for flag in flags]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"multirank: {err.format(path=path)}\n"
    assert captured.out == ("{{2, 2, 2}}\nverdict: GME (generic)\n" if code == 0 else "")


LEVELS_MESSAGE = "--levels must be 'all' or a level between 1 and floor(n/2), got {!r}"


@pytest.mark.parametrize(
    "flags,err",
    [
        (["--seed", "1_0"], "--seed must be an integer, got '1_0'"),
        (["--seed", "\u0663"], "--seed must be an integer, got '\u0663'"),
        (["--seed", "x"], "--seed must be an integer, got 'x'"),
        (["--seed", "9" * 5000], "seed has more than 4300 digits"),
        (["--levels", "\u0661"], LEVELS_MESSAGE.format("\u0661")),
        (["--levels", "+1"], LEVELS_MESSAGE.format("+1")),
        (["--levels", " 1"], LEVELS_MESSAGE.format(" 1")),
        (["--levels", "1" * 5000], "level has more than 4300 digits"),
        (["--rank", "mod:+7"], "malformed modular policy 'mod:+7'"),
        (["--rank", "mod:1_9"], "malformed modular policy 'mod:1_9'"),
        (["--rank", "mod:" + "7" * 5000], "prime has more than 4300 digits"),
        (["--rank", "generic:\u0663"], "malformed generic policy 'generic:\u0663'"),
        (["--rank", "generic: 3, 7"], "malformed generic policy 'generic: 3, 7'"),
        (["--rank", "generic:" + "3" * 5000], "trials has more than 4300 digits"),
        (["--rank", "generic:3," + "7" * 5000], "prime has more than 4300 digits"),
    ],
)
def test_flag_numbers_are_ascii_digits(capsys, flags, err):
    from multirank.cli import main

    assert main([W3, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"multirank: {err}\n"
    assert captured.out == ""


def _json_run(capsys, path, *flags):
    from multirank.cli import main

    assert main([str(path), "--format", "json", *flags]) == 0
    return json.loads(capsys.readouterr().out)


ENTRY_HEAD = ["parties", "complement", "rank", "mode", "certainty"]


@pytest.mark.parametrize(
    "state,policy,tail",
    [
        ("w3", "fast", ["certificate", "primes"]),
        ("w3", "exact", ["certificate", "primes"]),
        ("w3", "mod:2147483647", ["prime"]),
        ("param_ghz3", "generic", ["prime", "trials", "failure_bound"]),
    ],
)
def test_json_entry_keys_in_order(capsys, state, policy, tail):
    path = STATES / f"{state}.state"
    full = _json_run(capsys, path, "--rank", policy)
    assert list(full["levels"][0]["ranks"][0]) == ENTRY_HEAD + tail
    single = _json_run(capsys, path, "--rank", policy, "--levels", "1")
    assert list(single["ranks"][0]) == ENTRY_HEAD + tail


def test_json_document_keys_in_order(capsys):
    path = STATES / "cluster4.state"
    full = _json_run(capsys, path)
    assert list(full) == ["dims", "policy", "seed", "dedupe", "levels", "profile", "verdict"]
    single = _json_run(capsys, path, "--levels", "2")
    assert list(single) == ["dims", "policy", "seed", "level", "ranks", "profile"]


@pytest.mark.parametrize("dedupe", [[], ["--dedupe"]], ids=["all", "dedupe"])
@pytest.mark.parametrize("path", sorted(STATES.glob("*.state")), ids=lambda p: p.stem)
def test_single_level_text_is_the_full_runs_brace_list(capsys, path, dedupe):
    from multirank.cli import main

    flags = ["--rank", "generic"] if path.name.startswith("param") else []
    assert main([str(path), *flags, *dedupe]) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    lists = re.findall(r"\{[^{}]*\}", first_line)
    assert lists
    for k, expected in enumerate(lists, start=1):
        assert main([str(path), *flags, *dedupe, "--levels", str(k)]) == 0
        assert capsys.readouterr().out == expected + "\n"


def test_closed_stdout_is_exit_1_without_a_traceback(tmp_path):
    # the 10-qubit W state's JSON report is 252,241 bytes, far above a
    # 64 KiB pipe buffer, so the write fails once the reader has gone
    n = 10
    path = tmp_path / "w10.state"
    kets = ["0" * i + "1" + "0" * (n - 1 - i) for i in range(n)]
    path.write_text("dims " + " ".join(["2"] * n) + "\n" + "".join(f"1 |{k}>\n" for k in kets))
    src = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    with subprocess.Popen(
        [sys.executable, "-m", "multirank", str(path), "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))},
    ) as child:
        assert child.stdout.read(1) == b"{"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (1, b"")


VANISHING = {
    "mod-7": ("dims 2 2\n7 |00>\n7 |11>\n", ["--rank", "mod:7"], 7),
    "generic-3": ("dims 2 2\na |00>\na |11>\n", ["--rank", "generic:1,3", "--seed", "0"], 3),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(VANISHING))
def test_state_that_vanishes_mod_the_prime_has_no_verdict(tmp_path, capsys, name, fmt):
    # every rank is 0, so no cut is a product cut and none exceeds 1
    from multirank.cli import main

    text, flags, prime = VANISHING[name]
    path = tmp_path / "vanishing.state"
    path.write_text(text)
    assert main([str(path), *flags, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"multirank: every rank is 0: the state vanishes mod {prime}\n"


def test_vanishing_state_still_prints_a_single_level(tmp_path):
    # a --levels run prints no verdict, and 0 is a valid modular rank
    doc = tmp_path / "vanishing.state"
    doc.write_text(VANISHING["mod-7"][0])
    result = run_cli(str(doc), "--levels", "1", "--rank", "mod:7")
    assert (result.returncode, result.stdout, result.stderr) == (0, "{0, 0}\n", "")


def qubits70_text() -> str:
    """70 qubits, 8 terms: each ket on party 1 = 0 has a partner on party
    1 = 1 with twice its coefficient and party 6, whose place at the cut
    {1} is 2**64, set.  An index wrapped mod 2**64 merges the partners."""
    rng = random.Random(70)
    lines = ["dims " + " ".join(["2"] * 70)]
    for coeff, twice in [("1", "2"), ("-1/2+1/3i", "-1+2/3i"), ("2i", "4i"), ("3/5", "6/5")]:
        tail = [rng.choice("01") for _ in range(69)]
        tail[4] = "0"
        lines.append(f"{coeff} |0{''.join(tail)}>")
        tail[4] = "1"
        lines.append(f"{twice} |1{''.join(tail)}>")
    return "\n".join(lines) + "\n"


def wide4_text() -> str:
    """dims 2**40 2**40 2**40 3: the cut {1} has 3 * 2**80 columns, and
    party 2's digit 2**24 sits at column 3 * 2**64."""
    d = 2**40
    kets = [
        (0, 0, 0, 0),
        (1, 2**24, 0, 0),
        (d - 1, d - 1, d - 1, 2),
        (5, 2**39, 7, 1),
        (2**24, 0, 2**30, 2),
        (3, 1, d - 2, 0),
    ]
    coeffs = ["1", "1/2-i", "-3", "2/3i", "4", "1+1/7i"]
    body = "".join(f"{c} |{','.join(map(str, k))}>\n" for c, k in zip(coeffs, kets))
    return f"dims {d} {d} {d} 3\n" + body


# stdout pinned from the per-term Python index map, which never wraps
PAST_INT64 = [
    (
        qubits70_text,
        ("--levels", "1", "--format", "json"),
        "fc1ab5aade9e596c303b51a2f978ca7aca3430c810816a8ece6e981ea71e46d2",
        # rank 1 where all 8 kets share the party's digit
        [[1 if j in (11, 12, 26, 33, 37, 46, 53, 56, 62, 64) else 2 for j in range(1, 71)]],
    ),
    (
        wide4_text,
        (),
        "ca2223782d0a62587e57f27e85ae0981285cd966b2337a0cf8a4a6c20dda9805",
        "{{6, 5, 5, 3}, {5, 6, 6, 6, 6, 5}}\nverdict: GME\n",
    ),
    (
        wide4_text,
        ("--format", "json"),
        "a74f1c6fc72a929cc496221ac2db6985e03ffbe6aec806cb24bd086cf7f01b5f",
        [[6, 5, 5, 3], [5, 6, 6, 6, 6, 5]],
    ),
]


@pytest.mark.parametrize(
    "make,flags,digest,expected", PAST_INT64, ids=["qubits70-json", "wide4-text", "wide4-json"]
)
def test_indices_past_int64(tmp_path, make, flags, digest, expected):
    path = tmp_path / "wide.state"
    path.write_text(make())
    result = run_cli(str(path), *flags)
    assert (result.returncode, result.stderr) == (0, "")
    if isinstance(expected, str):
        assert result.stdout == expected
    else:
        assert json.loads(result.stdout)["profile"] == expected
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
