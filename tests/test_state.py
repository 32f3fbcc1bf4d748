"""State parsing, construction, serialization, and local operations."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multirank import (
    GaussianRational,
    InvalidStateError,
    Parameter,
    StateSyntaxError,
    ZeroStateError,
    build_state,
    exact_rank,
    flatten,
    enumerate_bipartitions,
    parse_coefficient,
    parse_state,
)
from helpers import (
    apply_local_operation,
    gauss,
    rand_gauss_int,
    rand_state,
    serialize_state,
    w3,
)


class TestParseCoefficient:
    @pytest.mark.parametrize(
        "text,re_,im_",
        [
            ("1", 1, 0),
            ("+1", 1, 0),
            ("-1", -1, 0),
            ("2/4", Fraction(1, 2), 0),
            ("-1/2", Fraction(-1, 2), 0),
            ("1/2+1/3i", Fraction(1, 2), Fraction(1, 3)),
            ("-1/2-1/3 i", Fraction(-1, 2), Fraction(-1, 3)),
            ("2i", 0, 2),
            ("-i", 0, -1),
            ("i", 0, 1),
            (" 1 + 2 i ", 1, 2),
            ("0", 0, 0),
        ],
    )
    def test_gaussian_forms(self, text, re_, im_):
        amp = parse_coefficient(text)
        assert amp == GaussianRational(Fraction(re_), Fraction(im_))

    def test_parameter(self):
        assert parse_coefficient("a") == Parameter("a")
        assert parse_coefficient("alpha_2") == Parameter("alpha_2")

    def test_imaginary_unit_is_not_a_parameter(self):
        assert parse_coefficient("i") == GaussianRational(Fraction(0), Fraction(1))

    @pytest.mark.parametrize(
        "text", ["", "1//2", "1+2", "2i+1", "1/0", "a b", "++1", "2i+3i", "i+i", "1+1/0i"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_coefficient(text)

    def test_roundtrip_formatting(self):
        rng = random.Random(11)
        for _ in range(300):
            g = GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            assert parse_coefficient(str(g)) == g


class TestParseState:
    def test_w_state_single_line(self):
        state = parse_state("dims 2 2 2 ; +1 |001> ; +1 |010> ; +1 |100>")
        assert state.dims.dims == (2, 2, 2)
        assert len(state.terms) == 3
        assert state.terms[(0, 0, 1)] == gauss(1)

    def test_cancellation_is_zero_state(self):
        with pytest.raises(ZeroStateError):
            parse_state("dims 2 2 ; +1 |00> ; -1 |00>")

    def test_four_qubit_with_negative_amplitude(self):
        state = parse_state(
            "dims 2 2 2 2 ; +1 |0000> ; +1 |0011> ; +1 |1100> ; -1 |1111>"
        )
        assert len(state.terms) == 4
        assert state.terms[(1, 1, 1, 1)] == gauss(-1)

    def test_parametric_amplitude(self):
        state = parse_state("dims 2 2 2 ; +a |000> ; +1 |111>")
        assert state.terms[(0, 0, 0)] == Parameter("a")
        assert state.has_parameters

    def test_comments_and_blank_lines(self):
        state = parse_state("# header\n\ndims 2 2\n+1 |01>  # trailing\n")
        assert state.terms == {(0, 1): gauss(1)}

    def test_comma_separated_ket(self):
        state = parse_state("dims 2 12\n+1 |1,11>")
        assert state.terms == {(1, 11): gauss(1)}

    def test_digit_form_rejected_for_large_dims(self):
        with pytest.raises(StateSyntaxError):
            parse_state("dims 2 12\n+1 |111>")

    def test_index_out_of_range(self):
        with pytest.raises(InvalidStateError):
            parse_state("dims 2 2\n+1 |02>")

    def test_wrong_ket_length(self):
        with pytest.raises(InvalidStateError):
            parse_state("dims 2 2\n+1 |011>")

    def test_empty_document(self):
        with pytest.raises(StateSyntaxError):
            parse_state("")

    def test_missing_dims_line(self):
        with pytest.raises(StateSyntaxError):
            parse_state("+1 |00>")

    def test_syntax_error_carries_position(self):
        with pytest.raises(StateSyntaxError) as err:
            parse_state("dims 2 2\n+1 |00\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dims 2 1_2\n+1 |0,0>", "line 1, column 1: non-integer dimension in 'dims 2 1_2'"),
            ("dims 2 +2\n+1 |00>", "line 1, column 1: non-integer dimension in 'dims 2 +2'"),
            ("dims 2 ２\n+1 |00>", "line 1, column 1: non-integer dimension in 'dims 2 ２'"),
            ("dims 2 2\n+1 |1,+0>", "line 2, column 1: malformed ket |1,+0>"),
            ("dims 12 2\n+1 |1_1,0>", "line 2, column 1: malformed ket |1_1,0>"),
            ("dims 2 2\n+1 |０1>", "line 2, column 1: malformed ket |０1>"),
            ("dims 2 2\n+1 |０,1>", "line 2, column 1: malformed ket |０,1>"),
            ("dims 2 2\n٣ |00>", "line 2, column 1: malformed coefficient '٣ '"),
            ("dims 2 2\n1/٣i |00>", "line 2, column 1: malformed coefficient '1/٣i '"),
            (
                '{"dims": [2, 2], "terms": [{"coeff": "٣", "ket": [0, 0]}]}',
                "term 0: malformed coefficient '٣'",
            ),
        ],
        ids=[
            "dim-underscore", "dim-plus", "dim-fullwidth", "ket-plus", "ket-underscore",
            "ket-fullwidth", "comma-ket-fullwidth", "coeff-arabic-indic",
            "denominator-arabic-indic", "json-coeff-arabic-indic",
        ],
    )
    def test_integers_are_ascii_digits_alone(self, text, message):
        # int(), str.isdecimal() and \d read each of these as a number
        with pytest.raises((StateSyntaxError, InvalidStateError)) as err:
            parse_state(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            (f"dims 2 {'2' * 5000}\n+1 |0,0>", "line 1, column 1: dimension has more than 4300 digits"),
            (f"dims 2 2\n{'7' * 5000} |00>", "line 2, column 1: coefficient has more than 4300 digits"),
            (f"dims 2 2\n1/{'7' * 5000}i |00>", "line 2, column 1: coefficient has more than 4300 digits"),
            (f"dims 2 2\n+1 |0,{'0' * 5000}>", "line 2, column 1: ket index has more than 4300 digits"),
            (
                f'{{"dims": [2, 2], "terms": [{{"coeff": "{"7" * 5000}", "ket": [0, 0]}}]}}',
                "term 0: coefficient has more than 4300 digits",
            ),
            (
                f'{{"dims": [2, 2], "terms": [{{"coeff": {"7" * 5000}, "ket": [0, 0]}}]}}',
                "invalid JSON: an integer has more than 4300 digits",
            ),
        ],
        ids=["dim", "coeff", "denominator", "ket-index", "json-coeff-string", "json-coeff-int"],
    )
    def test_numbers_past_the_digit_limit_are_named_not_echoed(self, text, message):
        with pytest.raises((StateSyntaxError, InvalidStateError)) as err:
            parse_state(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dims 2 2\n1 |>", "line 2, column 1: empty ket"),
            (
                "dims 2 2\n1+1/0i |00>",
                "line 2, column 1: zero denominator in coefficient '1+1/0i '",
            ),
            ("dims 2 2\n2i+3i |00>", "line 2, column 1: malformed coefficient '2i+3i '"),
        ],
        ids=["empty-ket", "imaginary-zero-denominator", "two-imaginary-parts"],
    )
    def test_line_faults_are_named(self, text, message):
        with pytest.raises(StateSyntaxError) as err:
            parse_state(text)
        assert str(err.value) == message

    def test_json_document(self):
        text = '{"dims": [2, 2, 2], "terms": [{"coeff": "+1", "ket": [0, 0, 1]}, {"coeff": "1/2", "ket": [1, 0, 0]}]}'
        state = parse_state(text)
        assert state.terms[(1, 0, 0)] == gauss(Fraction(1, 2))

    def test_json_matches_line_grammar(self):
        a = parse_state("dims 2 2 2 ; +1 |001> ; +1 |010> ; +1 |100>")
        b = parse_state(
            '{"dims":[2,2,2],"terms":[{"coeff":"1","ket":[0,0,1]},'
            '{"coeff":"1","ket":[0,1,0]},{"coeff":"1","ket":[1,0,0]}]}'
        )
        assert a.terms == b.terms

    def test_json_error_reported(self):
        with pytest.raises(StateSyntaxError):
            parse_state('{"dims": [2, 2]}')

    @pytest.mark.parametrize(
        "text,message",
        [
            # a fault in the JSON structure has no position in the text
            (
                '{"dims": [2, 2],\n "terms": [\n  {"coeff": "1", "ket": [0, 0]},\n'
                '  {"coeff": "1", "ket": 5}\n]}',
                "term 1: 'ket' must be a list",
            ),
            (
                '{"dims": [2, 2],\n "terms": [\n  {"coeff": "1", "ket": [0, 0]},\n'
                '  {"coeff": "1", "ket": [0.7, 1]}\n]}',
                "term 1: ket digit 0.7 for party 1 is not an integer",
            ),
            ('{"dims": [2, 2]}', "JSON state needs 'dims' and 'terms' keys"),
            (
                '{"dims": [2, 2], "terms": [{"coeff": true, "ket": [0, 0]}]}',
                "term 0: cannot interpret True as an amplitude",
            ),
            # the first faulty term is reported, whatever its fault
            (
                '{"dims": [2, 2], "terms": [\n  {"coeff": "1", "ket": [0, 2]},\n'
                '  {"coeff": 1.5, "ket": [0, 0]}\n]}',
                "term 0: ket digit 2 out of range for party 2 (dimension 2)",
            ),
            ("", "empty document: missing dims declaration"),
            # a fault in one term names the term, counted from 0
            (
                "dims 2 2\n+1 |00>\n+1 |02>\n",
                "term 1: ket digit 2 out of range for party 2 (dimension 2)",
            ),
            ("dims 2 2\n+1 |00>\n+1 |011>\n", "term 1: ket (0, 1, 1) has 3 digits, expected 2"),
            (
                "dims 2 2\na |00>\n+1 |00>\n",
                "term 1: cannot merge a parametric amplitude at ket (0, 0)",
            ),
            # a fault at a place in the text names it
            ('{"dims": [2, 2],\n "terms": [}', "line 2, column 12: invalid JSON: Expecting value"),
            ("dims 2 2\n+1 |00\n", "line 2, column 1: expected '<coeff> |<ket>>'"),
            # every line is parsed before build_state checks any ket, so
            # the syntax fault on line 3 is reported, not the range fault
            ("dims 2 2\n+1 |02>\n+1 |0x>\n", "line 3, column 1: malformed ket |0x>"),
        ],
        ids=[
            "ket-not-a-list", "float-digit", "missing-key", "bool-coeff",
            "json-two-faults", "empty", "out-of-range",
            "wrong-length", "parametric-merge", "bad-json", "bad-line", "two-faults",
        ],
    )
    def test_error_names_a_position_only_when_there_is_one(self, text, message):
        with pytest.raises((StateSyntaxError, InvalidStateError)) as err:
            parse_state(text)
        assert str(err.value) == message


class TestBuildState:
    def test_canonical_reduction(self):
        state = build_state((2, 2), [((0, 0), (Fraction(2, 4), 0))])
        assert state.terms[(0, 0)] == gauss(Fraction(1, 2))

    def test_duplicate_merge(self):
        state = build_state((2, 2), [((0, 0), 1), ((0, 0), 1)])
        assert state.terms == {(0, 0): gauss(2)}

    def test_qutrit_example(self):
        state = build_state(
            (3, 3, 3),
            [((0, 0, 2), 1), ((0, 2, 0), 1), ((2, 0, 0), 1),
             ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)],
        )
        assert len(state.terms) == 6

    def test_zero_after_cancellation(self):
        with pytest.raises(ZeroStateError):
            build_state((2, 2), [((0, 0), 1), ((0, 0), -1)])

    def test_out_of_range_index(self):
        with pytest.raises(InvalidStateError):
            build_state((2, 2), [((0, 3), 1)])

    def test_parametric_merge_rejected(self):
        with pytest.raises(InvalidStateError):
            build_state((2, 2), [((0, 0), "a"), ((0, 0), 1)])

    def test_too_few_parties(self):
        with pytest.raises(InvalidStateError):
            build_state((4,), [((0,), 1)])

    @pytest.mark.parametrize(
        "dims,ket",
        [
            ((2.9, 2), (0, 0)),
            ((2.0, 2), (0, 0)),
            ((True, 2), (0, 0)),
            (("2", 2), (0, 0)),
            (([2], 2), (0, 0)),
            ((2, 2), (0.7, 1)),
            ((2, 2), (1.0, 0)),
            ((2, 2), (True, 0)),
            ((2, 2), ("1", 0)),
            ((2, 2), ([0], 1)),
        ],
        ids=[
            "float-dim", "integral-float-dim", "bool-dim", "string-dim", "list-dim",
            "float-digit", "integral-float-digit", "bool-digit", "string-digit",
            "list-digit",
        ],
    )
    def test_non_integer_dims_and_digits_rejected(self, dims, ket):
        # never truncated or coerced into a different state
        with pytest.raises(InvalidStateError, match="integer"):
            build_state(dims, [(ket, 1)])

    @pytest.mark.parametrize(
        "term",
        [
            (5, 1),
            ((0, 0), 1.5),
            ((0, 0), None),
            ((0, 0), (1, 2, 3)),
            ((0, 0), "1/0"),
            ((0, 0), "x y"),
            ((0, 0), True),
            ((0, 0), (1.5, 0)),
            ((0, 0), (1, True)),
            ((0, 0), ("1/2", 0)),
        ],
        ids=[
            "int-ket", "float-coeff", "none-coeff", "triple-coeff",
            "zero-denominator", "two-words", "bool-coeff", "float-in-pair",
            "bool-in-pair", "string-in-pair",
        ],
    )
    def test_unreadable_term_is_invalid_state(self, term):
        with pytest.raises(InvalidStateError, match=r"^term 1: "):
            build_state((2, 2), [((1, 1), 1), term])

    def test_dimension_one_rejected(self):
        with pytest.raises(InvalidStateError):
            build_state((2, 1), [((0, 0), 1)])

    def test_merge_is_order_independent(self):
        rng = random.Random(23)
        for _ in range(50):
            dims = (2, 3, 2)
            terms = [
                (tuple(rng.randrange(d) for d in dims), rand_gauss_int(rng))
                for _ in range(rng.randint(1, 12))
            ]
            shuffled = terms[:]
            rng.shuffle(shuffled)
            try:
                a = build_state(dims, terms)
            except ZeroStateError:
                with pytest.raises(ZeroStateError):
                    build_state(dims, shuffled)
                continue
            b = build_state(dims, shuffled)
            assert a.terms == b.terms


class TestAmplitudeArithmetic:
    def test_add_then_subtract_is_identity(self):
        rng = random.Random(5)
        for _ in range(500):
            a = GaussianRational(
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
            )
            b = GaussianRational(
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
            )
            assert (a + b) - b == a


class TestSerializeRoundTrip:
    def test_fixed_documents(self):
        docs = [
            "dims 2 2 2 ; +1 |001> ; +1 |010> ; +1 |100>",
            "dims 2 2\n-1/2+1/3i |01>\n2i |10>",
            "dims 2 2 2 ; a |000> ; +1 |111>",
            "dims 2 12\n+1 |1,11>\n-1 |0,3>",
        ]
        for doc in docs:
            state = parse_state(doc)
            again = parse_state(serialize_state(state))
            assert again.dims == state.dims
            assert again.terms == state.terms

    def test_random_states(self):
        rng = random.Random(77)
        for _ in range(100):
            state = rand_state(rng)
            again = parse_state(serialize_state(state))
            assert again.terms == state.terms


class TestApplyLocalOperation:
    def test_identity_leaves_terms(self):
        state = w3()
        out = apply_local_operation(state, 2, [[1, 0], [0, 1]])
        assert out.terms == state.terms

    def test_swap_on_third_site_of_w(self):
        out = apply_local_operation(w3(), 3, [[0, 1], [1, 0]])
        assert list(out.terms.items()) == [
            ((0, 0, 0), gauss(1)), ((0, 1, 1), gauss(1)), ((1, 0, 1), gauss(1)),
        ]

    def test_shear_keeps_single_party_rank(self):
        state = build_state((2, 2), [((0, 0), 1), ((1, 1), 1)])
        out = apply_local_operation(state, 1, [[1, 0], [1, 1]])
        assert list(out.terms.items()) == [
            ((0, 0), gauss(1)), ((1, 0), gauss(1)), ((1, 1), gauss(1)),
        ]
        bp = enumerate_bipartitions(out.dims, 1)[0]
        assert exact_rank(flatten(out, bp)).value == 2

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidStateError):
            apply_local_operation(w3(), 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_site_out_of_range(self):
        with pytest.raises(InvalidStateError):
            apply_local_operation(w3(), 4, [[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "site,matrix",
        [
            (True, [[1, 0], [0, 1]]),
            (1.0, [[1, 0], [0, 1]]),
            (1, [[1.5, 0], [0, 1]]),
            (1, [5, [0, 1]]),
            (1, [["a", 0], [0, 1]]),
            (1, ["10", "01"]),
            (1, [[True, 0], [0, 1]]),
        ],
        ids=[
            "bool-site", "float-site", "float-entry", "int-row", "parameter-entry",
            "string-rows", "bool-entry",
        ],
    )
    def test_malformed_operation_is_invalid_state(self, site, matrix):
        with pytest.raises(InvalidStateError):
            apply_local_operation(w3(), site, matrix)

    def test_parametric_state_rejected(self):
        state = parse_state("dims 2 2 ; a |00> ; +1 |11>")
        with pytest.raises(InvalidStateError):
            apply_local_operation(state, 1, [[1, 0], [0, 1]])

    def test_annihilating_matrix_is_zero_state(self):
        # the matrix kills |0> and the state only populates |0> on site 1
        state = build_state((2, 2), [((0, 0), 1)])
        with pytest.raises(ZeroStateError):
            apply_local_operation(state, 1, [[0, 1], [0, 0]])

    def test_negated_parameter_rejected(self):
        with pytest.raises(StateSyntaxError):
            parse_state("dims 2 2 ; -a |00> ; +1 |11>")


def test_import_does_not_load_json():
    # json is imported by the JSON parser alone, when a document needs it
    probe = (
        "import sys; before = set(sys.modules); import multirank; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    repo = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = done.stdout.split()
    assert "multirank.state" in loaded
    assert "json" not in loaded
