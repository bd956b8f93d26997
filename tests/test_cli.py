"""End-to-end command-line behavior: output, exit codes, error reports."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import synapper
from synapper import MalformedDocumentError, cli, parse_structure
from synapper.chance import MAX_MEMBERS
from synapper.model import MAX_DEPTH
from conftest import FIXTURES, PROFILES, ROOT, fixture_path, lexicon_path, load_structure, profile_path
from replay import ALPHABET, argparse_call, outcome, read_as_argparse_reads, tails_checked

VALID_FIXTURES = sorted(f.stem for f in FIXTURES.glob("*.json") if not f.stem.startswith("bad_"))
# Every bundled profile, plus a bare pre_subject profile per word order:
# there the WH word goes before the subject block, which is often not first.
ROUND_TRIP_PROFILES = sorted(f.stem for f in PROFILES.glob("*.json")) + [
    f"pre_subject-{order.value}" for order in synapper.WordOrder
]


class TestValidate:
    def test_ok(self, run_cli):
        code, out, err = run_cli("validate", fixture_path("horse"))
        assert (code, out, err) == (0, "OK\n", "")

    def test_invalid_structure_reports_json_on_stderr(self, run_cli):
        code, out, err = run_cli("validate", fixture_path("bad_two_subjects"))
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["error"] == "StructureValidationError"
        assert report["issues"][0]["code"] == "multiple-subjects"

    def test_loop_laws_are_reported_together_in_one_report(self, run_cli, tmp_path):
        node = {"node": [{"surface": "x", "category": "N"}]}
        phrase = {"kind": "phrasal", "head_index": 5, "members": [node]}
        members = [{"role": r, **node} for r in ("subject", "subject", "verb")] + [{"role": "object", "loop": phrase}]
        doc = {"word_order": "svo", "loop": {"kind": "clausal", "members": members}}
        path = tmp_path / "laws.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (1, "")
        report = json.loads(err)
        assert report["error"] == "StructureValidationError"
        head = "loop.members[3].loop.head_index"
        assert report["issues"] == [
            {"code": "multiple-subjects", "path": "loop", "message": "clausal loop has more than one subject"},
            {"code": "head-out-of-range", "path": head, "message": "head_index out of range"},
        ]

    @pytest.mark.parametrize("kind, role", [("clausal", None), ("phrasal", 5)])
    def test_a_role_that_is_not_text_reports_its_path(self, run_cli, tmp_path, kind, role):
        member = {"role": role, "node": [{"surface": "x", "category": "N"}]}
        verb = {"role": "verb", "node": [{"surface": "ran", "category": "V"}]}
        subject = {"role": "subject", "loop": {"kind": kind, "members": [member]}}
        doc = {"word_order": "svo", "loop": {"kind": "clausal", "members": [verb, subject]}}
        path = tmp_path / "role.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (1, "")
        role_path = "loop.members[1].loop.members[0].role"
        assert json.loads(err) == {
            "error": "MalformedDocumentError",
            "message": f"{role_path}: expected a string",
            "path": role_path,
        }

    def test_a_subject_final_flag_is_an_unknown_key(self, run_cli, tmp_path):
        doc = {"surface_subject_final": True, **json.loads((FIXTURES / "mary.json").read_text(encoding="utf-8"))}
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "UnknownKeyError",
            "message": "surface_subject_final: unknown key 'surface_subject_final'",
            "path": "surface_subject_final",
        }

    def test_missing_file(self, run_cli):
        code, _, err = run_cli("validate", "no_such_file.json")
        assert code == 1
        assert "no_such_file.json" in json.loads(err)["message"]

    def test_non_utf8_file_reports_json(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli("validate", str(bad))
        assert (code, out) == (1, "")
        report = json.loads(err)
        assert report["error"] == "SynapperError"
        assert report["message"] == f"cannot read {bad}: not UTF-8 (invalid start byte at byte 0)"

    def test_unreadable_paths_report_the_os_reason(self, run_cli, tmp_path):
        for path, reason in (("no_such_file.json", "No such file or directory"), (str(tmp_path), "Is a directory")):
            code, out, err = run_cli("validate", path)
            assert (code, out) == (1, "")
            assert json.loads(err)["message"] == f"cannot read {path}: {reason}"

    def test_path_with_a_nul_character_reports_json(self, run_cli):
        code, _, err = run_cli("validate", "a\x00b.json")
        assert code == 1
        assert json.loads(err)["message"] == "cannot read a\x00b.json: embedded null byte"


class TestLinearize:
    @pytest.mark.parametrize(
        "fixture, profile, expected",
        [
            ("horse", "en", "Jane has a very fast brown horse"),
            ("horse", "fr", "Jane has a horse brown very fast"),
            ("horse", "ja-gloss", "Jane very fast brown horse has"),
            ("horse", "cy-gloss", "Has Jane horse brown very fast"),
            ("colette", "en", "The fact that Colette was Willy was a big secret"),
            ("tim", "vso", "Is Tim the hospital to going"),
        ],
    )
    def test_applies_profile_morphemes(self, run_cli, fixture, profile, expected):
        code, out, err = run_cli("linearize", fixture_path(fixture), "--profile", profile_path(profile))
        assert (code, err) == (0, "")
        assert out == expected + "\n"

    def test_malformed_profile_reports_path(self, run_cli, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text('{"name": "x", "word_order": "svo", "wh_rule": "pre_subject", "oops": 1}')
        code, _, err = run_cli("linearize", fixture_path("horse"), "--profile", str(bad))
        assert code == 1
        assert json.loads(err)["path"] == "oops"


class TestTranslate:
    def test_uzbek(self, run_cli):
        code, out, _ = run_cli(
            "translate",
            fixture_path("horse"),
            "--lexicon",
            lexicon_path("en-uz"),
            "--profile",
            profile_path("uz"),
        )
        assert code == 0
        assert out == "Janeda bir juda tez jigarrang ot bor\n"

    def test_missing_lexemes_listed(self, run_cli):
        code, _, err = run_cli(
            "translate",
            fixture_path("tim"),
            "--lexicon",
            lexicon_path("en-uz"),
            "--profile",
            profile_path("uz"),
        )
        assert code == 1
        report = json.loads(err)
        assert report["error"] == "MissingLexemeError"
        assert ["Tim", "N"] in report["pairs"]

    def test_lexicon_field_with_whitespace_is_reported(self, run_cli, tmp_path):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("loves\tV\tsevadi\nMary\tN\tMa ry\nchocolate\tN\tshokolad\n", encoding="utf-8")
        code, out, err = run_cli(
            "translate", fixture_path("mary"), "--lexicon", str(lexicon), "--profile", profile_path("uz")
        )
        assert (code, out) == (1, "")
        report = json.loads(err)
        assert (report["error"], report["line"]) == ("MalformedSyntaxError", 2)


class TestQuestionAndBack:
    def test_question(self, run_cli):
        code, out, _ = run_cli(
            "question", fixture_path("tim"), "--profile", profile_path("en"), "--wh", "why"
        )
        assert (code, out) == (0, "Why is Tim going to the hospital\n")

    @pytest.mark.parametrize("bad_wh", ["", "why not", " "])
    def test_question_rejects_non_token_wh(self, run_cli, bad_wh):
        code, _, err = run_cli(
            "question", fixture_path("tim"), "--profile", profile_path("en"), "--wh", bad_wh
        )
        assert code == 1
        report = json.loads(err)
        assert report["error"] == "SynapperError"
        assert "wh word" in report["message"]

    @pytest.mark.parametrize(
        "profile, question, declarative",
        [
            ("en", "Why is Tim going to the hospital", "Tim is going to the hospital"),
            ("ja-gloss", "Why Tim the hospital to going is", "Tim the hospital to going is"),
            ("cy-gloss", "Why is Tim going to the hospital", "Is Tim going to the hospital"),
        ],
    )
    def test_declarativize(self, run_cli, profile, question, declarative):
        code, out, err = run_cli(
            "declarativize",
            fixture_path("tim"),
            "--profile",
            profile_path(profile),
            "--question",
            question,
        )
        assert (code, err) == (0, "")
        assert out == declarative + "\n"

    def test_declarativize_rejects_foreign_question(self, run_cli):
        code, _, err = run_cli(
            "declarativize",
            fixture_path("tim"),
            "--profile",
            profile_path("en"),
            "--question",
            "Why does Mary love chocolate",
        )
        assert code == 1
        assert json.loads(err)["error"] == "InversionMismatchError"

    @pytest.mark.parametrize("profile", ROUND_TRIP_PROFILES)
    @pytest.mark.parametrize("fixture", VALID_FIXTURES)
    def test_declarativize_undoes_every_printed_question(self, run_cli, tmp_path, fixture, profile):
        path = profile_path(profile)
        if profile.startswith("pre_subject-"):
            path = tmp_path / "profile.json"
            path.write_text(json.dumps({"name": profile, "word_order": profile[12:], "wh_rule": "pre_subject"}))
            path = str(path)
        p = synapper.parse_profile(Path(path).read_text(encoding="utf-8"))
        declarative = synapper.linearize(load_structure(fixture), p).render()
        # The last WH word equals the declarative's first word once the
        # rendering capital is undone.
        for wh in ("why", "what", declarative.split()[0].lower()):
            code, question, err = run_cli("question", fixture_path(fixture), "--profile", path, "--wh", wh)
            assert (code, err) == (0, "")
            code, out, err = run_cli(
                "declarativize", fixture_path(fixture), "--profile", path, "--question", question.rstrip("\n")
            )
            assert (code, out, err) == (0, declarative + "\n", ""), question

    @pytest.mark.parametrize(
        "question, message",
        [
            ("Why is Tim going to the hospital today", "does not add exactly one token"),
            ("Why is Tim going to a hospital", "does not match the structure's interrogative form"),
        ],
    )
    def test_declarativize_mismatch_messages(self, run_cli, question, message):
        code, out, err = run_cli(
            "declarativize", fixture_path("tim"), "--profile", profile_path("en"), "--question", question
        )
        assert (code, out) == (1, "")
        report = json.loads(err)
        assert report["error"] == "InversionMismatchError"
        assert message in report["message"]

    def test_declarativize_rejects_wh_in_the_structure(self, run_cli, tmp_path):
        doc = json.loads(Path(fixture_path("mary")).read_text(encoding="utf-8"))
        doc["loop"]["members"][2]["node"] = [{"surface": "what", "category": "WH"}]
        path = tmp_path / "wh.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            "declarativize", str(path), "--profile", profile_path("en"), "--question", "Why what loves Mary"
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "WhAlreadyPresentError"

    def test_declarativize_rejects_unmarked_sentence(self, run_cli):
        code, _, err = run_cli(
            "declarativize",
            fixture_path("tim"),
            "--profile",
            profile_path("en"),
            "--question",
            "Tim is going to the hospital",
        )
        assert code == 1
        assert json.loads(err)["error"] == "InversionMismatchError"


class TestCompareCanonDot:
    def test_same_modulo_rotation_and_label(self, run_cli, tmp_path):
        from synapper import parse_structure, serialize_structure
        from conftest import replaced, rotate_main

        s = parse_structure(open(fixture_path("tim")).read())
        rotated = replaced(rotate_main(s, 2), label="other-name")
        other = tmp_path / "rotated.json"
        other.write_text(serialize_structure(rotated))
        code, out, _ = run_cli("compare", fixture_path("tim"), str(other))
        assert (code, out) == (0, "SAME\n")

    def test_different(self, run_cli):
        code, out, _ = run_cli("compare", fixture_path("cena_a"), fixture_path("cena_b"))
        assert (code, out) == (0, "DIFFERENT\n")

    def test_canon_matches_library(self, run_cli):
        from synapper import canonical_form, parse_structure

        code, out, _ = run_cli("canon", fixture_path("colette"))
        assert code == 0
        assert out.strip() == canonical_form(parse_structure(open(fixture_path("colette")).read()))

    def test_dot(self, run_cli):
        code, out, _ = run_cli("dot", fixture_path("colette"))
        assert code == 0
        assert out.count("subgraph cluster_") == 2


class TestProb:
    def test_ten(self, run_cli):
        code, out, _ = run_cli("prob", "10")
        assert (code, out) == (0, "2.755732e-7 (1/3628800)\n")

    def test_two(self, run_cli):
        code, out, _ = run_cli("prob", "2")
        assert (code, out) == (0, "5.000000e-1 (1/2)\n")

    def test_too_small(self, run_cli):
        code, _, err = run_cli("prob", "1")
        assert code == 1
        assert json.loads(err)["error"] == "NTooSmallError"

    def test_digits_of_the_float_while_it_is_exact(self, run_cli):
        """Up to n = 174 the seven digits are those of the float 1/n!."""
        for n in range(2, 175):
            mantissa, _, exponent = f"{1 / math.factorial(n):.6e}".partition("e")
            assert run_cli("prob", str(n)) == (0, f"{mantissa}e{int(exponent)} (1/{math.factorial(n)})\n", "")

    @pytest.mark.parametrize("n, digits", [(177, "2.854790e-323"), (178, "1.603814e-325")])
    def test_exact_digits_where_the_float_underflows(self, run_cli, n, digits):
        assert run_cli("prob", str(n)) == (0, f"{digits} (1/{math.factorial(n)})\n", "")

    def test_digits_are_decimals_at_precision_seven(self, run_cli):
        """The digits are 1/n! rounded as decimal rounds it at precision 7, half to even, for every n accepted."""
        import decimal

        for n in range(2, MAX_MEMBERS + 1):
            quotient = decimal.Context(prec=7).divide(decimal.Decimal(1), math.factorial(n))
            assert run_cli("prob", str(n)) == (0, f"{quotient:.6e} (1/{math.factorial(n)})\n", "")

    def test_largest_n(self, run_cli):
        code, out, _ = run_cli("prob", str(MAX_MEMBERS))
        assert code == 0
        assert out.endswith(f"e-2568 (1/{math.factorial(MAX_MEMBERS)})\n")

    def test_past_the_bound(self, run_cli):
        code, out, err = run_cli("prob", str(MAX_MEMBERS + 1))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "SynapperError"


def _nested_document(depth: int) -> str:
    """Clausal loops nested depth deep, each the subject of the one around it: about 3 * depth levels of JSON."""
    core = '{"kind": "clausal", "members": [{"role": "subject", "node": [{"surface": "a", "category": "N"}]}, '
    verb = '{"role": "verb", "node": [{"surface": "b", "category": "V"}]}]}'
    opening = '{"kind": "clausal", "members": [{"role": "subject", "loop": '
    closing = "}, " + verb
    loop = opening * (depth - 1) + core + verb + closing * (depth - 1)
    return f'{{"word_order": "svo", "loop": {loop}}}'


# Before 3.13 the decoder cannot hold 900 loops; 3.13's reads them, and the builder reports the 101st loop.
if sys.version_info >= (3, 13):
    _DEEP_REPORT = ("loop" + ".members[0].loop" * MAX_DEPTH, f"loops nest deeper than {MAX_DEPTH} levels")
else:
    _DEEP_REPORT = ("", "unreadable JSON: nested too deeply to decode")


def test_document_nested_past_the_json_decoder_is_reported(run_cli, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_nested_document(900), encoding="utf-8")
    assert 900 > MAX_DEPTH
    code, out, err = run_cli("validate", str(path))
    assert (code, out) == (1, "")
    path, message = _DEEP_REPORT
    assert json.loads(err) == {
        "error": "MalformedDocumentError",
        "message": f"{path}: {message}" if path else message,
        "path": path,
    }


@pytest.mark.parametrize("stack", [0, 1, 2, 3, 50])
def test_a_document_nested_past_the_decoder_is_reported_alike_from_any_stack_depth(stack):
    """Objects and arrays nest in turn, and which of them the decoder's limit falls in depends on the caller's stack."""
    text = _nested_document(900)

    def nested_call(levels):
        return nested_call(levels - 1) if levels else outcome(parse_structure, text)

    assert nested_call(stack) == (MalformedDocumentError, *_DEEP_REPORT)


class TestOrders:
    def test_six_lines(self, run_cli):
        code, out, _ = run_cli("orders", fixture_path("mary"))
        assert code == 0
        assert out.splitlines() == [
            "SVO: Mary loves chocolate",
            "SOV: Mary chocolate loves",
            "VSO: Loves Mary chocolate",
            "VOS: Loves chocolate Mary",
            "OSV: Chocolate Mary loves",
            "OVS: Chocolate loves Mary",
        ]


_USAGE = "usage: synapper [-h] command ...\n"
_COMMAND_NAMES = [row[0] for row in cli._COMMANDS]


class TestUsage:
    """Usage errors exit 2. The texts are argparse's at a width of 80 columns."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_command_exits_2(self, run_cli):
        message = "synapper: error: the following arguments are required: command\n"
        assert run_cli() == (2, "", _USAGE + message)

    def test_unknown_command_exits_2(self, run_cli):
        choices = (
            "'validate', 'linearize', 'translate', 'question', 'declarativize', 'compare', 'canon', 'dot', 'prob', 'orders'"
        )
        message = f"synapper: error: argument command: invalid choice: 'frobnicate' (choose from {choices})\n"
        assert run_cli("frobnicate") == (2, "", _USAGE + message)

    def test_missing_required_option_exits_2(self, run_cli):
        usage = "usage: synapper linearize [-h] --profile PROFILE structure\n"
        message = "synapper linearize: error: the following arguments are required: --profile\n"
        assert run_cli("linearize", fixture_path("horse")) == (2, "", usage + message)

    def test_help_lists_every_command(self, run_cli):
        text = (
            _USAGE
            + "\nWork with closed-loop sentence structures.\n\n"
            "positional arguments:\n"
            "  command\n"
            "    validate     check a structure file and print OK\n"
            "    linearize    render a structure under a profile\n"
            "    translate    substitute lexemes and render under a profile\n"
            "    question     render the interrogative form\n"
            "    declarativize\n"
            "                 undo a question against its structure\n"
            "    compare      print SAME or DIFFERENT for two structures\n"
            "    canon        print the canonical one-line form\n"
            "    dot          print Graphviz source for a structure\n"
            "    prob         chance probability that n members line up\n"
            "    orders       render a structure in all six word orders\n\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
        )
        if sys.version_info >= (3, 13):
            # 3.13's argparse widens the help column to 19 so that "declarativize" fits on its line.
            text = re.sub(r"(?m)^(    \w+|  -h, --help) +", lambda m: f"{m[1]:<19}", text.replace("\n" + " " * 17, " "))
        assert run_cli("-h") == (0, text, "")

    def test_command_help_keeps_its_option_order(self, run_cli):
        assert run_cli("question", "-h") == (
            0,
            "usage: synapper question [-h] --profile PROFILE --wh WH structure\n\n"
            "positional arguments:\n  structure\n\n"
            "options:\n  -h, --help         show this help message and exit\n"
            "  --profile PROFILE\n  --wh WH            question word to add\n",
            "",
        )


class TestTableRead:
    """A call in row order is read from its command's row, with no argparse; the read declines every other argv."""

    @pytest.mark.parametrize("command", _COMMAND_NAMES)
    def test_every_short_tail_is_declined_or_read_as_argparse_reads_it(self, command):
        accepted, misread = tails_checked(command)
        assert misread == []
        # Five tokens of the alphabet do not start with "-"; two of them are
        # whole numbers. A tail of up to three tokens cannot hold the two
        # options and a positional that translate, question and declarativize need.
        expected = {"linearize": 25, "compare": 25, "prob": 2, "translate": 0, "question": 0, "declarativize": 0}
        assert accepted == expected.get(command, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_well_formed_call_over_free_text_is_read_from_the_table(self, data):
        """The read accepts a call exactly when each option keeps its row place and no value starts with "-"."""
        name, _, op, arguments = data.draw(st.sampled_from(cli._COMMANDS))
        text = st.text() | st.text().map("-".__add__)
        groups, given_values = [], []
        for arg, loader, _ in arguments:
            value = data.draw(st.integers(-10, 10**6) if loader == "int" else text)
            given_values.append((loader, value))
            groups.append([arg, str(value)] if arg.startswith("--") else [str(value)])
        order = data.draw(st.permutations(range(len(groups))))
        argv = [name, *(token for at in order for token in groups[at])]
        in_row_order = all(at == i for i, at in enumerate(order) if arguments[i][0].startswith("--"))
        well_formed = in_row_order and not any(str(value).startswith("-") for _, value in given_values)
        call = cli._table_read(argv)
        assert (call is not None) == well_formed
        if well_formed:
            assert call == argparse_call(argv)
        if well_formed and order == list(range(len(groups))):
            assert call == (op, given_values)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_COMMAND_NAMES), st.lists(st.sampled_from(ALPHABET) | st.text(), max_size=7))
    def test_any_tail_is_declined_or_read_as_argparse_reads_it(self, command, tail):
        assert read_as_argparse_reads([command, *tail])

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["frobnicate", "x.json"],
            ["validate"],
            ["validate", "a.json", "b.json"],
            ["validate", "x.json", "-h"],
            ["linearize", "x.json", "--profile"],
            ["linearize", "x.json", "--profile=p.json"],
            ["linearize", "x.json", "--prof", "p.json"],
            ["linearize", "x.json", "--profile", "p.json", "--profile", "p.json"],
            ["linearize", "--profile", "p.json", "x.json"],
            ["translate", "x.json", "--profile", "p.json", "--lexicon", "l.tsv"],
            ["question", "x.json", "--wh", "why", "--profile", "p.json"],
            ["linearize", "x.json", "--profile", "-"],
            ["linearize", "--profile", "p.json", "--", "x.json"],
            ["question", "x.json", "--profile", "p.json", "--wh", "why", "--bogus", "b"],
            ["prob", "-5"],
            ["prob", "five"],
        ],
    )
    def test_argparse_reads_every_other_form(self, argv):
        assert cli._table_read(argv) is None

    @pytest.mark.parametrize(
        "form",
        [
            [fixture_path("horse"), "--profile=" + profile_path("en")],
            [fixture_path("horse"), "--prof", profile_path("en")],
            [fixture_path("horse"), "--profile", profile_path("fr"), "--profile", profile_path("en")],
            ["--profile", profile_path("en"), fixture_path("horse")],
        ],
    )
    def test_a_form_argparse_reads_runs_as_the_well_formed_call(self, run_cli, form):
        assert cli._table_read(["linearize", *form]) is None
        assert run_cli("linearize", *form) == (0, "Jane has a very fast brown horse\n", "")

    def test_a_negative_number_reaches_the_op(self, run_cli):
        code, out, err = run_cli("prob", "-5")
        assert (code, out, json.loads(err)["error"]) == (1, "", "NTooSmallError")


class TestReadOrder:
    """Each command loads its arguments in its row's order, so the first bad one is the one reported."""

    def test_linearize_reports_a_bad_structure_before_a_bad_profile(self, run_cli):
        code, out, err = run_cli("linearize", "no_structure.json", "--profile", "no_profile.json")
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == "cannot read no_structure.json: No such file or directory"

    def test_question_reports_a_bad_profile_before_a_bad_wh_word(self, run_cli):
        code, out, err = run_cli("question", fixture_path("tim"), "--profile", "no_profile.json", "--wh", "")
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == "cannot read no_profile.json: No such file or directory"


def test_a_wrapper_set_on_the_cli_module_sees_each_layer_call(run_cli, monkeypatch):
    """The benchmark's tracer replaces module attributes, so the command table must not hold layer functions."""
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("parse_structure", "to_dot"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    code, out, _ = run_cli("dot", fixture_path("colette"))
    assert code == 0 and out.startswith("digraph")
    assert calls == ["parse_structure", "to_dot"]


def _run_synapper_process(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m synapper`` in a child process on the imported package.

    The child enters through ``cli.main``, the function the ``synapper``
    console script is wired to, so exit codes are the real process status.
    """
    return _run_python("-m", "synapper", *args)


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with these arguments in a child process that imports the same package."""
    env = dict(os.environ)
    src = str(Path(synapper.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_script_runs():
    proc = _run_synapper_process("prob", "10")
    assert proc.returncode == 0
    assert proc.stdout == "2.755732e-7 (1/3628800)\n"


@pytest.mark.parametrize("command", [["linearize", "--profile", profile_path("en")], ["orders"], ["dot"]])
def test_unencodable_output_is_one_report_and_no_output(command, tmp_path):
    # The in-process runner writes to a StringIO, which never encodes, so
    # only a real process shows a lone surrogate failing at the write.
    doc = json.loads((FIXTURES / "horse.json").read_text(encoding="utf-8"))
    doc["loop"]["members"][0]["node"][0]["surface"] = "\ud800x"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_synapper_process("validate", str(path)).stdout == "OK\n"
    proc = _run_synapper_process(command[0], str(path), *command[1:])
    assert (proc.returncode, proc.stdout) == (1, "")
    report = json.loads(proc.stderr)
    assert report["error"] == "SynapperError"
    assert report["message"].startswith("cannot write output: ")


def test_importing_the_cli_loads_no_number_tower():
    """decimal and fractions (and numbers, which both import) load only when as_fraction runs."""
    proc = _run_python(
        "-c",
        "import sys; before = set(sys.modules); import synapper.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "synapper.cli" in added
    assert not added & {"decimal", "_decimal", "_pydecimal", "fractions", "numbers"}


def test_importing_the_cli_loads_no_dataclasses_argparse_json_re_or_source_tools():
    """Without site, nothing but the package can load these.

    argparse (gettext, locale) is for help and usage errors; json is for an
    error report or a document the C scanner does not read whole, and re
    loads only with json or argparse.
    """
    proc = _run_python("-S", "-c", "import synapper.cli; import sys; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "synapper.cli" in loaded
    assert not loaded & {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "argparse", "gettext", "locale",
        "json", "json.decoder", "json.encoder", "json.scanner", "re",
    }


# One call per command, written in row order.
WELL_FORMED_CALLS = (
    ["validate", fixture_path("horse")],
    ["linearize", fixture_path("horse"), "--profile", profile_path("en")],
    ["translate", fixture_path("horse"), "--lexicon", lexicon_path("en-uz"), "--profile", profile_path("uz")],
    ["question", fixture_path("tim"), "--profile", profile_path("en"), "--wh", "why"],
    ["declarativize", fixture_path("tim"), "--profile", profile_path("en"),
     "--question", "Why is Tim going to the hospital"],
    ["compare", fixture_path("cena_a"), fixture_path("cena_b")],
    ["canon", fixture_path("horse")],
    ["dot", fixture_path("horse")],
    ["prob", "10"],
    ["orders", fixture_path("horse")],
)


def test_well_formed_calls_load_no_json():
    """Each command's well-formed call runs in one fresh child, without site; none of them loads json or decimal."""
    assert sorted(argv[0] for argv in WELL_FORMED_CALLS) == sorted(row[0] for row in cli._COMMANDS)
    child = (
        "import io, sys\n"
        "from synapper import cli\n"
        "for argv in eval(sys.argv[1]):\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = cli.run(argv)\n"
        "    sys.stdout = sys.__stdout__\n"
        "    print(argv[0], code, sorted({'json', 'decimal', '_decimal', 'numbers'} & set(sys.modules)))\n"
    )
    proc = _run_python("-S", "-c", child, repr(WELL_FORMED_CALLS))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 []" for argv in WELL_FORMED_CALLS]


def _readme_calls() -> list[tuple[list[str], str | None]]:
    """(arguments, the stdout a following "# " line gives, or None) for each call in README "CLI"'s sh block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## CLI\n") :]
    block = section[section.index("```sh\n") + 6 : section.index("\n```\n")]
    lines = block.replace("\\\n", "").splitlines()
    calls = []
    for line, after in zip(lines, [*lines[1:], ""]):
        if line.startswith("synapper "):
            output = after[2:] + "\n" if after.startswith("# ") else None
            calls.append((shlex.split(line, comments=True)[1:], output))
    return calls


README_CALLS = _readme_calls()


@pytest.mark.parametrize("argv, output", README_CALLS, ids=[" ".join(argv) for argv, _ in README_CALLS])
def test_each_readme_call_is_read_from_the_table_and_prints_its_output(run_cli, monkeypatch, argv, output):
    assert cli._table_read(argv) is not None
    if output is not None:
        monkeypatch.chdir(ROOT)
        assert run_cli(*argv) == (0, output, "")


def test_malformed_document_report(run_cli, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text('{"a" 1}', encoding="utf-8")
    assert run_cli("validate", str(path)) == (
        1,
        "",
        '{\n'
        '  "error": "MalformedSyntaxError",\n'
        '  "message": "line 1: invalid JSON: Expecting \':\' delimiter",\n'
        '  "line": 1\n'
        '}\n',
    )


def test_console_script_usage_error_exits_2():
    proc = _run_synapper_process()
    assert proc.returncode == 2


def test_console_script_entry_point_is_cli_main():
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["synapper"] == "synapper.cli:main"


def test_output_is_deterministic(run_cli):
    first = run_cli("linearize", fixture_path("space_news"), "--profile", profile_path("en-articles"))
    second = run_cli("linearize", fixture_path("space_news"), "--profile", profile_path("en-articles"))
    assert first == second
