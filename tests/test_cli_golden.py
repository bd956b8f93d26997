"""Byte-for-byte CLI behaviour over every command × fixture × profile.

``cli_golden.json`` holds one case per line: the argument list, the exit
code, and the exact stdout and stderr. The matrix covers validate, canon,
dot and orders per fixture; linearize per fixture × profile; translate per
fixture × profile × lexicon; question per fixture × profile × WH word; a
declarativize of every question that succeeded, as printed and with one
word appended; and compare over every ordered fixture pair. ``prob`` is
left out; its output is tested against exact arithmetic in test_cli.py.

The same cases also go through ``run``'s dispatch without its write: parsing,
loading and the op return the whole stdout text, or raise the error ``run``
reports, and write nothing. Every case is a well-formed call, so each is also
run with argparse's parser made to fail: the command table reads them all.

When a change to the CLI's output is intended, regenerate the file from a
checkout with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from synapper import SynapperError, cli
from replay import GOLDEN, ROOT, run_case

WH_WORDS = ("why", "Why", "what is", "")
APPENDED_WORD = "today"


def _paths(directory: str, suffix: str) -> list[str]:
    return sorted(f"{directory}/{p.name}" for p in (ROOT / directory).glob(f"*{suffix}"))


def build_matrix(question_text) -> list[list[str]]:
    """Every case's argv; question_text(argv) is a question's printed line, or None if it failed."""
    fixtures = _paths("fixtures", ".json")
    profiles = _paths("profiles", ".json")
    lexicons = _paths("lexicons", ".tsv")
    cases: list[list[str]] = []
    for fx in fixtures:
        cases += [["validate", fx], ["canon", fx], ["dot", fx], ["orders", fx]]
        for pr in profiles:
            cases.append(["linearize", fx, "--profile", pr])
            cases += [["translate", fx, "--lexicon", lx, "--profile", pr] for lx in lexicons]
            for wh in WH_WORDS:
                question = ["question", fx, "--profile", pr, "--wh", wh]
                cases.append(question)
                text = question_text(question)
                if text is not None:
                    for variant in (text, f"{text} {APPENDED_WORD}"):
                        cases.append(["declarativize", fx, "--profile", pr, "--question", variant])
        cases += [["compare", fx, other] for other in fixtures]
    return cases


def _question_text(result: dict) -> str | None:
    return result["stdout"].rstrip("\n") if result["code"] == 0 else None


GOLDEN_CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_matrix_matches_the_golden_cases():
    recorded = {tuple(c["argv"]): c for c in GOLDEN_CASES}
    matrix = build_matrix(lambda argv: _question_text(recorded[tuple(argv)]))
    assert matrix == [c["argv"] for c in GOLDEN_CASES]


CASE_IDS = [f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN_CASES)]


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=CASE_IDS)
def test_cli_output_is_unchanged(case):
    assert run_case(case["argv"]) == case


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=CASE_IDS)
def test_each_op_returns_the_recorded_stdout(case):
    written = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(written), contextlib.redirect_stderr(written):
        if case["code"] == 0:
            assert cli._output(case["argv"]) == case["stdout"]
        else:
            with pytest.raises(SynapperError) as e:
                cli._output(case["argv"])
    assert written.getvalue() == ""
    if case["code"] != 0:
        assert json.dumps(cli._error_report(e.value), indent=2, ensure_ascii=False) + "\n" == case["stderr"]


def test_a_well_formed_call_builds_no_parser(monkeypatch):
    """Every case is read from the command table; argparse is only for help and usage errors."""

    def no_parser():
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(cli, "_parser", no_parser)
    assert [run_case(case["argv"]) for case in GOLDEN_CASES] == GOLDEN_CASES


def _regenerate() -> None:
    results: dict[tuple[str, ...], dict] = {}

    def question_text(argv: list[str]) -> str | None:
        results[tuple(argv)] = run_case(argv)
        return _question_text(results[tuple(argv)])

    cases = []
    for argv in build_matrix(question_text):
        cases.append(results.get(tuple(argv)) or run_case(argv))
    lines = ",\n".join(json.dumps(c, ensure_ascii=False) for c in cases)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
