"""Replay the CLI's golden cases and check the fast layers against the specification, with the standard library only.

It runs on every CPython the package claims, pytest or not::

    PYTHONPATH=src python tests/replay.py [TOKENS]

Four checks, each printed with its count:

- every case of ``cli_golden.json`` through ``cli.run`` in-process, from
  the repository root: exit code, stdout and stderr byte for byte;
- every bundled fixture and profile, and each of ``JSON_EDGE_TEXTS``: the
  JSON reader (``io_formats._loads``) gives what ``spec.loads`` gives
  (``json.loads``'s value, or the report its error makes);
- every bundled fixture under every bundled profile: the fast layers give
  exactly what ``tests/spec.py`` gives. That is the read of each fixture
  document (value, or error type, path, message and issues); linearize,
  the morpheme rules after it and the "why" question, as PlacedTokens;
  serialize_structure, canonical_form and to_dot, byte for byte; and
  structural_equal over every pair of fixtures;
- for each command, every argument tail of up to ``TOKENS`` tokens (by
  default ``TAIL_TOKENS``) from ``ALPHABET``: the table read
  (``cli._table_read``) either declines it or reads it into exactly the
  values argparse reads it into. A tail of 5 tokens is the shortest that
  calls translate, question or declarativize.

It exits 1 if any case, text, comparison or tail differs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from collections import Counter
from pathlib import Path

import spec
from synapper import (
    DocumentError, MalformedDocumentError, MalformedSyntaxError, StructureValidationError, apply_morpheme_rules,
    canonical_form, cli, interrogativize, io_formats, linearize, parse_profile, parse_structure, serialize_structure,
    structural_equal, to_dot, wh_token,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
TAIL_TOKENS = 3

# Tokens a tail is made from: a path, empty text, text with a space, the
# forms argparse reads in its own way (a lone dash, a negative number,
# "--", help in full and abbreviated, --opt=value, an abbreviated, an
# unknown and a spaced option), a number int() reads only once stripped,
# and every option some command declares.
ALPHABET = (
    "x.json", "", "what is", "-", "-5", "10", " 7 ", "--", "-h", "--help", "--he",
    *sorted({name for row in cli._COMMANDS for name, _, _ in row[3] if name.startswith("--")}),
    "--profile=p", "--prof", "--bogus", "-x y",
)

# Texts at the edges of JSON: no value, a second byte order mark, whitespace
# json does not skip (vertical tab, form feed, no-break space), a trailing
# comma, a raw control character, a missing colon, the three constants, an
# int longer than int() reads and nesting deeper than older decoders hold.
JSON_EDGE_TEXTS = (
    "", " \t\n\r", "\ufeff\ufeff{}", "{}\x0b", "\x0c{}", "{}\xa0", "[1,]", '"\x01"', '{"a" 1}',
    "NaN", "Infinity", "-Infinity", "1" * 5000, "[" * 3000 + "]" * 3000,
)


def loads_outcome(text: str, read=io_formats._loads) -> tuple:
    """What a JSON reader gives for text: ("value", the value's repr), or (error type, line or path, message)."""
    try:
        return "value", repr(read(text))
    except MalformedSyntaxError as e:
        return MalformedSyntaxError, e.line, str(e)
    except MalformedDocumentError as e:
        return MalformedDocumentError, e.path, e.message


def json_outcome(text: str) -> tuple:
    """loads_outcome as the specification gives it: json.loads's value after one byte order mark, or its error's report."""
    return loads_outcome(text, spec.loads)


def outcome(call, *args):
    """call(*args), or its error: (type, path, message), or for a StructureValidationError (type, Counter of issues)."""
    try:
        return call(*args)
    except StructureValidationError as e:
        return StructureValidationError, Counter(e.issues)
    except DocumentError as e:
        return type(e), e.path, e.message


def spec_comparisons() -> list[tuple[str, bool]]:
    """(what was compared, whether the fast layer gave what spec gives) over the bundled fixtures and profiles."""
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted((ROOT / "fixtures").glob("*.json"))}
    checks = [(f"read {name}", outcome(parse_structure, text) == outcome(spec.parse_structure, text)) for name, text in texts.items()]
    structures = {name: parse_structure(text) for name, text in texts.items() if name != "bad_two_subjects"}
    profiles = {path.stem: parse_profile(path.read_text(encoding="utf-8")) for path in (ROOT / "profiles").glob("*.json")}
    why = wh_token("why")
    for name, s in structures.items():
        for write in serialize_structure, canonical_form, to_dot:
            checks.append((f"{write.__name__} {name}", write(s) == getattr(spec, write.__name__)(s)))
        for other, t in structures.items():
            checks.append((f"structural_equal {name} {other}", structural_equal(s, t) == spec.structural_equal(s, t)))
        for pname, p in profiles.items():
            sentence, expected = linearize(s, p), spec.linearize(s, p)
            checks += [
                (f"linearize {name} {pname}", sentence.placed == expected),
                (f"rules {name} {pname}", apply_morpheme_rules(sentence, p).placed == spec.apply_morpheme_rules(expected, p)),
                (f"why {name} {pname}", interrogativize(s, why, p).placed == spec.interrogativize(s, why, p)),
            ]
    return checks


def run_case(argv: list[str]) -> dict:
    """Run the CLI in-process from the repository root and capture everything it prints."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def argparse_call(argv: list[str]):
    """What argparse reads argv into, in the table read's shape, or None where it prints help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._argparse_read(argv)
        except SystemExit:
            return None


def read_as_argparse_reads(argv: list[str]) -> bool:
    """Whether the table read of argv, if it accepts argv, gives argparse's values."""
    call = cli._table_read(argv)
    return call is None or call == argparse_call(argv)


def tails_checked(command: str, tokens: int = TAIL_TOKENS) -> tuple[int, list[list[str]]]:
    """(how many argvs of command and up to tokens ALPHABET tokens the table read accepts, the argvs it misreads)."""
    accepted, misread = 0, []
    for size in range(tokens + 1):
        for tail in itertools.product(ALPHABET, repeat=size):
            argv = [command, *tail]
            accepted += cli._table_read(argv) is not None
            if not read_as_argparse_reads(argv):
                misread.append(argv)
    return accepted, misread


def main(tokens: int) -> int:
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differing = [case["argv"] for case in cases if run_case(case["argv"]) != case]
    print(f"golden cases: {len(cases) - len(differing)} of {len(cases)} unchanged")
    for argv in differing:
        print(f"  differs: {argv}")
    documents = sorted([*(ROOT / "fixtures").glob("*.json"), *(ROOT / "profiles").glob("*.json")])
    texts = [path.read_text(encoding="utf-8") for path in documents] + list(JSON_EDGE_TEXTS)
    misread_texts = [text for text in texts if loads_outcome(text) != json_outcome(text)]
    print(f"json reader: {len(texts) - len(misread_texts)} of {len(texts)} texts read as json.loads reads them")
    for text in misread_texts:
        print(f"  misread: {text[:60]!r}")
    checks = spec_comparisons()
    disagreeing = [what for what, agrees in checks if not agrees]
    print(f"spec: {len(checks) - len(disagreeing)} of {len(checks)} comparisons agree")
    for what in disagreeing:
        print(f"  disagrees: {what}")
    misread_in_all = []
    for name, *_ in cli._COMMANDS:
        accepted, misread = tails_checked(name, tokens)
        misread_in_all += misread
        print(f"{name}: {accepted} tails of up to {tokens} tokens read from the table, {len(misread)} misread")
    for argv in misread_in_all:
        print(f"  misread: {argv}")
    failed = differing or misread_texts or disagreeing or misread_in_all
    print(sys.version.split()[0], "FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else TAIL_TOKENS))
