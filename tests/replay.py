"""Replay the CLI's golden cases and check its table read against argparse, with the standard library only.

It runs on every CPython the package claims, pytest or not::

    PYTHONPATH=src python tests/replay.py [TOKENS]

Two checks, each printed with its count:

- every case of ``cli_golden.json`` through ``cli.run`` in-process, from
  the repository root: exit code, stdout and stderr byte for byte;
- for each command, every argument tail of up to ``TOKENS`` tokens (by
  default ``TAIL_TOKENS``) from ``ALPHABET``: the table read
  (``cli._table_read``) either declines it or reads it into exactly the
  values argparse reads it into. A tail of 5 tokens is the shortest that
  calls translate, question or declarativize.

It exits 1 if any case or tail differs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from synapper import cli

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
    misread_in_all = []
    for name, *_ in cli._COMMANDS:
        accepted, misread = tails_checked(name, tokens)
        misread_in_all += misread
        print(f"{name}: {accepted} tails of up to {tokens} tokens read from the table, {len(misread)} misread")
    for argv in misread_in_all:
        print(f"  misread: {argv}")
    print(sys.version.split()[0], "PASS" if not differing and not misread_in_all else "FAIL")
    return 1 if differing or misread_in_all else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else TAIL_TOKENS))
