"""Command-line interface.

Each command (validate, linearize, translate, question, declarativize,
compare, canon, dot, prob, orders) is one row of ``_COMMANDS``: its help, its
op and its arguments. An op takes the loaded argument values and returns the
command's whole stdout text. ``run`` reads a call written in row order
straight from its row: the command, then each argument as the row lists
it, a positional as its value and a required option as its name and value.
Any other argument list (``-h``, a usage error, options in another order,
or a form argparse reads in its own way, such as ``--profile=p``) goes to
argparse, which is imported only then and builds the parser of every
command. ``run`` loads the arguments in row order (so the first bad input
is the one reported), calls the op and writes its text. Failures print a
JSON error report to stderr and exit 1 (``json`` is imported only to write
it); usage errors exit 2. The table holds names, not functions: ops and
``_load`` look each layer function up in this module's globals when they
run, so a wrapper set on ``synapper.cli`` sees every call.
"""

from __future__ import annotations

import sys

from .chance import chance_probability
from .io_formats import (
    MalformedSyntaxError,
    parse_lexicon,
    parse_profile,
    parse_structure,
    to_dot,
)
from .linearize import linearize
from .model import (
    DocumentError,
    StructureValidationError,
    SynapperError,
    WordOrder,
    canonical_form,
    structural_equal,
)
from .profile import LanguageProfile
from .transform import interrogativize, parse_question, wh_token
from .translate import MissingLexemeError, apply_morpheme_rules, translate

# One row per command: (name, help, op, arguments). An argument is (name,
# loader, help), declared and loaded in this order; a name that starts with
# "--" is a required option. A loader is a file path to read and parse
# ("structure", "profile", "lexicon"), a WH word ("wh"), text as given
# ("text") or a whole number ("int", read by int() as argparse reads it).
_COMMANDS = (
    ("validate", "check a structure file and print OK", "_validate",
     (("structure", "structure", "path to a structure JSON file"),)),
    ("linearize", "render a structure under a profile", "_linearize",
     (("structure", "structure", None), ("--profile", "profile", "path to a profile JSON file"))),
    ("translate", "substitute lexemes and render under a profile", "_translate",
     (("structure", "structure", None), ("--lexicon", "lexicon", "path to a TSV lexicon"),
      ("--profile", "profile", None))),
    ("question", "render the interrogative form", "_question",
     (("structure", "structure", None), ("--profile", "profile", None), ("--wh", "wh", "question word to add"))),
    ("declarativize", "undo a question against its structure", "_declarativize",
     (("structure", "structure", None), ("--profile", "profile", None),
      ("--question", "text", "the full question text"))),
    ("compare", "print SAME or DIFFERENT for two structures", "_compare",
     (("a", "structure", None), ("b", "structure", None))),
    ("canon", "print the canonical one-line form", "_canon", (("structure", "structure", None),)),
    ("dot", "print Graphviz source for a structure", "_dot", (("structure", "structure", None),)),
    ("prob", "chance probability that n members line up", "_prob", (("n", "int", None),)),
    ("orders", "render a structure in all six word orders", "_orders", (("structure", "structure", None),)),
)


def run(argv: list[str] | None = None) -> int:
    try:
        text = _writable(_output(sys.argv[1:] if argv is None else argv))
    except SynapperError as e:
        import json

        sys.stderr.write(json.dumps(_error_report(e), indent=2, ensure_ascii=False) + "\n")
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


def _output(argv: list[str]) -> str:
    """The command's whole stdout text, or the SynapperError run reports; argparse exits 2 on a usage error."""
    op, given = _table_read(argv) or _argparse_read(argv)
    return globals()[op](*[_load(loader, text) for loader, text in given])


def _table_read(argv: list[str]):
    """(op, [(loader, text)] in row order) for a call written in row order, or None to leave argv to argparse.

    A call is read from the table when argv is its row written out: argv[0]
    names the row, then each of the row's arguments follows in row order, a
    positional as its value and an option as its name and then its value. No
    value may start with "-", and an int must be one int() reads. argparse
    reads such an argv into exactly these values; every other form (options
    in another order, -h, a usage error, --opt=value, an abbreviated or
    repeated option, --, a negative number) declines, so argparse reads it
    and writes its own texts.
    """
    row = next((row for row in _COMMANDS if argv and row[0] == argv[0]), None)
    if row is None:
        return None
    tail = iter(argv[1:])
    given = []
    for name, loader, _ in row[3]:
        if name.startswith("--") and next(tail, None) != name:
            return None
        text = next(tail, "-")  # a missing value declines
        if text.startswith("-"):
            return None
        if loader == "int":
            try:
                text = int(text)
            except ValueError:
                return None
        given.append((loader, text))
    if next(tail, None) is not None:
        return None
    return row[2], given


def _argparse_read(argv: list[str]):
    """_table_read's (op, [(loader, text)]) as argparse reads argv; argparse exits on -h and on a usage error."""
    args = _parser().parse_args(argv)
    return args.op, [(loader, getattr(args, name.lstrip("-"))) for name, loader, _ in args.arguments]


def _parser():
    """The argparse parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(prog="synapper", description="Work with closed-loop sentence structures.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, op, arguments in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(op=op, arguments=arguments)
        for arg, loader, arg_help in arguments:
            if arg.startswith("--"):
                cmd.add_argument(arg, required=True, help=arg_help)
            else:
                cmd.add_argument(arg, type=int if loader == "int" else None, help=arg_help)
    return parser


def _load(loader, text):
    """An argument's value: the file at the path text read and parsed, a WH token, or text (or an int) as read."""
    if loader == "structure":
        return parse_structure(_read(text))
    if loader == "profile":
        return parse_profile(_read(text))
    if loader == "lexicon":
        return parse_lexicon(_read(text))
    if loader == "wh":
        try:
            return wh_token(text)
        except ValueError as exc:
            raise SynapperError(f"invalid wh word {text!r}: must be one non-empty token") from exc
    return text


def _writable(text: str) -> str:
    """text, once stdout's encoding is known to take all of it, so that a failed write leaves stdout empty."""
    try:
        text.encode(sys.stdout.encoding or "utf-8", sys.stdout.errors or "strict")
    except UnicodeEncodeError as e:
        raise SynapperError(f"cannot write output: {e}") from None
    return text


def _error_report(e: SynapperError) -> dict:
    report: dict[str, object] = {"error": type(e).__name__, "message": str(e)}
    if isinstance(e, DocumentError):
        report["path"] = e.path
    if isinstance(e, MalformedSyntaxError):
        report["line"] = e.line
    if isinstance(e, StructureValidationError):
        report["issues"] = [
            {"code": i.code, "path": i.path, "message": i.message} for i in e.issues
        ]
    if isinstance(e, MissingLexemeError):
        report["pairs"] = [[surface, category.value] for surface, category in e.pairs]
    return report


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        reason = e.strerror or e
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 ({e.reason} at byte {e.start})"
    except ValueError as e:  # a path holding a NUL character
        reason = e
    raise SynapperError(f"cannot read {path}: {reason}")


def _validate(structure):
    return "OK\n"


def _linearize(structure, profile):
    return apply_morpheme_rules(linearize(structure, profile), profile).render() + "\n"


def _translate(structure, lexicon, profile):
    return translate(structure, lexicon, profile).render() + "\n"


def _question(structure, profile, wh):
    return interrogativize(structure, wh, profile).render() + "\n"


def _declarativize(skeleton, profile, question):
    parse_question(question, skeleton, profile)
    return linearize(skeleton, profile).render() + "\n"


def _compare(a, b):
    return "SAME\n" if structural_equal(a, b) else "DIFFERENT\n"


def _canon(structure):
    return canonical_form(structure) + "\n"


def _dot(structure):
    return to_dot(structure)


def _prob(n):
    denominator = chance_probability(n).denominator
    # 1/n! from the exact integer, rounded half to even to seven significant
    # digits, as decimal's divide at precision 7 rounds it; past n = 170 the
    # float probability underflows. With k the digit count of n!, which is
    # never a power of ten, 1/n! lies strictly between 10**-k and 10**(1-k),
    # so q holds its first seven digits. The largest they are for any accepted
    # n is 9992165 (n = 197), so rounding never carries into the exponent.
    digits = str(denominator)
    exponent = -len(digits)
    q, r = divmod(10 ** (6 - exponent), denominator)
    if 2 * r > denominator or (2 * r == denominator and q & 1):
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}e{exponent} (1/{digits})\n"


def _orders(structure):
    lines = []
    for order in WordOrder:
        bare = LanguageProfile(name=order.value, word_order=order)
        lines.append(f"{order.name}: {linearize(structure, bare).render()}\n")
    return "".join(lines)


if __name__ == "__main__":
    main()
