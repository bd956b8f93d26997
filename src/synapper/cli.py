"""Command-line interface.

Each command (validate, linearize, translate, question, declarativize,
compare, canon, dot, prob, orders) is one row of ``_COMMANDS``: its help, its
op and its arguments. An op takes the loaded argument values and returns the
command's whole stdout text. ``run`` builds the parser from the table, with
only the named command's subparser when the first argument names one, loads
the arguments in row order (so the first bad input is the one reported),
calls the op and writes its text. Failures print a JSON error report to
stderr and exit 1; usage errors exit 2. The table holds names, not
functions: ops and ``_load`` look each layer function up in this module's
globals when they run, so a wrapper set on ``synapper.cli`` sees every call.
"""

from __future__ import annotations

import argparse
import json
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
# ("text") or argparse's int ("int").
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
        sys.stderr.write(json.dumps(_error_report(e), indent=2, ensure_ascii=False) + "\n")
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


def _output(argv: list[str]) -> str:
    """The command's whole stdout text, or the SynapperError run reports; argparse exits 2 on a usage error."""
    args = _parser(argv[0] if argv else None).parse_args(argv)
    return globals()[args.op](*[_load(loader, getattr(args, name.lstrip("-"))) for name, loader, _ in args.arguments])


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of the command named, or of every command when none is."""
    parser = argparse.ArgumentParser(prog="synapper", description="Work with closed-loop sentence structures.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, op, arguments in [row for row in _COMMANDS if row[0] == command] or _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(op=op, arguments=arguments)
        for arg, loader, arg_help in arguments:
            if arg.startswith("--"):
                cmd.add_argument(arg, required=True, help=arg_help)
            else:
                cmd.add_argument(arg, type=int if loader == "int" else None, help=arg_help)
    return parser


def _load(loader, text):
    """An argument's value: the file at the path text read and parsed, a WH token, or text as argparse gave it."""
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
    import decimal

    denominator = chance_probability(n).denominator
    # 1/n! from the exact integer, rounded half to even to seven significant
    # digits; past n = 170 the float probability underflows.
    quotient = decimal.Context(prec=7).divide(decimal.Decimal(1), denominator)
    return f"{quotient:.6e} (1/{denominator})\n"


def _orders(structure):
    lines = []
    for order in WordOrder:
        bare = LanguageProfile(name=order.value, word_order=order)
        lines.append(f"{order.name}: {linearize(structure, bare).render()}\n")
    return "".join(lines)


if __name__ == "__main__":
    main()
