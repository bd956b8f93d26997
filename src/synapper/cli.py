"""Command-line interface.

One subcommand per operation: validate, linearize, translate, question,
declarativize, compare, canon, dot, prob, orders. Each command is one
function from its parsed arguments to its whole stdout text, and ``run``
writes it. Failures print a JSON error report to stderr and exit 1; usage
errors exit 2. ``linearize`` and ``translate`` apply the profile's morpheme
rules; ``question``, ``declarativize`` and ``orders`` use the bare linearization.
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


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _writable(args.op(args))
    except SynapperError as e:
        sys.stderr.write(json.dumps(_error_report(e), indent=2, ensure_ascii=False) + "\n")
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


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


def _validate(args) -> str:
    parse_structure(_read(args.structure))
    return "OK\n"


def _linearize(args) -> str:
    p = parse_profile(_read(args.profile))
    sentence = apply_morpheme_rules(linearize(parse_structure(_read(args.structure)), p), p)
    return sentence.render() + "\n"


def _translate(args) -> str:
    s = parse_structure(_read(args.structure))
    lex = parse_lexicon(_read(args.lexicon))
    return translate(s, lex, parse_profile(_read(args.profile))).render() + "\n"


def _question(args) -> str:
    s = parse_structure(_read(args.structure))
    try:
        wh = wh_token(args.wh)
    except ValueError as exc:
        raise SynapperError(f"invalid wh word {args.wh!r}: must be one non-empty token") from exc
    return interrogativize(s, wh, parse_profile(_read(args.profile))).render() + "\n"


def _declarativize(args) -> str:
    skeleton = parse_structure(_read(args.structure))
    p = parse_profile(_read(args.profile))
    parse_question(args.question, skeleton, p)
    return linearize(skeleton, p).render() + "\n"


def _compare(args) -> str:
    same = structural_equal(parse_structure(_read(args.a)), parse_structure(_read(args.b)))
    return "SAME\n" if same else "DIFFERENT\n"


def _canon(args) -> str:
    return canonical_form(parse_structure(_read(args.structure))) + "\n"


def _dot(args) -> str:
    return to_dot(parse_structure(_read(args.structure)))


def _prob(args) -> str:
    import decimal

    denominator = chance_probability(args.n).denominator
    # 1/n! from the exact integer, rounded half to even to seven significant
    # digits; past n = 170 the float probability underflows.
    quotient = decimal.Context(prec=7).divide(decimal.Decimal(1), denominator)
    return f"{quotient:.6e} (1/{denominator})\n"


def _orders(args) -> str:
    s = parse_structure(_read(args.structure))
    lines = []
    for order in WordOrder:
        bare = LanguageProfile(name=order.value, word_order=order)
        lines.append(f"{order.name}: {linearize(s, bare).render()}\n")
    return "".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synapper",
        description="Work with closed-loop sentence structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    cmd = sub.add_parser("validate", help="check a structure file and print OK")
    cmd.add_argument("structure", help="path to a structure JSON file")
    cmd.set_defaults(op=_validate)

    cmd = sub.add_parser("linearize", help="render a structure under a profile")
    cmd.add_argument("structure")
    cmd.add_argument("--profile", required=True, help="path to a profile JSON file")
    cmd.set_defaults(op=_linearize)

    cmd = sub.add_parser("translate", help="substitute lexemes and render under a profile")
    cmd.add_argument("structure")
    cmd.add_argument("--lexicon", required=True, help="path to a TSV lexicon")
    cmd.add_argument("--profile", required=True)
    cmd.set_defaults(op=_translate)

    cmd = sub.add_parser("question", help="render the interrogative form")
    cmd.add_argument("structure")
    cmd.add_argument("--profile", required=True)
    cmd.add_argument("--wh", required=True, help="question word to add")
    cmd.set_defaults(op=_question)

    cmd = sub.add_parser("declarativize", help="undo a question against its structure")
    cmd.add_argument("structure")
    cmd.add_argument("--profile", required=True)
    cmd.add_argument("--question", required=True, help="the full question text")
    cmd.set_defaults(op=_declarativize)

    cmd = sub.add_parser("compare", help="print SAME or DIFFERENT for two structures")
    cmd.add_argument("a")
    cmd.add_argument("b")
    cmd.set_defaults(op=_compare)

    cmd = sub.add_parser("canon", help="print the canonical one-line form")
    cmd.add_argument("structure")
    cmd.set_defaults(op=_canon)

    cmd = sub.add_parser("dot", help="print Graphviz source for a structure")
    cmd.add_argument("structure")
    cmd.set_defaults(op=_dot)

    cmd = sub.add_parser("prob", help="chance probability that n members line up")
    cmd.add_argument("n", type=int)
    cmd.set_defaults(op=_prob)

    cmd = sub.add_parser("orders", help="render a structure in all six word orders")
    cmd.add_argument("structure")
    cmd.set_defaults(op=_orders)

    return parser


if __name__ == "__main__":
    main()
