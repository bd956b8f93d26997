"""Replay the CLI's golden cases and check the fast layers against the specification, with the standard library only.

It runs on every CPython the package claims, pytest or not::

    PYTHONPATH=src python tests/replay.py [TOKENS]

Six checks, each printed with its count:

- every case of ``cli_golden.json`` through ``cli.run`` in-process, from
  the repository root: exit code, stdout and stderr byte for byte;
- every bundled fixture and profile, and each of ``JSON_EDGE_TEXTS``: the
  JSON reader (``io_formats._loads``) gives what ``spec.loads`` gives
  (``json.loads``'s value, or the report its error makes);
- the fast layers give exactly what ``tests/spec.py`` gives. That is the
  read of each fixture document (value, or error type, path, message and
  issues); then, for every bundled fixture and every rotation of its main
  ring to another storage start (``rotate_main``): serialize_structure,
  canonical_form and to_dot, byte for byte; structural_equal with every
  fixture; and under every bundled profile linearize, the morpheme rules
  after it and the "why" question, as PlacedTokens, translate with the
  fixture's identity lexicon and with ``lexicons/en-uz.tsv`` (value, or
  the missing pairs), and parse_question and declarativize on each
  wh_rule's question and its near misses (``question_inputs``). Every
  valid clausal ring of 1 to 4 one-token members (``role_rings``) is
  linearized and asked "why" under the 18 bare profiles, one per word
  order and verb placement;
- the reader on every single fault of ``cena_b`` and ``colette``
  (``single_faults``: a key dropped, set or added with a ``PALETTE``
  value, or an array emptied), each as parsed and with every object a
  ``ReadOnlyMapping``: build_synapper gives exactly what
  ``spec.build_synapper`` gives, so every object its one test refuses is
  diagnosed as the checks in order diagnose it;
- each of the nine tag enums (``TAGS``), built by ``model._tag``: its
  ``_value2member_map_``, which the readers look text up in, is
  ``{member.value: member}`` in definition order, and each member's
  ``_value_``, which the writers write, is its ``value``; each member is
  itself in the class dict, ``T(value)`` gives it and a pickle round trip
  gives it back; its docstring is that of the same enum written as a
  class statement (``Twin``), and ``enum._test_simple_enum`` finds no
  other difference from it; the four model tags hash by identity
  (``object.__hash__``);
- for each command, every argument tail of up to ``TOKENS`` tokens (by
  default ``TAIL_TOKENS``) from ``ALPHABET``: the table read
  (``cli._table_read``) either declines it or reads it into exactly the
  values argparse reads it into. A tail of 5 tokens is the shortest that
  calls translate, question or declarativize.

It exits 1 if any case, text, comparison, read, enum or tail differs.
"""

from __future__ import annotations

import contextlib
import copy
import enum
import io
import itertools
import json
import pickle
import sys
from collections import UserString
from collections.abc import Mapping
from pathlib import Path

import spec
from synapper import (
    BranchSide, Category, Constituent, DocumentError, LanguageProfile, LinearSentence, Loop, LoopKind,
    MalformedDocumentError, MalformedSyntaxError, MissingLexemeError, MorphemeKind, PostOrder, Role,
    StructureValidationError, Synapper, SynapperError, Token, VerbPlacement, WhRule, WordOrder,
    apply_morpheme_rules, build_synapper, canonical_form, cli, declarativize, identity_lexicon, interrogativize,
    io_formats, linearize, parse_lexicon, parse_profile, parse_question, parse_structure, serialize_structure,
    structural_equal, to_dot, translate, wh_token,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")
TAIL_TOKENS = 3

# The enums whose members the readers find by text and the writers write as text.
TAGS = (WordOrder, Role, Category, LoopKind, WhRule, VerbPlacement, BranchSide, PostOrder, MorphemeKind)
# The four whose members hash by identity.
IDENTITY_HASHED = (WordOrder, Role, Category, LoopKind)


class Twin:
    """Each tag written as an ``enum.Enum`` class statement: what ``model._tag`` must build from the same body."""

    class WordOrder(enum.Enum):
        """A basic word order: the order of subject, verb and object."""

        __hash__ = object.__hash__
        SVO = "svo"
        SOV = "sov"
        VSO = "vso"
        VOS = "vos"
        OSV = "osv"
        OVS = "ovs"

    class Role(enum.Enum):
        """The role of a clausal loop's member."""

        __hash__ = object.__hash__
        SUBJECT = "subject"
        VERB = "verb"
        OBJECT = "object"

    class Category(enum.Enum):
        """The grammatical category of a token or a branch."""

        __hash__ = object.__hash__
        N = "N"
        V = "V"
        AUX = "AUX"
        ADJ = "ADJ"
        ADV = "ADV"
        DET = "DET"
        PRON = "PRON"
        PREP = "PREP"
        WH = "WH"
        ADJP = "ADJP"
        OTHER = "OTHER"

    class LoopKind(enum.Enum):
        """A loop's kind: clausal (with roles) or phrasal (with a head)."""

        __hash__ = object.__hash__
        CLAUSAL = "clausal"
        PHRASAL = "phrasal"

    class WhRule(enum.Enum):
        """Where a question puts its WH word, and whether it inverts."""

        INITIAL_WITH_INVERSION = "initial_inversion"
        INITIAL_NO_INVERSION = "initial_plain"
        PRE_SUBJECT = "pre_subject"

    class VerbPlacement(enum.Enum):
        """Where the verb goes: by the word order, first (V1) or second (V2)."""

        DEFAULT = "default"
        V1 = "v1"
        V2 = "v2"

    class BranchSide(enum.Enum):
        """The side of its node a branch is placed on."""

        PRE = "pre"
        POST = "post"

    class PostOrder(enum.Enum):
        """The order of the branches placed after their node."""

        SOURCE = "source"
        REVERSED = "reversed"

    class MorphemeKind(enum.Enum):
        """The kind of a morpheme rule's rewrite."""

        DROP_CATEGORY = "drop_category"
        INSERT_BEFORE = "insert_before"
        INSERT_AFTER = "insert_after"
        SUFFIX_ON_ROLE = "suffix_on_role"


TWINS = tuple(getattr(Twin, tags.__name__) for tags in TAGS)

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
    """call(*args), or its error: (type, path, message), for a StructureValidationError (type, its issues
    in order), for a MissingLexemeError (type, pairs, message), for any other SynapperError (type, message)."""
    try:
        return call(*args)
    except StructureValidationError as e:
        return StructureValidationError, e.issues
    except DocumentError as e:
        return type(e), e.path, e.message
    except MissingLexemeError as e:
        return MissingLexemeError, e.pairs, str(e)
    except SynapperError as e:
        return type(e), str(e)


class ReadOnlyMapping(Mapping):
    """A Mapping that is not a dict, so readers must take the ABC route."""

    def __init__(self, items):
        self._items = items

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class Text(str):
    """Text of a str subclass, which the readers read as they read the same str."""


def wrap_mappings(value, choose):
    """value with each dict in it made a ReadOnlyMapping where choose() says so."""
    if isinstance(value, list):
        return [wrap_mappings(v, choose) for v in value]
    if isinstance(value, dict):
        items = {k: wrap_mappings(v, choose) for k, v in value.items()}
        return ReadOnlyMapping(items) if choose() else items
    return value


# Keys of every object in a structure document.
SCHEMA_KEYS = [
    "label", "word_order", "surface_subject_final", "loop", "kind", "head_index",
    "members", "role", "node", "branches", "surface", "category", "tokens",
]

# Values for the single-fault sweep: wrong types, bad and misplaced enum
# text, a str subclass's enum text and a str-like object's that is no str, a
# surface breaking the surface rule, a bytes surface, small valid parts, and
# a token, a branch and a member each broken twice, so the order of the
# checks shows.
PALETTE = [
    0, 1, 2, -1, True, None, "", "a b", "NOUN", "phrasal", "subject", "N", Text("N"), UserString("N"), b"x", [], {},
    [{"surface": "x", "category": "N"}],
    [{"category": "ADJ", "tokens": [{"surface": "y", "category": "ADJ"}]}],
    {"kind": "phrasal", "members": [{"node": [{"surface": "x", "category": "N"}]}]},
    [{"surface": 1, "category": 1}],
    [{"category": 1, "tokens": 1}],
    [{"role": 1, "node": [], "loop": {}}],
]


def places(value, at=()):
    """(key path, value) of value and of everything inside it."""
    yield at, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from places(child, at + (key,))


_DROP = object()


def single_faults(doc):
    """Copies of doc with one change: a key dropped, set or added with a PALETTE value, or an array emptied."""
    text = json.dumps(doc)
    for at, place in places(doc):
        if isinstance(place, dict):
            edits = [(key, _DROP) for key in place] + [(key, v) for key in SCHEMA_KEYS for v in PALETTE]
        elif isinstance(place, list) and place:
            edits = [(slice(None), [])]
        else:
            continue
        for key, value in edits:
            faulty = json.loads(text)
            target = faulty
            for step in at:
                target = target[step]
            if value is _DROP:
                del target[key]
            else:
                target[key] = copy.deepcopy(value)
            yield faulty


def fault_checks() -> list[tuple[str, bool]]:
    """(which read, whether build_synapper gives what spec gives) for every single fault of two fixtures,
    each read as it is and with every object a ReadOnlyMapping."""
    checks = []
    for name in ("cena_b", "colette"):
        doc = json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
        for n, faulty in enumerate(single_faults(doc)):
            for how, variant in ("plain", faulty), ("wrapped", wrap_mappings(faulty, lambda: True)):
                agrees = outcome(build_synapper, variant) == outcome(spec.build_synapper, variant)
                checks.append((f"{name} fault {n} {how}", agrees))
    return checks


def rotate_main(s: Synapper, k: int) -> Synapper:
    """Same ring, different storage starting index."""
    members = s.main.members
    n = len(members)
    k %= n
    rotated = members[k:] + members[:k]
    head = s.main.head_index
    if s.main.kind is LoopKind.PHRASAL:
        head = (head - k) % n
    main = Loop(kind=s.main.kind, members=rotated, head_index=head)
    return Synapper(label=s.label, word_order=s.word_order, main=main)


def role_rings() -> dict[str, Synapper]:
    """Every valid clausal main loop of 1 to 4 one-token members, by its roles: one verb, one subject
    unless the verb is alone, objects in the other places. The token of member i is wi."""
    rings = {}
    for n in range(1, 5):
        for roles in dict.fromkeys(itertools.permutations([Role.VERB, Role.SUBJECT, Role.OBJECT, Role.OBJECT][:n])):
            members = tuple(Constituent(role, (Token(f"w{i}", Category.N),)) for i, role in enumerate(roles))
            name = " ".join(role.value for role in roles)
            rings[name] = Synapper("", WordOrder.SVO, Loop(LoopKind.CLAUSAL, members))
    return rings


def bare_profiles() -> list[LanguageProfile]:
    """One profile per word order and verb placement, with nothing else set."""
    return [LanguageProfile(f"{o.value}-{v.value}", o, v) for o in WordOrder for v in VerbPlacement]


def question_inputs(s: Synapper, p: LanguageProfile) -> tuple[list[str], list[tuple]]:
    """(texts, PlacedToken sequences) to read as questions of s under p: the question under each wh_rule
    (p's own among them), and each with its WH word left out, moved to the end, spaced or doubled; every
    text as rendered, in lower case and with one word more."""
    sentences = []
    for rule in WhRule:
        asked = LanguageProfile(p.name, p.word_order, p.verb_placement, p.branch_rules, rule, p.morpheme_rules)
        q = spec.interrogativize(s, wh_token("Why"), asked)
        at = [pt.category for pt in q].index(Category.WH)
        before, wh, after = q[:at], q[at], q[at + 1 :]
        sentences += [q, before + after, before + after + (wh,), before + (wh._replace(surface="why not"),) + after]
        sentences.append(before + (wh, wh) + after)
    texts = []
    for q in sentences:
        text = LinearSentence(q).render()
        texts += [text, text.lower(), text + " too"]
    return texts, sentences


def structure_comparisons(name: str, s: Synapper, structures: dict, profiles: dict, lexicons: dict) -> list:
    """spec_comparisons' checks on one structure s, named name."""
    writers = serialize_structure, canonical_form, to_dot
    checks = [(f"{write.__name__} {name}", write(s) == getattr(spec, write.__name__)(s)) for write in writers]
    for other, t in structures.items():
        checks.append((f"structural_equal {name} {other}", structural_equal(s, t) == spec.structural_equal(s, t)))
    why = wh_token("why")
    for pname, p in profiles.items():
        sentence, expected, question = linearize(s, p), spec.linearize(s, p), spec.interrogativize(s, why, p)
        asked = interrogativize(s, why, p)
        back = outcome(declarativize, asked, s, p)
        checks += [
            (f"linearize {name} {pname}", sentence.placed == expected),
            (f"rules {name} {pname}", apply_morpheme_rules(sentence, p).placed == spec.apply_morpheme_rules(expected, p)),
            (f"why {name} {pname}", asked.placed == question),
            (f"declarativize why {name} {pname}", back == outcome(spec.declarativize, question, s, p)),
        ]
        for lname, lex in {"identity": identity_lexicon(s), **lexicons}.items():
            translated = outcome(lambda: translate(s, lex, p).placed)
            to_spec = outcome(lambda: spec.apply_morpheme_rules(spec.linearize(spec.substitute_lexemes(s, lex), p), p))
            checks.append((f"translate {name} {lname} {pname}", translated == to_spec))
        texts, sentences = question_inputs(s, p)
        for text in texts:
            read = outcome(lambda: parse_question(text, s, p).placed)
            checks.append((f"parse_question {name} {pname} {text!r}", read == outcome(spec.parse_question, text, s, p)))
        for q in sentences:
            back = outcome(declarativize, LinearSentence(q), s, p)
            checks.append((f"declarativize {name} {pname} {q}", back == outcome(spec.declarativize, q, s, p)))
    return checks


def spec_comparisons() -> list[tuple[str, bool]]:
    """(what was compared, whether the fast layer gave what spec gives) over the bundled fixtures, their
    rotations and the role rings, under the bundled profiles and lexicon and the bare profiles."""
    def read_all(folder: str, pattern: str, parse) -> dict:
        return {path.stem: parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / folder).glob(pattern))}

    texts = read_all("fixtures", "*.json", str)
    checks = [(f"read {name}", outcome(parse_structure, text) == outcome(spec.parse_structure, text)) for name, text in texts.items()]
    structures = {name: parse_structure(text) for name, text in texts.items() if name != "bad_two_subjects"}
    profiles, lexicons = read_all("profiles", "*.json", parse_profile), read_all("lexicons", "*.tsv", parse_lexicon)
    for name, s in structures.items():
        for k in range(len(s.main.members)):
            turned = f"{name} turned {k}" if k else name
            checks += structure_comparisons(turned, rotate_main(s, k), structures, profiles, lexicons)
    why = wh_token("why")
    for name, s in role_rings().items():
        for p in bare_profiles():
            checks += [
                (f"linearize {name} {p.name}", linearize(s, p).placed == spec.linearize(s, p)),
                (f"why {name} {p.name}", interrogativize(s, why, p).placed == spec.interrogativize(s, why, p)),
            ]
    return checks


def is_twin(tags: type[enum.Enum], twin: type[enum.Enum]) -> bool:
    """Whether ``enum._test_simple_enum`` finds no difference between tags and twin."""
    try:
        enum._test_simple_enum(twin, tags)
    except TypeError:
        return False
    return True


def round_trips(member: enum.Enum) -> bool:
    """Whether pickling member, in the oldest and the newest protocol, gives member back."""
    try:
        return all(pickle.loads(pickle.dumps(member, p)) is member for p in (0, pickle.HIGHEST_PROTOCOL))
    except pickle.PicklingError:
        return False


def tag_checks() -> list[tuple[str, bool]]:
    """(enum: property, whether it holds) for each tag and each property its readers, writers and users rely on."""
    checks = []
    for tags, twin in zip(TAGS, TWINS):
        members = list(tags)
        properties = {
            # The readers look text up in _value2member_map_; the writers write _value_.
            "text map": [*tags._value2member_map_.items()] == [(m.value, m) for m in members]
            == [(m._value_, m) for m in members],
            # Role.VERB is a class-dict hit, with no descriptor frame.
            "class dict": all(tags.__dict__.get(m.name) is m for m in members),
            "by value": all(tags(m.value) is m for m in members),
            "pickle": all(map(round_trips, members)),
            "doc": twin.__doc__ is not None and tags.__doc__ == twin.__doc__,
            "twin": is_twin(tags, twin),
        }
        if tags in IDENTITY_HASHED:
            properties["hash"] = tags.__hash__ is object.__hash__
        checks += [(f"{tags.__name__}: {name}", holds) for name, holds in properties.items()]
    return checks


def run_case(argv: list[str]) -> dict:
    """Run the CLI in-process from the repository root and capture everything it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
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
    faults = fault_checks()
    misreads = [what for what, agrees in faults if not agrees]
    print(f"reader: {len(faults) - len(misreads)} of {len(faults)} single-fault reads agree with the spec")
    for what in misreads:
        print(f"  disagrees: {what}")
    tags = tag_checks()
    unlike = [what for what, holds in tags if not holds]
    print(f"tags: {len(tags) - len(unlike)} of {len(tags)} enum properties hold")
    for what in unlike:
        print(f"  differs: {what}")
    misread_in_all = []
    for name, *_ in cli._COMMANDS:
        accepted, misread = tails_checked(name, tokens)
        misread_in_all += misread
        print(f"{name}: {accepted} tails of up to {tokens} tokens read from the table, {len(misread)} misread")
    for argv in misread_in_all:
        print(f"  misread: {argv}")
    failed = differing or misread_texts or disagreeing or misreads or unlike or misread_in_all
    print(sys.version.split()[0], "FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else TAIL_TOKENS))
