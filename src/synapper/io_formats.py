"""Reading and writing the on-disk formats.

Structures and language profiles are JSON documents with a fixed, strictly
checked vocabulary of keys; lexicons are three-column TSV. JSON is read by
the C scanner that ``json.loads`` runs, with ``json.loads``'s settings, and
``json`` itself is imported only when that read fails, so that every error
is ``json.loads``'s own. Serialization is byte-deterministic: the same
structure always produces the same text, with keys in a fixed order and
members and branches in stored order, which re-parsing keeps. The structure
writer takes every indent, separator and key it writes from one
module-level table with an entry per loop depth, filled the first time that
depth is written; only the label, the surfaces and enum text are read from the
structure. ``to_dot`` renders a structure as a Graphviz digraph: one box
per node, branch edges pointing into their node, ring edges following the
stored clockwise order, and nested loops as clusters.
"""

from __future__ import annotations

from _json import encode_basestring, make_scanner
from itertools import pairwise

TYPE_CHECKING = False
if TYPE_CHECKING:
    from enum import Enum
    from typing import Any

    from .model import Loop, Synapper, Token

from .model import (
    Category,
    LoopKind,
    MAX_DEPTH,
    MalformedDocumentError,
    Role,
    SynapperError,
    _CATEGORIES,
    _check_keys,
    _expect_str,
    _join,
    _schema_keys,
    _word_order,
    build_synapper,
)
from .profile import (
    BranchPlacementRule,
    BranchSide,
    LanguageProfile,
    MorphemeKind,
    MorphemeRule,
    PostOrder,
    VerbPlacement,
    WhRule,
)
from .translate import Lexicon, _target_token


class MalformedSyntaxError(SynapperError):
    """Text that is not even parseable; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class _Decoding:
    """The settings json.loads decodes with (``json.JSONDecoder()``'s), as the C scanner reads them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}.__getitem__


_scan = make_scanner(_Decoding)
_JSON_WHITESPACE = " \t\n\r"


def _loads(text: str) -> Any:
    """The JSON value of text, which may start with one byte order mark.

    The value is scanned from the first character that is not JSON
    whitespace and kept when nothing but JSON whitespace follows it: what
    json.loads reads, by the scanner it runs. Any other text goes to
    json.loads, which raises its own error for it.
    """
    text = text.removeprefix("\ufeff")
    try:
        value, end = _scan(text, len(text) - len(text.lstrip(_JSON_WHITESPACE)))
        if not text[end:].lstrip(_JSON_WHITESPACE):
            return value
    except Exception:
        # Every scan error is json.loads's to report. Before 3.12 the scanner
        # reports a syntax error as a SystemError while json is not loaded.
        pass
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedSyntaxError(f"invalid JSON: {e.msg}", e.lineno) from None
    except RecursionError:
        # Nesting past the decoder's depth limit. Its own text names the
        # container the limit falls in, which depends on the caller's stack
        # depth, so the report is one fixed text.
        raise MalformedDocumentError("", "unreadable JSON: nested too deeply to decode") from None
    except ValueError as e:
        # An integer longer than Python's int conversion allows.
        raise MalformedDocumentError("", f"unreadable JSON: {e}") from None


def parse_structure(text: str) -> Synapper:
    return build_synapper(_loads(text))


def serialize_structure(s: Synapper) -> str:
    """The structure as 2-space-indented JSON text ending in a newline.

    Written directly for the fixed schema; the text is byte-for-byte what
    ``json.dumps(doc, indent=2, ensure_ascii=False)`` gives for the same
    document. Free text (label, surfaces) goes through ``json``'s own C
    escaper; enum text is each member's own ``_value_``, fixed ASCII written as it is.
    """
    out = ["{\n"]
    if s.label:
        out += ['  "label": ', encode_basestring(s.label), ",\n"]
    out += ['  "word_order": "', s.word_order._value_, '",\n']
    out.append('  "loop": ')
    _emit_loop(s.main, "\n  ", out)
    out.append("\n}\n")
    return "".join(out)


# Every separator and indent the emitters write depends only on the depth of
# the loop being written, so each is worked out once per process: nl (a
# newline plus the loop's first indent) -> that depth's layout. _emit_loop
# fills an entry the first time it writes a depth. Entries hold whitespace and
# fixed key text only, never a label or a surface, and there is one per depth
# up to MAX_DEPTH; a deeper code-built loop is laid out on each call instead.
_LAYOUTS = {}


def _emit_loop(loop: Loop, nl: str, out: list[str]) -> None:
    layout = _LAYOUTS.get(nl)
    if layout is None:
        inner = nl + "  "
        item = inner + "  "
        field = item + "  "
        branch = field + "  "
        heads = {None: item + "{" + field}
        for text, role in Role._value2member_map_.items():
            heads[role] = f'{item}{{{field}"role": "{text}",{field}'
        # The members' node arrays and the branches' token arrays, each
        # written after its key at its own indent: the whole empty array, the
        # opening of the first token and of every next one (each ending at
        # the surface), the text between surface and category, and the
        # array's closing; so each token takes one ``out +=``.
        arrays = []
        for key, at in ('"node": ', field), ('"tokens": ', branch + "  "):
            opening = f'{at}  {{{at}    "surface": '
            closing = f'"{at}  }}'
            middle = f',{at}    "category": "'
            arrays += [key + "[]", f"{key}[{opening}", f"{closing},{opening}", middle, closing + at + "]"]
        layout = (
            f'{{{inner}"kind": "clausal",{inner}"members": ',
            f'{{{inner}"kind": "phrasal",{inner}"head_index": ',
            f',{inner}"members": ',
            heads,
            field,
            f"{item}}},",
            f',{field}"branches": [{branch}{{{branch}  "category": "',
            f'{branch}}},{branch}{{{branch}  "category": "',
            f'",{branch}  ',
            f"{branch}}}{field}]",
            *arrays,
            f"{item}}}{inner}]{nl}}}",
            f"[]{nl}}}",
        )
        if len(_LAYOUTS) < MAX_DEPTH:
            _LAYOUTS[nl] = layout
    (
        clausal, phrasal, members, heads, field, next_member, first_branch, next_branch, category_end,
        branches_end, no_node, node_first, node_next, node_middle, node_end,
        no_tokens, tokens_first, tokens_next, tokens_middle, tokens_end, end, empty_end,
    ) = layout
    if loop.kind is LoopKind.PHRASAL:
        out.append(f"{phrasal}{loop.head_index}{members}")
    else:
        out.append(clausal)
    sep = "["
    for c in loop.members:
        out += [sep, heads[c.role]]
        if c.node is not None:
            if c.node:
                token_sep = node_first
                for t in c.node:
                    out += [token_sep, encode_basestring(t.surface), node_middle, t.category._value_]
                    token_sep = node_next
                out.append(node_end)
            else:
                out.append(no_node)
        else:
            out.append('"loop": ')
            _emit_loop(c.loop, field, out)  # type: ignore[arg-type]
        if c.branches:
            branch_sep = first_branch
            for b in c.branches:
                out += [branch_sep, b.category._value_, category_end]
                if b.tokens:
                    token_sep = tokens_first
                    for t in b.tokens:
                        out += [token_sep, encode_basestring(t.surface), tokens_middle, t.category._value_]
                        token_sep = tokens_next
                    out.append(tokens_end)
                else:
                    out.append(no_tokens)
                branch_sep = next_branch
            out.append(branches_end)
        sep = next_member
    out.append(end if loop.members else empty_end)


_PROFILE_REQUIRED = _schema_keys("name", "word_order", "wh_rule")
_PROFILE_KEYS = frozenset({*_PROFILE_REQUIRED, "verb_placement", "branch_rules", "morpheme_rules"})
_BRANCH_RULE_REQUIRED = _schema_keys("category", "side")
_BRANCH_RULE_KEYS = frozenset({*_BRANCH_RULE_REQUIRED, "post_order"})
_MORPHEME_RULE_REQUIRED = _schema_keys("kind", "selector")
_MORPHEME_RULE_KEYS = frozenset({*_MORPHEME_RULE_REQUIRED, "payload", "ordinal"})


def parse_profile(text: str) -> LanguageProfile:
    raw = _loads(text)
    obj = _check_keys(raw, _PROFILE_REQUIRED, _PROFILE_KEYS, str)
    name = _expect_str(obj["name"], "name")
    if not name:
        raise MalformedDocumentError("name", "profile name must be non-empty")
    word_order = _word_order(obj["word_order"])
    wh_rule = _enum_value(WhRule, obj["wh_rule"], "wh_rule")
    placement = _enum_value(VerbPlacement, obj.get("verb_placement", "default"), "verb_placement")
    return LanguageProfile(
        name=name,
        word_order=word_order,
        verb_placement=placement,
        branch_rules=_parse_branch_rules(obj.get("branch_rules", [])),
        wh_rule=wh_rule,
        morpheme_rules=_parse_morpheme_rules(obj.get("morpheme_rules", [])),
    )


def _enum_value(tags: type[Enum], value: object, path: str) -> Any:
    """The member of tags whose text is value; an unknown text's error lists every option in definition order."""
    text = _expect_str(value, path)
    member = tags._value2member_map_.get(text)
    if member is None:
        options = ", ".join(tags._value2member_map_)
        raise MalformedDocumentError(path, f"unknown value {text!r} (expected one of: {options})")
    return member


def _parse_branch_rules(raw: object) -> tuple[BranchPlacementRule, ...]:
    if not isinstance(raw, list):
        raise MalformedDocumentError("branch_rules", "expected an array")
    seen: set[Category] = set()
    rules = []
    for i, r in enumerate(raw):
        path = f"branch_rules[{i}]"
        obj = _check_keys(r, _BRANCH_RULE_REQUIRED, _BRANCH_RULE_KEYS, str, path)
        category = _enum_value(Category, obj["category"], _join(path, "category"))
        if category in seen:
            raise MalformedDocumentError(
                _join(path, "category"), f"duplicate placement for category {category.value!r}"
            )
        seen.add(category)
        side = _enum_value(BranchSide, obj["side"], _join(path, "side"))
        post_order = _enum_value(PostOrder, obj.get("post_order", "source"), _join(path, "post_order"))
        rules.append(BranchPlacementRule(category=category, side=side, post_order=post_order))
    return tuple(rules)


def _parse_morpheme_rules(raw: object) -> tuple[MorphemeRule, ...]:
    if not isinstance(raw, list):
        raise MalformedDocumentError("morpheme_rules", "expected an array")
    seen_ordinals: set[int] = set()
    rules = []
    for i, r in enumerate(raw):
        path = f"morpheme_rules[{i}]"
        obj = _check_keys(r, _MORPHEME_RULE_REQUIRED, _MORPHEME_RULE_KEYS, str, path)
        kind = _enum_value(MorphemeKind, obj["kind"], _join(path, "kind"))
        try:
            rule = MorphemeRule(kind, obj["selector"], obj.get("payload", ""), obj.get("ordinal", i))
        except MalformedDocumentError as e:
            raise MalformedDocumentError(_join(path, e.path), e.message) from None
        if rule.ordinal in seen_ordinals:
            raise MalformedDocumentError(_join(path, "ordinal"), f"duplicate ordinal {rule.ordinal}")
        seen_ordinals.add(rule.ordinal)
        rules.append(rule)
    return tuple(rules)


def parse_lexicon(text: str) -> Lexicon:
    """Parse tab-separated ``source<TAB>category<TAB>target`` lines.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as a file read in text mode
    gives them, and one leading byte order mark is dropped. Blank lines and
    lines starting with ``#`` are skipped; every malformed line (wrong field
    count, which is what an empty source or target gives; an unknown or empty
    category; a source or target that is not one token; a duplicate pair) is
    reported with its 1-based line number, the first of these that applies.
    """
    tokens: dict[tuple[str, Category], Token] = {}
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedSyntaxError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
        # The line is stripped, so its first and last fields end in text:
        # an empty source or target leaves two fields.
        source, cat_text, target = (p.strip() for p in parts)
        category = _CATEGORIES.get(cat_text)
        if category is None:
            raise MalformedSyntaxError(f"unknown category {cat_text!r}", lineno)
        try:
            token = _target_token(source, category, target)
        except ValueError:
            raise MalformedSyntaxError("source and target must be single tokens without whitespace", lineno) from None
        key = (source, category)
        if key in tokens:
            raise MalformedSyntaxError(f"duplicate entry for {source!r}/{category.value}", lineno)
        tokens[key] = token
    return Lexicon._of_tokens(tokens)


def to_dot(s: Synapper) -> str:
    """Graphviz source for one structure.

    Every node becomes a box labeled with its joined tokens; branch boxes
    point into their node; ring edges run clockwise through each loop and
    close the cycle whenever the loop has more than one member. Nested
    loops are drawn as clusters named after their position.
    """
    out = ["digraph synapper {", "  node [shape=box];"]
    _dot_loop(s.main, "n", "  ", out)
    out.append("}\n")
    return "\n".join(out)


def _dot_loop(loop: Loop, prefix: str, indent: str, out: list[str]) -> str:
    """Writes the loop's lines to out; returns the id ring edges reach the loop by.

    A box's label is its surfaces joined by spaces. A label holding ``\\``
    or ``"`` has each escaped by a backslash, backslashes first.
    """
    if not loop.members:
        raise SynapperError("cannot draw an empty loop")
    reps = []
    for j, member in enumerate(loop.members):
        mid = f"{prefix}{j}"
        if member.node is not None:
            label = " ".join([t.surface for t in member.node])
            if '"' in label or "\\" in label:
                label = label.replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'{indent}{mid} [label="{label}"];')
            rep = mid
        else:
            inner = member.loop
            assert inner is not None
            out += [f"{indent}subgraph cluster_{mid} {{", f'{indent}  label="{inner.kind._value_} loop";']
            rep = _dot_loop(inner, mid + "m", indent + "  ", out)
            out.append(f"{indent}}}")
        for k, branch in enumerate(member.branches):
            label = " ".join([t.surface for t in branch.tokens])
            if '"' in label or "\\" in label:
                label = label.replace("\\", "\\\\").replace('"', '\\"')
            box = f"{indent}{mid}b{k}"
            out.append(f'{box} [label="{label}"];\n{box} -> {rep};')
        reps.append(rep)
    if len(reps) > 1:
        reps.append(reps[0])
        for a, b in pairwise(reps):
            out.append(f"{indent}{a} -> {b};")
    return reps[0]
