"""Core data model for synapper structures.

A synapper represents one sentence as a closed main loop (ring) of
constituents. Each constituent carries either a node (an ordered group of
tokens acting as one unit) or a nested loop, plus optional branches that
hang off the node from another dimension. Clausal loops carry
subject/verb/object roles; phrasal loops are roleless and mark an entry
member with ``head_index``. The same structure serves every word order:
reading direction and starting constituent are supplied at linearization
time, never stored here.

``build_synapper`` turns a plain-dict document (the parsed JSON form) into
a validated immutable ``Synapper``, reporting the complete list of
invariant violations instead of stopping at the first one.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass


class WordOrder(enum.Enum):
    SVO = "svo"
    SOV = "sov"
    VSO = "vso"
    VOS = "vos"
    OSV = "osv"
    OVS = "ovs"


class Role(enum.Enum):
    SUBJECT = "subject"
    VERB = "verb"
    OBJECT = "object"


class Category(enum.Enum):
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
    CLAUSAL = "clausal"
    PHRASAL = "phrasal"


class SynapperError(Exception):
    """Base class for every error raised by this package."""


class DocumentError(SynapperError):
    """A document cannot be interpreted; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class MalformedDocumentError(DocumentError):
    pass


class UnknownKeyError(DocumentError):
    pass


class UnknownWordOrderError(DocumentError):
    pass


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    path: str
    message: str


class StructureValidationError(SynapperError):
    """Aggregates every invariant violation found in one structure."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = tuple(issues)
        lines = [f"{i.path}: {i.code}: {i.message}" for i in self.issues]
        super().__init__("invalid structure:\n" + "\n".join(lines))


def _is_surface(text: str) -> bool:
    """The surface rule for every token: non-empty, with no whitespace anywhere."""
    return text.split() == [text]


@dataclass(frozen=True)
class Token:
    surface: str
    category: Category

    def __post_init__(self) -> None:
        if not _is_surface(self.surface):
            raise ValueError(f"token surface must be non-empty without whitespace: {self.surface!r}")


@dataclass(frozen=True)
class Branch:
    """Token group attached to exactly one node.

    A node's branches keep their source order as their position in
    ``Constituent.branches``; every layer reads that position as the order.
    """

    tokens: tuple[Token, ...]
    category: Category


@dataclass(frozen=True)
class Constituent:
    """One member of a loop: a node or a nested loop, plus branches on nodes."""

    role: Role | None = None
    node: tuple[Token, ...] | None = None
    loop: "Loop | None" = None
    branches: tuple[Branch, ...] = ()

    def __post_init__(self) -> None:
        if (self.node is None) == (self.loop is None):
            raise ValueError("constituent needs exactly one of node or loop")
        if self.loop is not None and self.branches:
            raise ValueError("branches attach to nodes, not to nested loops")


@dataclass(frozen=True)
class Loop:
    kind: LoopKind
    members: tuple[Constituent, ...]
    head_index: int = 0


@dataclass(frozen=True)
class Synapper:
    label: str
    word_order: WordOrder
    surface_subject_final: bool
    main: Loop


# StructureDocument is the parsed-JSON shape accepted by build_synapper.
StructureDocument = Mapping[str, object]

_TOP_KEYS_REQUIRED = {"word_order", "loop"}
_TOP_KEYS_OPTIONAL = {"label", "surface_subject_final"}

# Deepest loop nesting build_synapper accepts, the main loop counting as 1.
# Every walk over a structure recurses once or more per loop; the deepest,
# structural_equal, takes three frames per loop, so 100 levels stay well
# inside Python's default recursion limit of 1000 whatever the caller's stack.
MAX_DEPTH = 100


def build_synapper(doc: StructureDocument) -> Synapper:
    """Build a validated Synapper from a document.

    Structural malformations (wrong types, unknown keys, a bad word order,
    loops nested deeper than MAX_DEPTH) raise immediately with the offending
    key path. Semantic violations (loop role laws, empty nodes or loops,
    unknown roles or categories) are collected and raised together as
    StructureValidationError.
    """
    _check_keys(doc, "", _TOP_KEYS_REQUIRED, _TOP_KEYS_OPTIONAL)
    label = _expect_str(doc.get("label", ""), "label")
    word_order = _word_order(doc["word_order"])
    subject_final = doc.get("surface_subject_final", False)
    if not isinstance(subject_final, bool):
        raise MalformedDocumentError("surface_subject_final", "expected a boolean")

    issues: list[ValidationIssue] = []
    main = _convert_loop(doc["loop"], "loop", 1, issues)
    if main.kind is not LoopKind.CLAUSAL:
        raise MalformedDocumentError("loop.kind", "the main loop must be clausal")
    issues.extend(_loop_issues(main, "loop"))
    if issues:
        raise StructureValidationError(issues)
    return Synapper(label=label, word_order=word_order, surface_subject_final=subject_final, main=main)


def _check_keys(obj: object, path: str, required: set[str], optional: set[str]) -> Mapping[str, object]:
    if not isinstance(obj, Mapping):
        raise MalformedDocumentError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise UnknownKeyError(_join(path, str(key)), f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise MalformedDocumentError(path, f"missing key {key!r}")
    return obj


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise MalformedDocumentError(path, "expected a string")
    return value


def _word_order(raw: object) -> WordOrder:
    text = _expect_str(raw, "word_order")
    try:
        return WordOrder(text)
    except ValueError:
        raise UnknownWordOrderError("word_order", f"unknown word order {text!r}") from None


def _category(raw: object, path: str, issues: list[ValidationIssue]) -> Category:
    """An unknown category is reported and read as OTHER, so checking goes on."""
    text = _expect_str(raw, path)
    try:
        return Category(text)
    except ValueError:
        issues.append(ValidationIssue("unknown-category", path, f"unknown category {text!r}"))
        return Category.OTHER


def _convert_loop(raw: object, path: str, depth: int, issues: list[ValidationIssue]) -> Loop:
    if depth > MAX_DEPTH:
        raise MalformedDocumentError(path, f"loops nest deeper than {MAX_DEPTH} levels")
    obj = _check_keys(raw, path, {"kind", "members"}, {"head_index"})
    kind_text = _expect_str(obj["kind"], _join(path, "kind"))
    try:
        kind = LoopKind(kind_text)
    except ValueError:
        raise MalformedDocumentError(_join(path, "kind"), f"unknown loop kind {kind_text!r}") from None
    if kind is LoopKind.CLAUSAL and "head_index" in obj:
        raise UnknownKeyError(_join(path, "head_index"), "head_index applies to phrasal loops only")
    members_raw = obj["members"]
    if not isinstance(members_raw, list):
        raise MalformedDocumentError(_join(path, "members"), "expected an array")
    members = tuple(
        _convert_member(m, f"{path}.members[{i}]", kind, depth, issues) for i, m in enumerate(members_raw)
    )
    head = obj.get("head_index", 0)
    if not isinstance(head, int) or isinstance(head, bool):
        raise MalformedDocumentError(_join(path, "head_index"), "expected an integer")
    if kind is LoopKind.PHRASAL and members and not 0 <= head < len(members):
        raise MalformedDocumentError(_join(path, "head_index"), "head_index out of range")
    return Loop(kind=kind, members=members, head_index=head if kind is LoopKind.PHRASAL else 0)


def _convert_member(raw: object, path: str, kind: LoopKind, depth: int, issues: list[ValidationIssue]) -> Constituent:
    if kind is LoopKind.PHRASAL and isinstance(raw, Mapping) and "role" in raw:
        raise UnknownKeyError(_join(path, "role"), "phrasal loop members are roleless")
    required = {"role"} if kind is LoopKind.CLAUSAL else set()
    obj = _check_keys(raw, path, required, {"node", "loop", "branches"})

    role: Role | None = None
    if kind is LoopKind.CLAUSAL:
        role_text = _expect_str(obj["role"], _join(path, "role"))
        try:
            role = Role(role_text)
        except ValueError:
            issues.append(ValidationIssue("unknown-role", _join(path, "role"), f"unknown role {role_text!r}"))
            role = Role.OBJECT

    has_node = "node" in obj
    has_loop = "loop" in obj
    if has_node == has_loop:
        raise MalformedDocumentError(path, "expected exactly one of 'node' or 'loop'")
    if has_loop and "branches" in obj:
        raise UnknownKeyError(_join(path, "branches"), "branches attach to nodes, not to nested loops")

    if has_loop:
        nested = _convert_loop(obj["loop"], _join(path, "loop"), depth + 1, issues)
        return Constituent(role=role, loop=nested)

    tokens = _convert_tokens(obj["node"], _join(path, "node"), issues)
    branches_raw = obj.get("branches", [])
    if not isinstance(branches_raw, list):
        raise MalformedDocumentError(_join(path, "branches"), "expected an array")
    branches = tuple(
        _convert_branch(b, f"{path}.branches[{i}]", issues) for i, b in enumerate(branches_raw)
    )
    return Constituent(role=role, node=tokens, branches=branches)


# Stands in for unusable tokens, which are already reported, so that the
# remaining violations in sibling members still get collected.
_PLACEHOLDER_TOKENS = (Token("?", Category.OTHER),)


def _convert_tokens(raw: object, path: str, issues: list[ValidationIssue]) -> tuple[Token, ...]:
    if not isinstance(raw, list):
        raise MalformedDocumentError(path, "expected an array of tokens")
    if not raw:
        issues.append(ValidationIssue("empty-node", path, "a node needs at least one token"))
        return _PLACEHOLDER_TOKENS
    out = []
    for i, t in enumerate(raw):
        tpath = f"{path}[{i}]"
        obj = _check_keys(t, tpath, {"surface", "category"}, set())
        surface = _expect_str(obj["surface"], _join(tpath, "surface"))
        category = _category(obj["category"], _join(tpath, "category"), issues)
        try:
            out.append(Token(surface, category))
        except ValueError:
            raise MalformedDocumentError(_join(tpath, "surface"), "surface must be non-empty without whitespace") from None
    return tuple(out)


def _convert_branch(raw: object, path: str, issues: list[ValidationIssue]) -> Branch:
    obj = _check_keys(raw, path, {"category", "tokens"}, set())
    category = _category(obj["category"], _join(path, "category"), issues)
    tokens = _convert_tokens(obj["tokens"], _join(path, "tokens"), issues)
    return Branch(tokens=tokens, category=category)


def _loop_issues(loop: Loop, path: str) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if not loop.members:
        issues.append(ValidationIssue("empty-loop", _join(path, "members"), "a loop needs at least one member"))
        return issues
    if loop.kind is LoopKind.CLAUSAL:
        subjects = [m for m in loop.members if m.role is Role.SUBJECT]
        verbs = [m for m in loop.members if m.role is Role.VERB]
        # Imperative escape hatch: a one-member ring may omit the subject.
        if not subjects and len(loop.members) > 1:
            issues.append(ValidationIssue("missing-subject", path, "clausal loop has no subject"))
        if len(subjects) > 1:
            issues.append(ValidationIssue("multiple-subjects", path, "clausal loop has more than one subject"))
        if not verbs:
            issues.append(ValidationIssue("missing-verb", path, "clausal loop has no verb"))
        if len(verbs) > 1:
            issues.append(ValidationIssue("multiple-verbs", path, "clausal loop has more than one verb"))
    for i, member in enumerate(loop.members):
        if member.loop is not None:
            issues.extend(_loop_issues(member.loop, f"{path}.members[{i}].loop"))
    return issues


def structure_issues(s: Synapper) -> list[ValidationIssue]:
    """Semantic violations of a directly constructed Synapper (empty when valid)."""
    return _loop_issues(s.main, "loop")


def iter_tokens(s: Synapper) -> Iterator[Token]:
    """All tokens in stored order: node tokens first, then branch tokens per member."""
    yield from _iter_loop_tokens(s.main)


def _iter_loop_tokens(loop: Loop) -> Iterator[Token]:
    for member in loop.members:
        if member.node is not None:
            yield from member.node
        else:
            assert member.loop is not None
            yield from _iter_loop_tokens(member.loop)
        for branch in member.branches:
            yield from branch.tokens


def _role_index(loop: Loop, role: Role) -> int | None:
    """Ring index of the first member with this role, or None."""
    for i, member in enumerate(loop.members):
        if member.role is role:
            return i
    return None


def _rotated_members(loop: Loop) -> tuple[Constituent, ...]:
    i = loop.head_index if loop.kind is LoopKind.PHRASAL else _role_index(loop, Role.SUBJECT) or 0
    return loop.members[i:] + loop.members[:i]


def structural_equal(a: Synapper, b: Synapper) -> bool:
    """Isomorphism of structures; labels and surface flags are ignored.

    Rings are cycles, so member lists are compared after rotating each loop
    to its anchor: the subject for clausal loops, the head for phrasal ones.
    """
    return a.word_order is b.word_order and _loops_equal(a.main, b.main)


def _loops_equal(x: Loop, y: Loop) -> bool:
    if x.kind is not y.kind or len(x.members) != len(y.members):
        return False
    return all(
        _constituents_equal(p, q) for p, q in zip(_rotated_members(x), _rotated_members(y))
    )


def _constituents_equal(p: Constituent, q: Constituent) -> bool:
    if p.role is not q.role:
        return False
    if (p.node is None) != (q.node is None):
        return False
    if p.node is not None and p.node != q.node:
        return False
    if p.loop is not None and not _loops_equal(p.loop, q.loop):  # type: ignore[union-attr]
        return False
    if len(p.branches) != len(q.branches):
        return False
    return all(
        bp.category is bq.category and bp.tokens == bq.tokens
        for bp, bq in zip(p.branches, q.branches)
    )


def canonical_form(s: Synapper) -> str:
    """Deterministic one-line text; equal exactly when structural_equal holds."""
    payload = {"word_order": s.word_order.value, "loop": _canon_loop(s.main)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _canon_loop(loop: Loop) -> dict:
    return {
        "kind": loop.kind.value,
        "members": [_canon_member(m) for m in _rotated_members(loop)],
    }


def _canon_member(c: Constituent) -> dict:
    out: dict = {}
    if c.role is not None:
        out["role"] = c.role.value
    if c.node is not None:
        out["node"] = [[t.surface, t.category.value] for t in c.node]
    if c.loop is not None:
        out["loop"] = _canon_loop(c.loop)
    if c.branches:
        out["branches"] = [
            {"category": b.category.value, "tokens": [[t.surface, t.category.value] for t in b.tokens]}
            for b in c.branches
        ]
    return out
