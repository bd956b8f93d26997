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
a validated immutable ``Synapper``, checking its laws as it reads it;
``structure_issues`` checks the same laws of a structure built in code. Both
report the complete list of violations, not only the first.
"""

from __future__ import annotations

import enum
# json.dumps's default escaper, from its C accelerator: every non-ASCII
# character as \uXXXX.
from _json import encode_basestring_ascii as _escape_ascii
from collections.abc import Callable, Iterator, KeysView, Mapping, Set as AbstractSet
from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


# enum's fast constructor for Enum, the one CPython builds its own
# import-time enums with (re.RegexFlag, http.HTTPStatus).
_simple_enum = enum._simple_enum(enum.Enum)


def _tag(cls: type) -> Any:
    """Build the Enum a plain class body declares, without the class statement's per-name frames.

    Members, values, order, ``_value2member_map_``, repr and pickling are
    those of the same body written as an ``enum.Enum`` class statement. Each
    member then goes back into the class dict, where 3.11 and 3.12 leave an
    ``enum.property`` that would run a frame on every ``Role.VERB``.
    """
    tags = _simple_enum(cls)
    members = tags._member_map_
    # One pass in C: a loop here would run a dozen ops per member at import.
    list(map(type.__setattr__, [tags] * len(members), members, members.values()))
    return tags


# Members of WordOrder, Role, Category and LoopKind are singletons compared
# by identity, so they hash by identity too, in C (object.__hash__). Enum's
# own __hash__ is a Python function, which every dict or set lookup of a
# member would run: in a profile's placement table and in a lexicon's keys.
@_tag
class WordOrder:
    """A basic word order: the order of subject, verb and object."""

    __hash__ = object.__hash__
    SVO = "svo"
    SOV = "sov"
    VSO = "vso"
    VOS = "vos"
    OSV = "osv"
    OVS = "ovs"


@_tag
class Role:
    """The role of a clausal loop's member."""

    __hash__ = object.__hash__
    SUBJECT = "subject"
    VERB = "verb"
    OBJECT = "object"


@_tag
class Category:
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


@_tag
class LoopKind:
    """A loop's kind: clausal (with roles) or phrasal (with a head)."""

    __hash__ = object.__hash__
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


# Sets a field of a value class in its constructor, past the class's own
# __setattr__, which refuses every assignment.
_set = object.__setattr__
_role = attrgetter("role")


class _Value:
    """Base of the immutable value classes: fields in ``__slots__``, set once.

    A subclass names its constructor's fields, in order, in
    ``__match_args__``. Equality, hash, repr and pickling read those fields
    alone, so a field the constructor derives and leaves out of them is left
    out of all four. Equality holds only between objects of one class.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # Rebuilt through the constructor, which reruns its checks.
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ValidationIssue(_Value):
    __slots__ = __match_args__ = ("code", "path", "message")
    code: str
    path: str
    message: str

    def __init__(self, code: str, path: str, message: str) -> None:
        _set(self, "code", code)
        _set(self, "path", path)
        _set(self, "message", message)


class StructureValidationError(SynapperError):
    """Aggregates every invariant violation found in one structure."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = tuple(issues)
        lines = [f"{i.path}: {i.code}: {i.message}" for i in self.issues]
        super().__init__("invalid structure:\n" + "\n".join(lines))


def _is_surface(text: object) -> bool:
    """The surface rule for every token (Token.__init__ inlines it): a str, non-empty, with no whitespace anywhere."""
    return isinstance(text, str) and text.split() == [text]


class Token(_Value):
    __slots__ = __match_args__ = ("surface", "category")
    surface: str
    category: Category

    def __init__(self, surface: str, category: Category) -> None:
        # _is_surface's rule, inline: a token built here runs no other frame.
        if not isinstance(surface, str) or surface.split() != [surface]:
            rule = "non-empty without whitespace" if isinstance(surface, str) else "a str"
            raise ValueError(f"token surface must be {rule}: {surface!r}")
        _set(self, "surface", surface)
        _set(self, "category", category)

    # structural_equal compares tokens and branches one by one, so these two
    # compare their fields directly rather than through _Value's tuples.
    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.surface == other.surface and self.category is other.category

    def __hash__(self) -> int:
        return hash((self.surface, self.category))


class Branch(_Value):
    """Token group attached to exactly one node.

    A node's branches keep their source order as their position in
    ``Constituent.branches``; every layer reads that position as the order.
    """

    __slots__ = __match_args__ = ("tokens", "category")
    tokens: tuple[Token, ...]
    category: Category

    def __init__(self, tokens: tuple[Token, ...], category: Category) -> None:
        _set(self, "tokens", tokens)
        _set(self, "category", category)

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.category is other.category and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash((self.tokens, self.category))


class Constituent(_Value):
    """One member of a loop: a node or a nested loop, plus branches on nodes."""

    __slots__ = __match_args__ = ("role", "node", "loop", "branches")
    role: Role | None
    node: tuple[Token, ...] | None
    loop: Loop | None
    branches: tuple[Branch, ...]

    def __init__(
        self,
        role: Role | None = None,
        node: tuple[Token, ...] | None = None,
        loop: Loop | None = None,
        branches: tuple[Branch, ...] = (),
    ) -> None:
        if (node is None) == (loop is None):
            raise ValueError("constituent needs exactly one of node or loop")
        if loop is not None and branches:
            raise ValueError("branches attach to nodes, not to nested loops")
        _set(self, "role", role)
        _set(self, "node", node)
        _set(self, "loop", loop)
        _set(self, "branches", branches)


class Loop(_Value):
    """A ring of members. ``roles`` is derived: each member's role, in ring order."""

    __match_args__ = ("kind", "members", "head_index")
    __slots__ = (*__match_args__, "roles")
    kind: LoopKind
    members: tuple[Constituent, ...]
    head_index: int
    roles: tuple[Role | None, ...]

    def __init__(self, kind: LoopKind, members: tuple[Constituent, ...], head_index: int = 0) -> None:
        # Exactly an int: a bool or a float head would be written out as
        # text that the reader rejects.
        if head_index.__class__ is not int:
            raise ValueError(f"head_index must be an int: {head_index!r}")
        _set(self, "kind", kind)
        _set(self, "members", members)
        _set(self, "head_index", head_index)
        _set(self, "roles", tuple(map(_role, members)))


class Synapper(_Value):
    __slots__ = __match_args__ = ("label", "word_order", "main")
    label: str
    word_order: WordOrder
    main: Loop

    def __init__(self, label: str, word_order: WordOrder, main: Loop) -> None:
        _set(self, "label", label)
        _set(self, "word_order", word_order)
        _set(self, "main", main)


# StructureDocument is the parsed-JSON shape accepted by build_synapper.
StructureDocument = Mapping[str, object]


def _schema_keys(*keys: str) -> KeysView[str]:
    """Keys that iterate in schema order and compare as a set, in C, with key views."""
    return dict.fromkeys(keys).keys()


# Each object's required keys, in schema order so that the first one missing
# is the one reported whatever the hash seed, and every key it may hold.
_TOP_REQUIRED = _schema_keys("word_order", "loop")
_TOP_KEYS = frozenset({*_TOP_REQUIRED, "label"})
_LOOP_REQUIRED = _schema_keys("kind", "members")
_LOOP_KEYS = frozenset({*_LOOP_REQUIRED, "head_index"})
_MEMBER_KEYS = frozenset({"role", "node", "loop", "branches"})
_BRANCH_KEYS = _schema_keys("category", "tokens")
_TOKEN_KEYS = _schema_keys("surface", "category")

# isinstance tries dict first, so only a Mapping of another type takes the
# ABC check.
_OBJECT_TYPES = (dict, Mapping)


# Each tag's member by its text, in definition order: the enum's own map,
# the one ``Enum(text)`` reads. A lookup here runs no frame in enum.py.
_WORD_ORDERS = WordOrder._value2member_map_
_LOOP_KINDS = LoopKind._value2member_map_
_ROLES = Role._value2member_map_
_CATEGORIES = Category._value2member_map_

# A str as itself and a str subclass as the plain str of its value; anything
# else raises TypeError. The reader's type test for tag text, made in C inside
# the lookup, so that an object that is no str is never read as a tag.
_as_str = str.__str__

# What a valid member holds, by its keys: a node, a node with branches or a
# nested loop, each with a role or without.
_MEMBER_SHAPES = {
    frozenset({"node"}): "node",
    frozenset({"role", "node"}): "node",
    frozenset({"node", "branches"}): "branches",
    frozenset({"role", "node", "branches"}): "branches",
    frozenset({"loop"}): "loop",
    frozenset({"role", "loop"}): "loop",
}

# Deepest loop nesting build_synapper accepts, the main loop counting as 1.
# Every walk over a structure, build_synapper's converter, serialize_structure's
# emitter and substitute_lexemes among them, holds one frame per loop. So 100
# levels stay well inside Python's default recursion limit of 1000 whatever
# the caller's stack.
MAX_DEPTH = 100


def build_synapper(doc: StructureDocument) -> Synapper:
    """Build a validated Synapper from a document.

    What cannot be converted (wrong types, unknown keys, a bad word order or
    loop kind, ``head_index`` on a clausal loop, loops nested deeper than
    MAX_DEPTH) raises at once with the offending key path. Unknown roles and
    categories, then every issue ``structure_issues`` finds in the converted
    structure, in the same order, are collected and raised together as
    StructureValidationError. The converter checks those laws on its own
    walk, loop by loop, with the ring-law function ``structure_issues`` runs.
    """
    _check_keys(doc, _TOP_REQUIRED, _TOP_KEYS, str)
    label = _expect_str(doc.get("label", ""), "label")
    word_order = _word_order(doc["word_order"])

    issues: list[ValidationIssue] = []
    laws: list[ValidationIssue] = []
    main = _convert_loop(doc["loop"], (), issues, laws)
    if issues or laws:
        raise StructureValidationError(issues + laws)
    return Synapper(label, word_order, main)


def _check_keys(
    obj: object, required: AbstractSet[str], allowed: AbstractSet[str], path_of: Callable[..., str], *where: object
) -> Mapping[str, object]:
    """obj as a mapping that holds every required key and allowed keys only.

    Any Mapping is accepted. ``path_of(*where)`` is obj's key path, formatted
    only when obj fails (``str`` alone gives the root's empty path).
    """
    if isinstance(obj, _OBJECT_TYPES) and obj.keys() <= allowed and required <= obj.keys():
        return obj
    raise _object_error(obj, required, allowed, path_of(*where))


def _object_error(obj: object, required: AbstractSet[str], allowed: AbstractSet[str], path: str) -> DocumentError:
    """Why obj fails _check_keys: the first unknown key in its own order, else the first missing one."""
    if not isinstance(obj, Mapping):
        return MalformedDocumentError(path, "expected an object")
    for key in obj:
        if key not in allowed:
            return UnknownKeyError(_join(path, str(key)), f"unknown key {key!r}")
    missing = next(key for key in required if key not in obj)
    return MalformedDocumentError(path, f"missing key {missing!r}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _path(at: tuple[int, ...], *steps: str | int) -> str:
    """The key path of a place in a structure document, formatted for a report.

    ``at`` holds the member index of each loop on the way down from the main
    loop; each step is a key, or an array index when it is an int. The
    converters carry these instead of text, so a valid document formats none.
    """
    text = "loop" + "".join(f".members[{i}].loop" for i in at)
    return text + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps)


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise MalformedDocumentError(path, "expected a string")
    return value


def _word_order(raw: object) -> WordOrder:
    order = _WORD_ORDERS.get(_expect_str(raw, "word_order"))
    if order is None:
        raise UnknownWordOrderError("word_order", f"unknown word order {raw!r}")
    return order


def _convert_loop(
    raw: object, at: tuple[int, ...], issues: list[ValidationIssue], laws: list[ValidationIssue]
) -> Loop:
    """The loop at _path(at), converted; its laws and those of everything in it go to laws, in walk order.

    A member or a branch that is a plain dict of a valid shape, with known
    text, takes one test here; anything else, other Mappings included, goes
    to _member or _check_keys and _category, which run every check in order.
    Unknown roles and categories go to issues.
    """
    # The one law checked at once rather than collected: this function
    # recurses once per nested loop, so without the bound a deep enough
    # document would exhaust Python's recursion limit before any check ran.
    if len(at) >= MAX_DEPTH:
        raise MalformedDocumentError(_path(at), _TOO_DEEP)
    obj = _check_keys(raw, _LOOP_REQUIRED, _LOOP_KEYS, _path, at)
    kind_text = obj["kind"]
    if not isinstance(kind_text, str):
        raise MalformedDocumentError(_path(at, "kind"), "expected a string")
    kind = _LOOP_KINDS.get(kind_text)
    if kind is None:
        raise MalformedDocumentError(_path(at, "kind"), f"unknown loop kind {kind_text!r}")
    if kind is LoopKind.CLAUSAL and "head_index" in obj:
        raise UnknownKeyError(_path(at, "head_index"), "head_index applies to phrasal loops only")
    members_raw = obj["members"]
    if not isinstance(members_raw, list):
        raise MalformedDocumentError(_path(at, "members"), "expected an array")
    mark = len(laws)
    members = []
    for i, member in enumerate(members_raw):
        holds = None
        if member.__class__ is dict:
            try:
                role = _ROLES[_as_str(member["role"])] if "role" in member else None
                holds = _MEMBER_SHAPES[frozenset(member)]
            except (KeyError, TypeError):
                pass
        if holds is None:
            holds, role = _member(member, at, i, issues)
        if holds == "loop":
            members.append(Constituent(role, None, _convert_loop(member["loop"], at + (i,), issues, laws)))
            continue
        node = _convert_tokens(member["node"], issues, laws, at, "members", i, "node")
        if holds == "node":
            members.append(Constituent(role, node))
            continue
        branches_raw = member["branches"]
        if not isinstance(branches_raw, list):
            raise MalformedDocumentError(_path(at, "members", i, "branches"), "expected an array")
        branches = []
        for k, b in enumerate(branches_raw):
            category = None
            if b.__class__ is dict and b.keys() == _BRANCH_KEYS:
                try:
                    category = _CATEGORIES[_as_str(b["category"])]
                except (KeyError, TypeError):
                    pass
            if category is None:
                b = _check_keys(b, _BRANCH_KEYS, _BRANCH_KEYS, _path, at, "members", i, "branches", k)
                category = _category(b["category"], issues, at, "members", i, "branches", k, "category")
            tokens = _convert_tokens(b["tokens"], issues, laws, at, "members", i, "branches", k, "tokens")
            branches.append(Branch(tokens, category))
        members.append(Constituent(role, node, None, tuple(branches)))
    # A clausal loop has no head_index, so it gets the default 0. Loop checks
    # that a head is exactly an int, and raises ValueError only for that.
    try:
        loop = Loop(kind, tuple(members), obj.get("head_index", 0))
    except ValueError:
        raise MalformedDocumentError(_path(at, "head_index"), "expected an integer") from None
    # The ring's own laws come before its members', as _loop_issues reports them.
    laws[mark:mark] = _ring_laws(loop, at)
    return loop


def _member(member: object, at: tuple[int, ...], i: int, issues: list[ValidationIssue]) -> tuple[str, Role | None]:
    """What a member the reader's one test refused holds ("node", "branches" or "loop"), and its role.

    The checks run in order: the object and its keys, the role (an unknown
    one is reported and read as OBJECT), then exactly one of node or loop,
    and no branches on a loop.
    """
    obj = _check_keys(member, frozenset(), _MEMBER_KEYS, _path, at, "members", i)
    role: Role | None = None
    if "role" in obj:
        role_text = obj["role"]
        if not isinstance(role_text, str):
            raise MalformedDocumentError(_path(at, "members", i, "role"), "expected a string")
        role = _ROLES.get(role_text)
        if role is None:
            path = _path(at, "members", i, "role")
            issues.append(ValidationIssue("unknown-role", path, f"unknown role {role_text!r}"))
            role = Role.OBJECT
    has_node = "node" in obj
    has_loop = "loop" in obj
    if has_node == has_loop:
        raise MalformedDocumentError(_path(at, "members", i), "expected exactly one of 'node' or 'loop'")
    has_branches = "branches" in obj
    if has_loop and has_branches:
        raise UnknownKeyError(_path(at, "members", i, "branches"), "branches attach to nodes, not to nested loops")
    return ("loop" if has_loop else "branches" if has_branches else "node"), role


def _convert_tokens(
    raw: object, issues: list[ValidationIssue], laws: list[ValidationIssue], at: tuple[int, ...], *steps: str | int
) -> tuple[Token, ...]:
    """The tokens of a node or a branch, whose array is at _path(at, *steps); an empty array breaks a law.

    A token that is a plain dict whose category is a str naming a category,
    and whose surface Token accepts, takes one test; any other goes to
    _token. Token runs the surface rule; nothing else here runs a frame per
    token.
    """
    if not isinstance(raw, list):
        raise MalformedDocumentError(_path(at, *steps), "expected an array of tokens")
    out = []
    for t in raw:
        try:
            if t.__class__ is dict and t.keys() == _TOKEN_KEYS:
                out.append(Token(t["surface"], _CATEGORIES[_as_str(t["category"])]))
                continue
        except (KeyError, TypeError, ValueError):
            pass
        out.append(_token(t, issues, at, *steps, len(out)))
    if not out:
        laws.append(ValidationIssue("empty-node", _path(at, *steps), _EMPTY_NODE))
    return tuple(out)


def _token(t: object, issues: list[ValidationIssue], at: tuple[int, ...], *steps: str | int) -> Token:
    """A token the reader's one test refused, at _path(at, *steps).

    The checks run in order: the object and its keys, the surface's type,
    the category (an unknown one is reported and read as OTHER), then the
    surface rule.
    """
    obj = _check_keys(t, _TOKEN_KEYS, _TOKEN_KEYS, _path, at, *steps)
    surface = obj["surface"]
    if not isinstance(surface, str):
        raise MalformedDocumentError(_path(at, *steps, "surface"), "expected a string")
    category = _category(obj["category"], issues, at, *steps, "category")
    try:
        return Token(surface, category)
    except ValueError:
        raise MalformedDocumentError(
            _path(at, *steps, "surface"), "surface must be non-empty without whitespace"
        ) from None


def _category(text: object, issues: list[ValidationIssue], at: tuple[int, ...], *steps: str | int) -> Category:
    """The category text names, at _path(at, *steps).

    Text that is not a string raises; other unknown text is reported and read as OTHER.
    """
    if not isinstance(text, str):
        raise MalformedDocumentError(_path(at, *steps), "expected a string")
    category = _CATEGORIES.get(text)
    if category is None:
        issues.append(ValidationIssue("unknown-category", _path(at, *steps), f"unknown category {text!r}"))
        return Category.OTHER
    return category


_EMPTY_NODE = "a node needs at least one token"
_TOO_DEEP = f"loops nest deeper than {MAX_DEPTH} levels"


def _ring_laws(loop: Loop, at: tuple[int, ...]) -> list[ValidationIssue]:
    """The laws loop, at _path(at), breaks as a ring: the main loop's kind, its member count, head and roles.

    Its members' own laws are not among them. The reader checks each loop it
    builds with this, and _loop_issues each loop it walks.
    """
    laws = []
    if not at and loop.kind is not LoopKind.CLAUSAL:
        laws.append(ValidationIssue("main-loop-not-clausal", "loop.kind", "the main loop must be clausal"))
    roles = loop.roles
    if not roles:
        laws.append(ValidationIssue("empty-loop", _path(at, "members"), "a loop needs at least one member"))
    elif loop.kind is LoopKind.PHRASAL:
        if not 0 <= loop.head_index < len(roles):
            laws.append(ValidationIssue("head-out-of-range", _path(at, "head_index"), "head_index out of range"))
        if roles.count(None) < len(roles):
            for i, role in enumerate(roles):
                if role is not None:
                    path = _path(at, "members", i, "role")
                    laws.append(ValidationIssue("role-in-phrasal-loop", path, "phrasal loop members are roleless"))
    else:
        if None in roles:
            for i, role in enumerate(roles):
                if role is None:
                    laws.append(ValidationIssue("missing-role", _path(at, "members", i), "missing key 'role'"))
        subjects = roles.count(Role.SUBJECT)
        verbs = roles.count(Role.VERB)
        # Imperative escape hatch: a one-member ring may omit the subject.
        if not subjects and len(roles) > 1:
            laws.append(ValidationIssue("missing-subject", _path(at), "clausal loop has no subject"))
        if subjects > 1:
            laws.append(ValidationIssue("multiple-subjects", _path(at), "clausal loop has more than one subject"))
        if not verbs:
            laws.append(ValidationIssue("missing-verb", _path(at), "clausal loop has no verb"))
        if verbs > 1:
            laws.append(ValidationIssue("multiple-verbs", _path(at), "clausal loop has more than one verb"))
    return laws


def _loop_issues(loop: Loop, at: tuple[int, ...], issues: list[ValidationIssue]) -> None:
    """Append the violations of loop, at _path(at), and of everything in it."""
    if len(at) >= MAX_DEPTH:
        issues.append(ValidationIssue("too-deep", _path(at), _TOO_DEEP))
        return
    issues += _ring_laws(loop, at)
    for i, member in enumerate(loop.members):
        if member.loop is not None:
            _loop_issues(member.loop, at + (i,), issues)
        elif not member.node:
            issues.append(ValidationIssue("empty-node", _path(at, "members", i, "node"), _EMPTY_NODE))
        for k, branch in enumerate(member.branches):
            if not branch.tokens:
                path = _path(at, "members", i, "branches", k, "tokens")
                issues.append(ValidationIssue("empty-node", path, _EMPTY_NODE))


def structure_issues(s: Synapper) -> list[ValidationIssue]:
    """Every law s breaks, in the order found (empty when valid).

    build_synapper reports these for the structure it reads, so reading
    serialize_structure(s) reports them too; only a loop past MAX_DEPTH
    raises there at once instead.
    """
    issues: list[ValidationIssue] = []
    _loop_issues(s.main, (), issues)
    return issues


def iter_tokens(s: Synapper) -> Iterator[Token]:
    """All tokens in stored order: node tokens first, then branch tokens per member."""
    stack = [iter(s.main.members)]  # one member iterator per open loop, so cost is linear in depth
    while stack:
        for member in stack[-1]:
            if member.loop is not None:
                stack.append(iter(member.loop.members))
                break
            yield from member.node  # type: ignore[misc]
            for branch in member.branches:
                yield from branch.tokens
        else:
            stack.pop()


def _rotated_members(loop: Loop) -> tuple[Constituent, ...]:
    if loop.kind is LoopKind.PHRASAL:
        i = loop.head_index
    else:
        i = loop.roles.index(Role.SUBJECT) if Role.SUBJECT in loop.roles else 0
    return loop.members[i:] + loop.members[:i]


def structural_equal(a: Synapper, b: Synapper) -> bool:
    """Isomorphism of structures; labels are ignored.

    Rings are cycles, so member lists are compared after rotating each loop
    to its anchor: the subject for clausal loops, the head for phrasal ones.
    """
    return a.word_order is b.word_order and _loops_equal(a.main, b.main)


def _loops_equal(x: Loop, y: Loop) -> bool:
    if x.kind is not y.kind or len(x.members) != len(y.members):
        return False
    for p, q in zip(_rotated_members(x), _rotated_members(y)):
        # Equal nodes are both None or both tokens, so then both hold loops.
        if p.role is not q.role or p.node != q.node or p.branches != q.branches:
            return False
        if p.loop is not None and not _loops_equal(p.loop, q.loop):  # type: ignore[arg-type]
            return False
    return True


def canonical_form(s: Synapper) -> str:
    """Deterministic one-line text; equal exactly when structural_equal holds.

    The text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
    the document ``{"loop", "word_order"}``, written directly. Each loop is
    ``{"kind", "members"}`` with its members rotated to the anchor; each
    member is ``{"branches"?, "loop" | "node", "role"?}``, each branch
    ``{"category", "tokens"}`` and each token ``[surface, category]``.
    Surfaces are escaped to ASCII, as ``json.dumps`` does by default. Label
    and ``head_index`` are left out.
    """
    out = ['{"loop":']
    _canon_loop(s.main, out)
    out += [',"word_order":"', s.word_order._value_, '"}']
    return "".join(out)


def _canon_loop(loop: Loop, out: list[str]) -> None:
    out += ['{"kind":"', loop.kind._value_, '","members":[']
    sep = "{"
    for c in _rotated_members(loop):
        # A member's keys in sorted order: branches, then loop or node, then role.
        out.append(sep)
        if c.branches:
            branch_sep = '"branches":[{"category":"'
            for b in c.branches:
                out += [branch_sep, b.category._value_, '","tokens":[']
                token_sep = "["
                for t in b.tokens:
                    out += [token_sep, _escape_ascii(t.surface), ',"', t.category._value_, '"]']
                    token_sep = ",["
                out.append("]")
                branch_sep = '},{"category":"'
            out.append("}],")
        if c.loop is not None:
            out.append('"loop":')
            _canon_loop(c.loop, out)
        else:
            out.append('"node":[')
            token_sep = "["
            for t in c.node:  # type: ignore[union-attr]
                out += [token_sep, _escape_ascii(t.surface), ',"', t.category._value_, '"]']
                token_sep = ",["
            out.append("]")
        if c.role is not None:
            out += [',"role":"', c.role._value_, '"']
        sep = "},{"
    out.append("}]}" if loop.members else "]}")

