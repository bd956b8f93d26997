"""Language profiles: everything a target language adds on top of a structure.

A profile fixes the word order (hence the reading direction), optional V1/V2
verb placement, per-category branch placement, the interrogative strategy,
and ordered morpheme rewrites of linearized sentences, compiled once into
passes. Profiles never change the structure itself.
"""

from __future__ import annotations

from collections.abc import Mapping

from .model import (
    Category,
    MalformedDocumentError,
    Role,
    Token,
    WordOrder,
    _CATEGORIES,
    _ROLES,
    _Value,
    _is_surface,
    _set,
    _tag,
)


@_tag
class VerbPlacement:
    """Where the verb goes: by the word order, first (V1) or second (V2)."""

    DEFAULT = "default"
    V1 = "v1"
    V2 = "v2"


@_tag
class BranchSide:
    """The side of its node a branch is placed on."""

    PRE = "pre"
    POST = "post"


@_tag
class PostOrder:
    """The order of the branches placed after their node."""

    SOURCE = "source"
    REVERSED = "reversed"


class BranchPlacementRule(_Value):
    __slots__ = __match_args__ = ("category", "side", "post_order")
    category: Category
    side: BranchSide
    post_order: PostOrder

    def __init__(self, category: Category, side: BranchSide, post_order: PostOrder = PostOrder.SOURCE) -> None:
        _set(self, "category", category)
        _set(self, "side", side)
        _set(self, "post_order", post_order)


@_tag
class WhRule:
    """Where a question puts its WH word, and whether it inverts."""

    INITIAL_WITH_INVERSION = "initial_inversion"
    INITIAL_NO_INVERSION = "initial_plain"
    PRE_SUBJECT = "pre_subject"


@_tag
class MorphemeKind:
    """The kind of a morpheme rule's rewrite."""

    DROP_CATEGORY = "drop_category"
    INSERT_BEFORE = "insert_before"
    INSERT_AFTER = "insert_after"
    SUFFIX_ON_ROLE = "suffix_on_role"


class MorphemeRule(_Value):
    """One token-sequence rewrite.

    selector meaning depends on kind: a category name for drop_category, an
    anchor surface for the inserts (applies at every occurrence), a role name
    for suffix_on_role. payload is the inserted word sequence or the suffix.
    An anchor and a suffix are one token each, as surfaces are.

    The fields are checked once, here: a kind that is not a MorphemeKind, a
    selector or payload that is not a str, an ordinal that is not exactly an
    int, or a rule that does not fit its kind raises MalformedDocumentError
    naming the field, in that order. operand keeps what the check
    parsed: the Category to drop, the inserted words, or the Role to suffix;
    it stays out of equality and repr.
    """

    __match_args__ = ("kind", "selector", "payload", "ordinal")
    __slots__ = (*__match_args__, "operand")
    kind: MorphemeKind
    selector: str
    payload: str
    ordinal: int
    operand: Category | Role | tuple[str, ...]

    def __init__(self, kind: MorphemeKind, selector: str, payload: str = "", ordinal: int = 0) -> None:
        if not isinstance(kind, MorphemeKind):
            raise MalformedDocumentError("kind", "expected a MorphemeKind")
        if not isinstance(selector, str):
            raise MalformedDocumentError("selector", "expected a string")
        if not isinstance(payload, str):
            raise MalformedDocumentError("payload", "expected a string")
        if type(ordinal) is not int:
            raise MalformedDocumentError("ordinal", "expected an integer")
        if not selector:
            raise MalformedDocumentError("selector", "selector must be non-empty")
        if kind is MorphemeKind.DROP_CATEGORY:
            operand = _CATEGORIES.get(selector)
            if operand is None:
                raise MalformedDocumentError("selector", f"drop selector must be a category tag, got {selector!r}")
            if payload:
                raise MalformedDocumentError("payload", "drop rules take no payload")
        elif kind is MorphemeKind.SUFFIX_ON_ROLE:
            operand = _ROLES.get(selector)
            if operand is None:
                raise MalformedDocumentError("selector", f"suffix selector must be a role, got {selector!r}")
            if not _is_surface(payload):
                raise MalformedDocumentError("payload", f"suffix must be one token, got {payload!r}")
        else:
            if not _is_surface(selector):
                raise MalformedDocumentError("selector", f"insert anchor must be one token, got {selector!r}")
            operand = tuple(payload.split())
            if not operand:
                raise MalformedDocumentError("payload", "insert rules need a payload")
        _set(self, "kind", kind)
        _set(self, "selector", selector)
        _set(self, "payload", payload)
        _set(self, "ordinal", ordinal)
        _set(self, "operand", operand)


# Unlisted categories place branches before the node in source order.
_DEFAULT_PLACEMENT = (BranchSide.PRE, PostOrder.SOURCE)


# A run of consecutive insert rules fused into one scan of the sequence: an
# anchor surface -> (words inserted before it, words inserted after it), so
# each token costs one lookup. The words are Tokens of category OTHER, built
# with the profile and shared by every sentence the pass edits. Anchors match
# only tokens already in the sequence, never the words the same pass inserts.
InsertEdits = dict[str, tuple[tuple[Token, ...], tuple[Token, ...]]]


class LanguageProfile(_Value):
    """A target language, compiled once when built.

    placement maps every Category to its branch (side, post_order); the
    first branch rule for a category wins. pre_categories holds the
    categories whose branches placement puts before the node. passes holds
    the morpheme rules as the engine runs them: one step per pass over the
    token sequence, a drop or suffix MorphemeRule or an InsertEdits whose
    inserted words are already Tokens.
    All three are derived from the other fields, so they stay out of
    equality and repr.
    """

    __match_args__ = ("name", "word_order", "verb_placement", "branch_rules", "wh_rule", "morpheme_rules")
    __slots__ = (*__match_args__, "placement", "pre_categories", "passes")
    name: str
    word_order: WordOrder
    verb_placement: VerbPlacement
    branch_rules: tuple[BranchPlacementRule, ...]
    wh_rule: WhRule
    morpheme_rules: tuple[MorphemeRule, ...]
    placement: Mapping[Category, tuple[BranchSide, PostOrder]]
    pre_categories: frozenset[Category]
    passes: tuple[MorphemeRule | InsertEdits, ...]

    def __init__(
        self,
        name: str,
        word_order: WordOrder,
        verb_placement: VerbPlacement = VerbPlacement.DEFAULT,
        branch_rules: tuple[BranchPlacementRule, ...] = (),
        wh_rule: WhRule = WhRule.INITIAL_NO_INVERSION,
        morpheme_rules: tuple[MorphemeRule, ...] = (),
    ) -> None:
        _set(self, "name", name)
        _set(self, "word_order", word_order)
        _set(self, "verb_placement", verb_placement)
        _set(self, "branch_rules", branch_rules)
        _set(self, "wh_rule", wh_rule)
        _set(self, "morpheme_rules", morpheme_rules)
        placement = dict.fromkeys(_CATEGORIES.values(), _DEFAULT_PLACEMENT)
        for rule in reversed(branch_rules):
            placement[rule.category] = (rule.side, rule.post_order)
        _set(self, "placement", placement)
        _set(self, "pre_categories", frozenset([c for c, (side, _) in placement.items() if side is BranchSide.PRE]))
        _set(self, "passes", _compile_passes(morpheme_rules))


def _compile_passes(rules: tuple[MorphemeRule, ...]) -> tuple[MorphemeRule | InsertEdits, ...]:
    """The rules in ordinal order, each run of inserts fused into InsertEdits steps.

    Applied one rule at a time, two inserts on one anchor A give ``W1 W2 A``
    when both go before it and ``A W2 W1`` when both go after it; the fused
    edit keeps that order. A later insert sees an earlier one's words only
    when its anchor is one of them, so a new pass starts there. A drop or a
    suffix ends the run. Each rule's words become Tokens here, once.
    """
    passes: list[MorphemeRule | InsertEdits] = []
    edits: InsertEdits | None = None
    inserted: set[str] = set()
    for rule in sorted(rules, key=lambda r: r.ordinal):
        if rule.kind not in (MorphemeKind.INSERT_BEFORE, MorphemeKind.INSERT_AFTER):
            passes.append(rule)
            edits = None
            continue
        if edits is None or rule.selector in inserted:
            edits, inserted = {}, set()
            passes.append(edits)
        before, after = edits.get(rule.selector, ((), ()))
        words = tuple([Token(w, Category.OTHER) for w in rule.operand])
        if rule.kind is MorphemeKind.INSERT_BEFORE:
            before += words
        else:
            after = words + after
        edits[rule.selector] = (before, after)
        inserted.update(rule.operand)
    return tuple(passes)
