"""Language profiles: everything a target language adds on top of a structure.

A profile fixes the word order (hence the reading direction), optional V1/V2
verb placement, per-category branch placement, the interrogative strategy,
and an ordered list of morpheme rewrites applied to linearized token
sequences. Profiles never change the structure itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .model import Category, MalformedDocumentError, Role, WordOrder, _CATEGORIES, _ROLES, _is_surface


class VerbPlacement(enum.Enum):
    DEFAULT = "default"
    V1 = "v1"
    V2 = "v2"


class BranchSide(enum.Enum):
    PRE = "pre"
    POST = "post"


class PostOrder(enum.Enum):
    SOURCE = "source"
    REVERSED = "reversed"


@dataclass(frozen=True)
class BranchPlacementRule:
    category: Category
    side: BranchSide
    post_order: PostOrder = PostOrder.SOURCE


class WhRule(enum.Enum):
    INITIAL_WITH_INVERSION = "initial_inversion"
    INITIAL_NO_INVERSION = "initial_plain"
    PRE_SUBJECT = "pre_subject"


class MorphemeKind(enum.Enum):
    DROP_CATEGORY = "drop_category"
    INSERT_BEFORE = "insert_before"
    INSERT_AFTER = "insert_after"
    SUFFIX_ON_ROLE = "suffix_on_role"


@dataclass(frozen=True)
class MorphemeRule:
    """One token-sequence rewrite.

    selector meaning depends on kind: a category name for drop_category, an
    anchor surface for the inserts (applies at every occurrence), a role name
    for suffix_on_role. payload is the inserted word sequence or the suffix.
    An anchor and a suffix are one token each, as surfaces are.

    The shape is checked once, here: a rule that does not fit its kind raises
    MalformedDocumentError naming the field. operand keeps what the check
    parsed: the Category to drop, the inserted words, or the Role to suffix.
    """

    kind: MorphemeKind
    selector: str
    payload: str = ""
    ordinal: int = 0
    operand: Category | Role | tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.selector:
            raise MalformedDocumentError("selector", "selector must be non-empty")
        if self.kind is MorphemeKind.DROP_CATEGORY:
            operand = _CATEGORIES.get(self.selector)
            if operand is None:
                raise MalformedDocumentError(
                    "selector", f"drop selector must be a category tag, got {self.selector!r}"
                )
            if self.payload:
                raise MalformedDocumentError("payload", "drop rules take no payload")
        elif self.kind is MorphemeKind.SUFFIX_ON_ROLE:
            operand = _ROLES.get(self.selector)
            if operand is None:
                raise MalformedDocumentError(
                    "selector", f"suffix selector must be a role, got {self.selector!r}"
                )
            if not _is_surface(self.payload):
                raise MalformedDocumentError("payload", f"suffix must be one token, got {self.payload!r}")
        else:
            if not _is_surface(self.selector):
                raise MalformedDocumentError("selector", f"insert anchor must be one token, got {self.selector!r}")
            operand = tuple(self.payload.split())
            if not operand:
                raise MalformedDocumentError("payload", "insert rules need a payload")
        object.__setattr__(self, "operand", operand)


# Unlisted categories place branches before the node in source order.
_DEFAULT_PLACEMENT = (BranchSide.PRE, PostOrder.SOURCE)


# A run of consecutive insert rules fused into one scan of the sequence: an
# anchor surface -> (words inserted before it, words inserted after it), so
# each token costs one lookup. Anchors match only tokens already in the
# sequence, never the words the same pass inserts.
InsertEdits = dict[str, tuple[tuple[str, ...], tuple[str, ...]]]


@dataclass(frozen=True)
class LanguageProfile:
    """A target language, compiled once when built.

    placement maps every Category to its branch (side, post_order); the
    first branch rule for a category wins. passes holds the morpheme rules
    as the engine runs them: one step per pass over the token sequence.
    """

    name: str
    word_order: WordOrder
    verb_placement: VerbPlacement = VerbPlacement.DEFAULT
    branch_rules: tuple[BranchPlacementRule, ...] = ()
    wh_rule: WhRule = WhRule.INITIAL_NO_INVERSION
    morpheme_rules: tuple[MorphemeRule, ...] = ()
    placement: Mapping[Category, tuple[BranchSide, PostOrder]] = field(init=False, repr=False, compare=False)
    passes: tuple[MorphemeRule | InsertEdits, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        placement = dict.fromkeys(_CATEGORIES.values(), _DEFAULT_PLACEMENT)
        for rule in reversed(self.branch_rules):
            placement[rule.category] = (rule.side, rule.post_order)
        object.__setattr__(self, "placement", placement)
        object.__setattr__(self, "passes", _compile_passes(self.morpheme_rules))


def _compile_passes(rules: tuple[MorphemeRule, ...]) -> tuple[MorphemeRule | InsertEdits, ...]:
    """The rules in ordinal order, each run of inserts fused into InsertEdits steps.

    Applied one rule at a time, two inserts on one anchor A give ``W1 W2 A``
    when both go before it and ``A W2 W1`` when both go after it; the fused
    edit keeps that order. A later insert sees an earlier one's words only
    when its anchor is one of them, so a new pass starts there. A drop or a
    suffix ends the run.
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
        if rule.kind is MorphemeKind.INSERT_BEFORE:
            before += rule.operand
        else:
            after = rule.operand + after
        edits[rule.selector] = (before, after)
        inserted.update(rule.operand)
    return tuple(passes)
