"""Turn one structure into a token sequence for a given language profile.

The word order alone fixes the traversal direction: SVO, VOS and OSV read
the ring clockwise, SOV, OVS and VSO counterclockwise. The starting member
of a clausal loop is the subject for S-initial orders, the verb for
V-initial orders, and the first object clockwise from the subject for
O-initial orders; nested clausal loops follow the same rule. Phrasal loops
emit their members from the head onward when clockwise and as the exact
reverse of that list when counterclockwise (the head comes out last).

Branches surround their node according to the profile's placement rules.
V1 and V2 then move the whole verb block. Morpheme rules are NOT applied
here; language-dependent rewrites live in the translation pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .model import Category, Constituent, Loop, LoopKind, Role, Synapper, SynapperError, Token, WordOrder, _role_index
from .profile import BranchSide, LanguageProfile, PostOrder, VerbPlacement


class Direction(enum.Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"


_CLOCKWISE_ORDERS = {WordOrder.SVO, WordOrder.VOS, WordOrder.OSV}
_SUBJECT_INITIAL = {WordOrder.SVO, WordOrder.SOV}
_VERB_INITIAL = {WordOrder.VSO, WordOrder.VOS}


class DegenerateStructureError(SynapperError):
    """The structure produced no tokens at all."""


def direction_of(order: WordOrder) -> Direction:
    return Direction.CLOCKWISE if order in _CLOCKWISE_ORDERS else Direction.COUNTERCLOCKWISE


class PlacedToken(NamedTuple):
    """A linearized token plus where it came from.

    role and block identify the top-level constituent (block is its ring
    index, -1 for tokens added after linearization); unit marks tokens that
    belong to a multiword node, which morpheme drops treat as untouchable.
    An immutable named tuple: ``_replace`` makes a changed copy.
    """

    surface: str
    category: Category
    role: Role | None
    block: int
    unit: bool


@dataclass(frozen=True)
class LinearSentence:
    placed: tuple[PlacedToken, ...]
    word_order: WordOrder
    profile_name: str

    def surfaces(self) -> tuple[str, ...]:
        return tuple(p.surface for p in self.placed)

    def render(self) -> str:
        """Space-joined surfaces with the first character uppercased.

        Stored tokens stay in their lexical case; sentence-initial
        capitalization is purely a rendering concern.
        """
        text = " ".join(p.surface for p in self.placed)
        return text[:1].upper() + text[1:]


def linearize(s: Synapper, p: LanguageProfile) -> LinearSentence:
    direction = direction_of(p.word_order)
    blocks: list[tuple[Role | None, list[PlacedToken]]] = []
    for index in _member_order(s.main, p.word_order, direction):
        member = s.main.members[index]
        placed = [
            PlacedToken(t.surface, t.category, member.role, index, unit)
            for t, unit in _emit_constituent(member, p, direction)
        ]
        blocks.append((member.role, placed))
    blocks = _place_verb(blocks, p.verb_placement)
    flat = tuple(pt for _, block in blocks for pt in block)
    if not flat:
        raise DegenerateStructureError("structure produced no tokens")
    return LinearSentence(placed=flat, word_order=p.word_order, profile_name=p.name)


def _member_order(loop: Loop, order: WordOrder, direction: Direction) -> list[int]:
    n = len(loop.members)
    if n == 0:
        return []
    if loop.kind is LoopKind.PHRASAL:
        seq = [(loop.head_index + i) % n for i in range(n)]
        return seq if direction is Direction.CLOCKWISE else seq[::-1]
    start = _start_index(loop, order)
    if direction is Direction.CLOCKWISE:
        return [(start + i) % n for i in range(n)]
    return [start] + [(start - i) % n for i in range(1, n)]


def _start_index(loop: Loop, order: WordOrder) -> int:
    subject = _role_index(loop, Role.SUBJECT)
    verb = _role_index(loop, Role.VERB)
    if order in _SUBJECT_INITIAL:
        candidates = [subject, verb]
    elif order in _VERB_INITIAL:
        candidates = [verb, subject]
    else:
        candidates = [_first_object_index(loop, subject), subject, verb]
    for candidate in candidates:
        if candidate is not None:
            return candidate
    return 0


def _first_object_index(loop: Loop, subject: int | None) -> int | None:
    n = len(loop.members)
    origin = subject if subject is not None else 0
    for step in range(n):
        idx = (origin + 1 + step) % n
        if loop.members[idx].role is Role.OBJECT:
            return idx
    return None


def _emit_constituent(c: Constituent, p: LanguageProfile, direction: Direction) -> list[tuple[Token, bool]]:
    pre: list = []
    post: list = []
    # Post branches keep stored order except that the Reversed subset is
    # flipped in place; the usual all-Reversed case is a plain reversal.
    reversed_slots: list[int] = []
    for branch in c.branches:
        side, post_order = p.placement[branch.category]
        if side is BranchSide.PRE:
            pre.append(branch)
        else:
            if post_order is PostOrder.REVERSED:
                reversed_slots.append(len(post))
            post.append(branch)
    for slot, branch in zip(reversed_slots, [post[i] for i in reversed(reversed_slots)]):
        post[slot] = branch

    out: list[tuple[Token, bool]] = []
    for branch in pre:
        out.extend((t, False) for t in branch.tokens)
    if c.node is not None:
        unit = len(c.node) > 1
        out.extend((t, unit) for t in c.node)
    else:
        assert c.loop is not None
        out.extend(_emit_loop(c.loop, p, direction))
    for branch in post:
        out.extend((t, False) for t in branch.tokens)
    return out


def _emit_loop(loop: Loop, p: LanguageProfile, direction: Direction) -> list[tuple[Token, bool]]:
    out: list[tuple[Token, bool]] = []
    for index in _member_order(loop, p.word_order, direction):
        out.extend(_emit_constituent(loop.members[index], p, direction))
    return out


def _place_verb(
    blocks: list[tuple[Role | None, list[PlacedToken]]], placement: VerbPlacement
) -> list[tuple[Role | None, list[PlacedToken]]]:
    if placement is VerbPlacement.DEFAULT or len(blocks) < 2:
        return blocks
    verb_at = next((i for i, (role, _) in enumerate(blocks) if role is Role.VERB), None)
    if verb_at is None:
        return blocks
    rest = blocks[:verb_at] + blocks[verb_at + 1 :]
    target = 0 if placement is VerbPlacement.V1 else min(1, len(rest))
    return rest[:target] + [blocks[verb_at]] + rest[target:]
