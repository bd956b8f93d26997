"""Turn one structure into a token sequence for a given language profile.

Each word order is one reading of the ring, one row of _READING: a
direction and the role of the member the reading starts from. SVO, VOS
and OSV read clockwise, SOV, OVS and VSO counterclockwise; SVO and SOV
start from the subject, VSO and VOS from the verb, OSV and OVS from an
object. A clausal loop starts at its first member with that role (for an
object, the first one clockwise from the subject); without one, at the
subject, then at the verb, then at member 0. Nested clausal loops follow
the same rule. Phrasal loops emit their members from the head onward when
clockwise and as the exact reverse of that list when counterclockwise
(the head comes out last).

The main loop's member order is decided first, on ring indices: the walk
above, then V1 or V2 moves the verb's index to first or second place
(question inversion in transform is one more such move). Each member is
then written once, in that order, with branches around their node
according to the profile's placement rules. What is written is one run
per node and per branch: its tokens plus the role, block and unit flag
they share. The sentence's PlacedTokens are built from the runs only when
``placed`` is first read; rendering reads the runs' surfaces directly.
Morpheme rules are NOT applied here; language-dependent rewrites live in
the translation pipeline.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from operator import attrgetter, itemgetter

from .model import (
    Branch,
    Constituent,
    Loop,
    LoopKind,
    PlacedToken,
    Role,
    Synapper,
    SynapperError,
    Token,
    WordOrder,
    _Value,
    _placed,
    _role_index,
    _set,
)
from .profile import BranchSide, LanguageProfile, PostOrder, VerbPlacement


# Each word order: (reads clockwise, role of its first member).
_READING = {
    WordOrder.SVO: (True, Role.SUBJECT),
    WordOrder.SOV: (False, Role.SUBJECT),
    WordOrder.VSO: (False, Role.VERB),
    WordOrder.VOS: (True, Role.VERB),
    WordOrder.OSV: (True, Role.OBJECT),
    WordOrder.OVS: (False, Role.OBJECT),
}


class DegenerateStructureError(SynapperError):
    """The structure produced no tokens at all."""


_surface = attrgetter("surface")
_tokens = itemgetter(0)

# One run per node or branch that linearize writes: (tokens, role, block,
# unit), where tokens is the node's or branch's own tuple of Tokens.
_Run = tuple[tuple[Token, ...], Role | None, int, bool]


class LinearSentence(_Value):
    """A linearized sentence: its PlacedTokens, in order, as ``placed``.

    linearize and interrogativize store their runs and build ``placed``
    from them when it is first read, then keep it; ``render`` and
    ``surfaces`` read the runs' surfaces directly, so a sentence that is
    only rendered never builds a PlacedToken. Equality, hash, repr and
    pickling go through ``placed``.
    """

    __slots__ = ("_runs", "_placed")
    __match_args__ = ("placed",)

    def __init__(self, placed: tuple[PlacedToken, ...]) -> None:
        _set(self, "_runs", None)
        _set(self, "_placed", placed)

    @classmethod
    def _of_runs(cls, runs: list[_Run]) -> LinearSentence:
        sentence = cls.__new__(cls)
        _set(sentence, "_runs", runs)
        _set(sentence, "_placed", None)
        return sentence

    @property
    def placed(self) -> tuple[PlacedToken, ...]:
        placed = self._placed
        if placed is None:
            placed = _expand(self._runs)
            _set(self, "_placed", placed)
        return placed

    def _written(self) -> Iterable[Token | PlacedToken]:
        """Every token in order, each with a surface: the runs' Tokens or the PlacedTokens."""
        runs = self._runs
        return self._placed if runs is None else chain.from_iterable(map(_tokens, runs))

    def surfaces(self) -> tuple[str, ...]:
        return tuple(map(_surface, self._written()))

    def render(self) -> str:
        """Space-joined surfaces with the first character uppercased.

        Stored tokens stay in their lexical case; sentence-initial
        capitalization is purely a rendering concern. Reads the surfaces
        without building ``placed``.
        """
        text = " ".join(map(_surface, self._written()))
        return text[:1].upper() + text[1:]


def linearize(s: Synapper, p: LanguageProfile) -> LinearSentence:
    return LinearSentence._of_runs(_emit_members(s, p, _sentence_order(s, p)))


def _expand(runs: list[_Run]) -> tuple[PlacedToken, ...]:
    """One PlacedToken per token of the runs, in order."""
    return tuple([_placed((t.surface, t.category, role, block, unit)) for tokens, role, block, unit in runs for t in tokens])


def _sentence_order(s: Synapper, p: LanguageProfile) -> list[int]:
    """The main loop's ring indices in sentence order: the ring walk, then V1/V2."""
    order = _member_order(s.main, p.word_order)
    return _place_verb(order, s.main, p.verb_placement)


def _emit_members(s: Synapper, p: LanguageProfile, order: list[int]) -> list[_Run]:
    """The runs of the main loop's members in this order; block is the ring index."""
    out: list[_Run] = []
    for index in order:
        member = s.main.members[index]
        _emit(member, member.role, index, p, out)
    if not any(map(_tokens, out)):
        raise DegenerateStructureError("structure produced no tokens")
    return out


def _member_order(loop: Loop, order: WordOrder) -> list[int]:
    n = len(loop.members)
    if n == 0:
        return []
    clockwise, first = _READING[order]
    phrasal = loop.kind is LoopKind.PHRASAL
    start = loop.head_index % n if phrasal else _start_index(loop, first)
    seq = [*range(start, n), *range(start)]
    if clockwise:
        return seq
    # Counterclockwise a phrasal head comes last; a clausal start stays first.
    return seq[::-1] if phrasal else seq[:1] + seq[:0:-1]


def _start_index(loop: Loop, first: Role) -> int:
    """The first member with this role, else the subject, else the verb, else member 0."""
    if first is Role.OBJECT:
        start = _first_object_index(loop, _role_index(loop, Role.SUBJECT))
    else:
        start = _role_index(loop, first)
    if start is None and first is not Role.SUBJECT:
        start = _role_index(loop, Role.SUBJECT)
    if start is None:
        start = _role_index(loop, Role.VERB)
    return 0 if start is None else start


def _first_object_index(loop: Loop, subject: int | None) -> int | None:
    n = len(loop.members)
    after = (subject if subject is not None else 0) + 1
    for idx in (*range(after, n), *range(after)):
        if loop.members[idx].role is Role.OBJECT:
            return idx
    return None


def _place_verb(order: list[int], loop: Loop, placement: VerbPlacement) -> list[int]:
    if placement is VerbPlacement.DEFAULT or len(order) < 2:
        return order
    verb = next((i for i in order if loop.members[i].role is Role.VERB), None)
    if verb is None:
        return order
    order.remove(verb)
    order.insert(0 if placement is VerbPlacement.V1 else 1, verb)
    return order


def _emit(c: Constituent, role: Role | None, block: int, p: LanguageProfile, out: list[_Run]) -> None:
    """Append c's runs, with nested loops and branches, to out; all carry role and block."""
    node = c.node
    if node is None:
        assert c.loop is not None
        for index in _member_order(c.loop, p.word_order):
            _emit(c.loop.members[index], role, block, p, out)
        return
    if not c.branches:
        out.append((node, role, block, len(node) > 1))
        return
    # Post branches keep stored order, except that each Reversed slot (None
    # here) takes the last Reversed branch not yet written: that subset flips.
    post: list[Branch | None] = []
    flipped: list[Branch] = []
    for branch in c.branches:
        side, post_order = p.placement[branch.category]
        if side is BranchSide.PRE:
            out.append((branch.tokens, role, block, False))
        elif post_order is PostOrder.REVERSED:
            flipped.append(branch)
            post.append(None)
        else:
            post.append(branch)
    out.append((node, role, block, len(node) > 1))
    for branch in post:
        out.append(((branch or flipped.pop()).tokens, role, block, False))
