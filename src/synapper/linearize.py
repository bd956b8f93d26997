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
they share. A LinearSentence is its runs, and only its ``placed`` builds
PlacedTokens from them. Morpheme rules are NOT applied here; they rewrite
runs in the translation pipeline.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter

from .model import (
    Branch,
    Constituent,
    Loop,
    LoopKind,
    Role,
    Synapper,
    SynapperError,
    Token,
    WordOrder,
    _Value,
    _set,
)
from .profile import LanguageProfile, PostOrder, VerbPlacement


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


PlacedToken = namedtuple("PlacedToken", ("surface", "category", "role", "block", "unit"))
PlacedToken.__doc__ = """A linearized token plus where it came from.

    surface is a str, category a Category, role a Role or None, block an int
    and unit a bool. role and block identify the top-level constituent
    (block is its ring index, -1 for tokens added after linearization); unit
    marks tokens that belong to a multiword node, which morpheme drops treat
    as untouchable. An immutable named tuple: ``_replace`` makes a changed
    copy.
    """

# PlacedToken(...) runs the named tuple's generated __new__ as a Python
# frame; building the same tuple directly takes one C call per token.
_placed = partial(tuple.__new__, PlacedToken)

_surface = attrgetter("surface")
_category = attrgetter("category")
_tokens = itemgetter(0)

# (tokens, role, block, unit): a node's or branch's own Tokens as linearize
# writes them, or one PlacedToken each in a LinearSentence(placed).
_Run = tuple[tuple[Token, ...], Role | None, int, bool]


class LinearSentence(_Value):
    """A linearized sentence, stored as its runs; ``placed`` is its PlacedTokens, in order.

    ``placed`` gives each token its run's role, block and unit flag; it is
    built when first read (or given, to ``LinearSentence(placed)``) and
    kept. ``len``, iteration, ``render`` and ``surfaces`` read the runs'
    tokens, so a sentence that is only rendered builds no PlacedToken.
    Equality, hash, repr and pickling go through ``placed``.
    """

    __slots__ = ("_runs", "_placed")
    __match_args__ = ("placed",)

    def __init__(self, placed: tuple[PlacedToken, ...]) -> None:
        _set(self, "_runs", [((pt,), pt.role, pt.block, pt.unit) for pt in placed])
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

    def __len__(self) -> int:
        return sum(map(len, map(_tokens, self._runs)))

    def __iter__(self) -> Iterator[Token | PlacedToken]:
        """Every token of the runs in order, each with a surface and a category."""
        return chain.from_iterable(map(_tokens, self._runs))

    def surfaces(self) -> tuple[str, ...]:
        return tuple(map(_surface, self))

    def render(self) -> str:
        """Space-joined surfaces with the first character uppercased.

        Stored tokens stay in their lexical case; sentence-initial
        capitalization is purely a rendering concern. Reads the surfaces
        without building ``placed``.
        """
        text = " ".join(map(_surface, self))
        return text[:1].upper() + text[1:]


def linearize(s: Synapper, p: LanguageProfile) -> LinearSentence:
    return LinearSentence._of_runs(_emit_members(s, p, _sentence_order(s, p)))


def _expand(runs: list[_Run]) -> tuple[PlacedToken, ...]:
    """One PlacedToken per token of the runs, in order."""
    return tuple([_placed((t.surface, t.category, role, block, unit)) for tokens, role, block, unit in runs for t in tokens])


def _sentence_order(s: Synapper, p: LanguageProfile) -> list[int]:
    """The main loop's ring indices in sentence order: the ring walk, then V1/V2."""
    order = _reading_order(s.main, [*range(len(s.main.members))], p.word_order)
    return _place_verb(order, s.main, p.verb_placement)


def _emit_members(s: Synapper, p: LanguageProfile, order: list[int]) -> list[_Run]:
    """The runs of the main loop's members in this order; block is the ring index.

    A leaf, a node without branches, is written here; only a nested loop or
    a node with branches takes an _emit frame.
    """
    out: list[_Run] = []
    members = s.main.members
    for index in order:
        c = members[index]
        node = c.node
        if node is None or c.branches:
            _emit(c, c.role, index, p, out)
        else:
            out.append((node, c.role, index, len(node) > 1))
    if not any(map(_tokens, out)):
        raise DegenerateStructureError("structure produced no tokens")
    return out


def _reading_order(
    loop: Loop, items: list[int] | tuple[Constituent, ...], order: WordOrder
) -> list[int] | tuple[Constituent, ...]:
    """items, one per member of loop in ring order, in order's reading order.

    The main loop reads its ring indices through this, a nested loop its
    members.
    """
    if not items:
        return items
    clockwise, first = _READING[order]
    if loop.kind is LoopKind.PHRASAL:
        start = loop.head_index % len(items)
        seq = items[start:] + items[:start]
        # Counterclockwise the head comes last.
        return seq if clockwise else seq[::-1]
    start = _start_index(loop, first)
    seq = items[start:] + items[:start]
    # Counterclockwise a clausal start stays first.
    return seq if clockwise else seq[:1] + seq[:0:-1]


def _start_index(loop: Loop, first: Role) -> int:
    """The first member with this role, else the subject, else the verb, else member 0."""
    roles = loop.roles
    if first in roles:
        if first is not Role.OBJECT:
            return roles.index(first)
        # The first object clockwise after the subject, or after member 0.
        after = roles.index(Role.SUBJECT) + 1 if Role.SUBJECT in roles else 1
        return roles.index(first, after) if first in roles[after:] else roles.index(first)
    if Role.SUBJECT in roles:
        return roles.index(Role.SUBJECT)
    return roles.index(Role.VERB) if Role.VERB in roles else 0


def _place_verb(order: list[int], loop: Loop, placement: VerbPlacement) -> list[int]:
    if placement is VerbPlacement.DEFAULT or len(order) < 2:
        return order
    roles = [*map(loop.roles.__getitem__, order)]
    if Role.VERB not in roles:
        return order
    verb = order.pop(roles.index(Role.VERB))
    order.insert(0 if placement is VerbPlacement.V1 else 1, verb)
    return order


def _emit(c: Constituent, role: Role | None, block: int, p: LanguageProfile, out: list[_Run]) -> None:
    """Append the runs of c, a nested loop or a node with branches, to out; all carry role and block.

    A nested loop's members are read in reading order off the loop's member
    tuple, and its leaves are written in this frame.
    """
    loop = c.loop
    if loop is not None:
        for m in _reading_order(loop, loop.members, p.word_order):
            node = m.node
            if node is None or m.branches:
                _emit(m, role, block, p, out)
            else:
                out.append((node, role, block, len(node) > 1))
        return
    # Post branches keep stored order, except that each Reversed slot (None
    # here) takes the last Reversed branch not yet written: that subset flips.
    pre = p.pre_categories
    post: list[Branch | None] = []
    flipped: list[Branch] = []
    for branch in c.branches:
        category = branch.category
        if category in pre:
            out.append((branch.tokens, role, block, False))
        elif p.placement[category][1] is PostOrder.REVERSED:
            flipped.append(branch)
            post.append(None)
        else:
            post.append(branch)
    node = c.node
    out.append((node, role, block, len(node) > 1))  # type: ignore[arg-type]
    for branch in post:
        out.append(((branch or flipped.pop()).tokens, role, block, False))
