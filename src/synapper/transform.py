"""Declarative and interrogative surface transforms.

A question is the sentence's tokens plus one WH word. _question is the only
code that decides its form: it writes the tokens, swapping the subject's and
the verb's ring indices first under initial_inversion (the same kind of move
as V1/V2 in linearize), and picks the WH slot: first, or right before the
subject block under pre_subject. interrogativize puts the given WH word in
that slot. The inverse direction needs the structural skeleton back, because
a raw token sequence underdetermines the ring; declarativize and
parse_question read the skeleton's question from _question and compare it
with the one given.
"""

from __future__ import annotations

from operator import itemgetter

from .linearize import LinearSentence, PlacedToken, _emit_members, _expand, _placed, _sentence_order
from .model import Category, Role, Synapper, SynapperError, Token, _is_surface
from .profile import LanguageProfile, WhRule


_surface_category = itemgetter(0, 1)
_category = itemgetter(1)
_role = itemgetter(2)


def wh_token(surface: str) -> Token:
    """A WH token is an ordinary token whose category is WH."""
    return Token(surface, Category.WH)


class WhAlreadyPresentError(SynapperError):
    pass


class NoWhFoundError(SynapperError):
    pass


class InversionMismatchError(SynapperError):
    pass


def interrogativize(s: Synapper, wh: Token, p: LanguageProfile) -> LinearSentence:
    if wh.category is not Category.WH:
        raise ValueError("the wh argument must be a token with category WH")
    return LinearSentence(_with_wh(*_question(s, p), wh.surface))


def declarativize(q: LinearSentence, s_hint: Synapper, p: LanguageProfile) -> Synapper:
    """Strip the question marking from q and return the declarative structure.

    q must equal interrogativize(s_hint, its first WH token, p) token for
    token; anything else is an InversionMismatch. A q without any WH token
    raises NoWhFound.
    """
    wh = next((pt for pt in q.placed if pt.category is Category.WH), None)
    if wh is None:
        raise NoWhFoundError("sentence has no WH token")
    if not _is_surface(wh.surface):
        raise InversionMismatchError(f"WH surface {wh.surface!r} is not a single token")
    expected = _with_wh(*_question(s_hint, p), wh.surface)
    if [*map(_surface_category, q.placed)] != [*map(_surface_category, expected)]:
        raise InversionMismatchError("question does not match the skeleton's interrogative form")
    return s_hint


def parse_question(text: str, s: Synapper, p: LanguageProfile) -> LinearSentence:
    """Read question text as the interrogative form of s under p.

    The WH word is the text's word in the slot interrogativize puts it in,
    as written; every other token comes from s. Any text that is not that
    question's rendering raises InversionMismatchError.
    """
    words = text.split()
    placed, at = _question(s, p)
    if len(words) != len(placed) + 1:
        raise InversionMismatchError("question does not add exactly one token to the declarative")
    q = LinearSentence(_with_wh(placed, at, words[at]))
    if q.render() != " ".join(words):
        raise InversionMismatchError("question does not match the structure's interrogative form")
    return q


def _question(s: Synapper, p: LanguageProfile) -> tuple[tuple[PlacedToken, ...], int]:
    """s's tokens in its question's order under p, and the slot the WH word takes."""
    order = _sentence_order(s, p)
    if p.wh_rule is WhRule.INITIAL_WITH_INVERSION:
        _swap_subject_verb(order, s)
    placed = _expand(_emit_members(s, p, order))
    if Category.WH in map(_category, placed):
        raise WhAlreadyPresentError("structure already contains a WH token")
    if p.wh_rule is WhRule.PRE_SUBJECT:
        roles = [*map(_role, placed)]
        return placed, roles.index(Role.SUBJECT) if Role.SUBJECT in roles else 0
    return placed, 0


def _with_wh(placed: tuple[PlacedToken, ...], at: int, surface: str) -> tuple[PlacedToken, ...]:
    return placed[:at] + (_placed((surface, Category.WH, None, -1, False)),) + placed[at:]


def _swap_subject_verb(order: list[int], s: Synapper) -> None:
    members = s.main.members
    subject_at = next((i for i, index in enumerate(order) if members[index].role is Role.SUBJECT), None)
    verb_at = next((i for i, index in enumerate(order) if members[index].role is Role.VERB), None)
    if subject_at is not None and verb_at is not None:
        order[subject_at], order[verb_at] = order[verb_at], order[subject_at]
