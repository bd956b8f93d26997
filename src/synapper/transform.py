"""Declarative and interrogative surface transforms.

Interrogativization decides where the WH token goes: depending on the
profile it is prepended, with or without subject/verb inversion, or slotted
right before the subject block. Inversion swaps the subject's and the verb's
ring indices in the sentence's member order before anything is written, the
same kind of move as V1/V2 in linearize.
interrogativize is the only definition of that form. The inverse
direction needs the structural skeleton back, because a raw token
sequence underdetermines the ring; declarativize and parse_question
rebuild the skeleton's question and compare it with the one given.
"""

from __future__ import annotations

from .linearize import LinearSentence, PlacedToken, _emit_members, _sentence_order
from .model import Category, Role, Synapper, SynapperError, Token
from .profile import LanguageProfile, WhRule


def wh_token(surface: str) -> Token:
    """A WH token is an ordinary token whose category is WH."""
    return Token(surface, Category.WH)


class WhAlreadyPresentError(SynapperError):
    pass


class NoWhFoundError(SynapperError):
    pass


class InversionMismatchError(SynapperError):
    pass


# Marks the WH slot while parse_question looks for it; any surface would do.
_SLOT = wh_token("?")


def interrogativize(s: Synapper, wh: Token, p: LanguageProfile) -> LinearSentence:
    if wh.category is not Category.WH:
        raise ValueError("the wh argument must be a token with category WH")
    order = _sentence_order(s, p)
    if p.wh_rule is WhRule.INITIAL_WITH_INVERSION:
        _swap_subject_verb(order, s)
    placed = _emit_members(s, p, order)
    if any(pt.category is Category.WH for pt in placed):
        raise WhAlreadyPresentError("structure already contains a WH token")
    mark = PlacedToken(wh.surface, Category.WH, None, -1, False)
    if p.wh_rule is WhRule.PRE_SUBJECT:
        return LinearSentence(_insert_before_subject(placed, mark))
    return LinearSentence((mark,) + placed)


def declarativize(q: LinearSentence, s_hint: Synapper, p: LanguageProfile) -> Synapper:
    """Strip the question marking from q and return the declarative structure.

    q must equal interrogativize(s_hint, its first WH token, p) token for
    token; anything else is an InversionMismatch. A q without any WH token
    raises NoWhFound.
    """
    wh = next((pt for pt in q.placed if pt.category is Category.WH), None)
    if wh is None:
        raise NoWhFoundError("sentence has no WH token")
    try:
        token = wh_token(wh.surface)
    except ValueError:
        raise InversionMismatchError(f"WH surface {wh.surface!r} is not a single token") from None
    expected = interrogativize(s_hint, token, p)
    if [(pt.surface, pt.category) for pt in q.placed] != [(pt.surface, pt.category) for pt in expected.placed]:
        raise InversionMismatchError("question does not match the skeleton's interrogative form")
    return s_hint


def parse_question(text: str, s: Synapper, p: LanguageProfile) -> LinearSentence:
    """Read question text as the interrogative form of s under p.

    The WH word is the text's word in the slot interrogativize puts it in,
    as written; every other token comes from s. Any text that is not that
    question's rendering raises InversionMismatchError.
    """
    words = text.split()
    slot = interrogativize(s, _SLOT, p).placed
    if len(words) != len(slot):
        raise InversionMismatchError("question does not add exactly one token to the declarative")
    at = next(i for i, pt in enumerate(slot) if pt.category is Category.WH)
    q = LinearSentence(slot[:at] + (slot[at]._replace(surface=words[at]),) + slot[at + 1 :])
    if q.render() != " ".join(words):
        raise InversionMismatchError("question does not match the structure's interrogative form")
    return q


def _swap_subject_verb(order: list[int], s: Synapper) -> None:
    members = s.main.members
    subject_at = next((i for i, index in enumerate(order) if members[index].role is Role.SUBJECT), None)
    verb_at = next((i for i, index in enumerate(order) if members[index].role is Role.VERB), None)
    if subject_at is not None and verb_at is not None:
        order[subject_at], order[verb_at] = order[verb_at], order[subject_at]


def _insert_before_subject(placed: tuple[PlacedToken, ...], mark: PlacedToken) -> tuple[PlacedToken, ...]:
    at = next((i for i, pt in enumerate(placed) if pt.role is Role.SUBJECT), 0)
    return placed[:at] + (mark,) + placed[at:]
