"""Declarative/interrogative surface transforms and subject-position repair.

Interrogativization is a surface operation over the linearized sentence:
depending on the profile it prepends the WH token with or without
subject/verb inversion, or slots it right before the subject block.
The inverse direction needs the structural skeleton back, because a raw
token sequence underdetermines the ring; declarativize verifies that the
question really is the skeleton's interrogative form and hands the
skeleton back.
"""

from __future__ import annotations

from dataclasses import replace

from .linearize import LinearSentence, PlacedToken, linearize
from .model import Category, Role, Synapper, SynapperError, Token, iter_tokens
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


def interrogativize(s: Synapper, wh: Token, p: LanguageProfile) -> LinearSentence:
    if wh.category is not Category.WH:
        raise ValueError("the wh argument must be a token with category WH")
    if any(t.category is Category.WH for t in iter_tokens(s)):
        raise WhAlreadyPresentError("structure already contains a WH token")
    base = linearize(s, p)
    mark = PlacedToken(wh.surface, Category.WH, None, -1, False)
    if p.wh_rule is WhRule.INITIAL_WITH_INVERSION:
        placed = (mark,) + _swap_subject_verb(base.placed)
    elif p.wh_rule is WhRule.INITIAL_NO_INVERSION:
        placed = (mark,) + base.placed
    else:
        placed = _insert_before_subject(base.placed, mark)
    return LinearSentence(placed=placed, word_order=base.word_order, profile_name=base.profile_name)


def declarativize(q: LinearSentence, s_hint: Synapper, p: LanguageProfile) -> Synapper:
    """Strip the question marking from q and return the declarative structure.

    q must be the interrogative form of s_hint under p; anything else is an
    InversionMismatch. A q without any WH token raises NoWhFound.
    """
    if not any(pt.category is Category.WH for pt in q.placed):
        raise NoWhFoundError("sentence has no WH token")
    if p.wh_rule in (WhRule.INITIAL_WITH_INVERSION, WhRule.INITIAL_NO_INVERSION):
        if q.placed[0].category is not Category.WH:
            raise InversionMismatchError("the WH token is not sentence-initial")
        rest = q.placed[1:]
        if p.wh_rule is WhRule.INITIAL_WITH_INVERSION:
            rest = _swap_subject_verb(rest)
    else:
        first_wh = next(i for i, pt in enumerate(q.placed) if pt.category is Category.WH)
        rest = q.placed[:first_wh] + q.placed[first_wh + 1 :]
    expected = linearize(s_hint, p)
    if [(pt.surface, pt.category) for pt in rest] != [(pt.surface, pt.category) for pt in expected.placed]:
        raise InversionMismatchError("question does not match the skeleton's interrogative form")
    return s_hint


def normalize_subject_position(s: Synapper) -> Synapper:
    """Clear the subject-final surface flag; the ring itself never moves."""
    if not s.surface_subject_final:
        return s
    return replace(s, surface_subject_final=False)


def _split_runs(placed: tuple[PlacedToken, ...]) -> list[list[PlacedToken]]:
    runs: list[list[PlacedToken]] = []
    for pt in placed:
        if runs and runs[-1][0].block == pt.block and pt.block != -1:
            runs[-1].append(pt)
        else:
            runs.append([pt])
    return runs


def _swap_subject_verb(placed: tuple[PlacedToken, ...]) -> tuple[PlacedToken, ...]:
    runs = _split_runs(placed)
    subject_at = next((i for i, run in enumerate(runs) if run[0].role is Role.SUBJECT), None)
    verb_at = next((i for i, run in enumerate(runs) if run[0].role is Role.VERB), None)
    if subject_at is None or verb_at is None:
        return placed
    runs[subject_at], runs[verb_at] = runs[verb_at], runs[subject_at]
    return tuple(pt for run in runs for pt in run)


def _insert_before_subject(placed: tuple[PlacedToken, ...], mark: PlacedToken) -> tuple[PlacedToken, ...]:
    at = next((i for i, pt in enumerate(placed) if pt.role is Role.SUBJECT), 0)
    return placed[:at] + (mark,) + placed[at:]
