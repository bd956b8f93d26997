"""Declarative and interrogative surface transforms.

A question is the sentence's tokens plus one WH word. _question is the only
code that decides its form: it writes the sentence's runs (one per node and
per branch, as linearize writes them), swapping the subject's and the verb's
ring indices first under initial_inversion (the same kind of move as V1/V2
in linearize), and picks the WH slot as a run index: 0, or the subject's
first run under pre_subject. interrogativize puts the given WH token there
as a run of its own, so a question is runs too and builds no PlacedToken
until its ``placed`` is read. The inverse direction needs the structural
skeleton back, because a raw token sequence underdetermines the ring;
declarativize and parse_question read the skeleton's question from
_question and compare it with the one given: declarativize by its runs
when they are equal, else by the (surface, category) pairs of q's tokens,
parse_question by the rendering.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

from .linearize import LinearSentence, _category, _emit_members, _Run, _sentence_order, _tokens
from .model import Category, Role, Synapper, SynapperError, Token, _is_surface
from .profile import LanguageProfile, WhRule


_surface_category = attrgetter("surface", "category")


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
    return LinearSentence._of_runs(_with_wh(*_question(s, p), wh))


def declarativize(q: LinearSentence, s_hint: Synapper, p: LanguageProfile) -> Synapper:
    """Strip the question marking from q and return the declarative structure.

    q must equal interrogativize(s_hint, its first WH token, p) token for
    token; anything else is an InversionMismatch. A q without any WH token
    raises NoWhFound. q's tokens are read off its runs, and nothing is built
    for them: no Token and no PlacedToken.

    Runs are compared first: when q holds runs equal to the expected
    question's, its tokens are equal too, and a q written from s_hint holds
    s_hint's own token tuples, so that comparison is mostly identity hits.
    Any other q (runs that differ, say in a ring index, or a q built from
    PlacedTokens) is compared by the (surface, category) pair of each token.
    """
    wh = next((t for t in q if t.category is Category.WH), None)
    if wh is None:
        raise NoWhFoundError("sentence has no WH token")
    if not _is_surface(wh.surface):
        raise InversionMismatchError(f"WH surface {wh.surface!r} is not a single token")
    expected = _with_wh(*_question(s_hint, p), wh)
    if q._runs != expected and [*map(_surface_category, q)] != [
        *map(_surface_category, chain.from_iterable(map(_tokens, expected)))
    ]:
        raise InversionMismatchError("question does not match the skeleton's interrogative form")
    return s_hint


def parse_question(text: str, s: Synapper, p: LanguageProfile) -> LinearSentence:
    """Read question text as the interrogative form of s under p.

    The WH word is the text's word in the slot interrogativize puts it in,
    as written; every other token comes from s. Any text that is not that
    question's rendering raises InversionMismatchError.
    """
    words = text.split()
    runs, at = _question(s, p)
    sizes = [*map(len, map(_tokens, runs))]
    if len(words) != sum(sizes) + 1:
        raise InversionMismatchError("question does not add exactly one token to the declarative")
    q = LinearSentence._of_runs(_with_wh(runs, at, wh_token(words[sum(sizes[:at])])))
    if q.render() != " ".join(words):
        raise InversionMismatchError("question does not match the structure's interrogative form")
    return q


def _question(s: Synapper, p: LanguageProfile) -> tuple[list[_Run], int]:
    """s's runs in its question's order under p, and the run index the WH word takes."""
    order = _sentence_order(s, p)
    if p.wh_rule is WhRule.INITIAL_WITH_INVERSION:
        _swap_subject_verb(order, s)
    runs = _emit_members(s, p, order)
    if Category.WH in map(_category, chain.from_iterable(map(_tokens, runs))):
        raise WhAlreadyPresentError("structure already contains a WH token")
    if p.wh_rule is WhRule.PRE_SUBJECT:
        # Right before the subject's first token: a code-built empty run
        # holds none, so it does not count.
        for i, (tokens, role, _, _) in enumerate(runs):
            if role is Role.SUBJECT and tokens:
                return runs, i
    return runs, 0


def _with_wh(runs: list[_Run], at: int, wh: Token) -> list[_Run]:
    """runs with wh as one more run at index at; wh may be any token with a surface and a category."""
    runs.insert(at, ((wh,), None, -1, False))
    return runs


def _swap_subject_verb(order: list[int], s: Synapper) -> None:
    roles = [*map(s.main.roles.__getitem__, order)]
    try:
        subject_at, verb_at = roles.index(Role.SUBJECT), roles.index(Role.VERB)
    except ValueError:  # no subject or no verb: nothing to swap
        return
    order[subject_at], order[verb_at] = order[verb_at], order[subject_at]
