"""Syntax-based translation: swap lexemes, relinearize, rewrite morphemes.

The structure never changes during translation. Lexical substitution maps
each (surface, category) pair to a target surface; linearization under the
target profile produces the new order; morpheme rules then add, change or
remove language-dependent tokens on the flat sequence. Tokens that belong
to a multiword node are treated as one fused unit, so category drops never
reach inside them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .linearize import LinearSentence, PlacedToken, _placed, linearize
from .model import (
    Branch,
    Category,
    Constituent,
    Loop,
    Synapper,
    SynapperError,
    Token,
    _is_surface,
    iter_tokens,
)
from .profile import InsertEdits, LanguageProfile, MorphemeKind, MorphemeRule


class Lexicon:
    """Immutable mapping from (surface, category) to a target surface.

    Source and target must each be one token surface (``model._is_surface``);
    any other pair raises SynapperError naming it.
    """

    def __init__(self, entries: Mapping[tuple[str, Category], str]):
        self._entries = dict(entries)
        for (source, category), target in self._entries.items():
            if not (_is_surface(source) and _is_surface(target)):
                raise SynapperError(
                    f"lexicon entry {source!r}/{category.value} -> {target!r}: "
                    "source and target must be single tokens without whitespace"
                )

    def lookup(self, surface: str, category: Category) -> str | None:
        return self._entries.get((surface, category))

    def __len__(self) -> int:
        return len(self._entries)


def identity_lexicon(s: Synapper) -> Lexicon:
    return Lexicon({(t.surface, t.category): t.surface for t in iter_tokens(s)})


class MissingLexemeError(SynapperError):
    """Raised with the complete list of uncovered (surface, category) pairs."""

    def __init__(self, pairs: list[tuple[str, Category]]):
        self.pairs = tuple(sorted(set(pairs), key=lambda p: (p[0], p[1].value)))
        listed = ", ".join(f"{s!r}/{c.value}" for s, c in self.pairs)
        super().__init__(f"lexicon misses {len(self.pairs)} pairs: {listed}")


def substitute_lexemes(s: Synapper, lex: Lexicon) -> Synapper:
    """Swap every token's surface in one walk; uncovered pairs raise together at the end."""
    missing: list[tuple[str, Category]] = []
    main = _substitute_loop(s.main, lex, missing)
    if missing:
        raise MissingLexemeError(missing)
    return replace(s, main=main)


def _substitute_loop(loop: Loop, lex: Lexicon, missing: list[tuple[str, Category]]) -> Loop:
    return replace(loop, members=tuple(_substitute_member(m, lex, missing) for m in loop.members))


def _substitute_member(c: Constituent, lex: Lexicon, missing: list[tuple[str, Category]]) -> Constituent:
    if c.loop is not None:
        return Constituent(role=c.role, loop=_substitute_loop(c.loop, lex, missing))
    branches = tuple(
        Branch(tokens=_substitute_tokens(b.tokens, lex, missing), category=b.category)
        for b in c.branches
    )
    return Constituent(role=c.role, node=_substitute_tokens(c.node, lex, missing), branches=branches)


def _substitute_tokens(tokens: tuple[Token, ...], lex: Lexicon, missing: list[tuple[str, Category]]) -> tuple[Token, ...]:
    out = []
    for t in tokens:
        target = lex.lookup(t.surface, t.category)
        if target is None:
            missing.append((t.surface, t.category))
        else:
            out.append(_target_token(target, t.category))
    return tuple(out)


def _target_token(surface: str, category: Category) -> Token:
    """A Token for a lexicon target, built without rerunning the surface rule Lexicon checked."""
    token = object.__new__(Token)
    object.__setattr__(token, "surface", surface)
    object.__setattr__(token, "category", category)
    return token


def apply_morpheme_rules(sentence: LinearSentence, p: LanguageProfile) -> LinearSentence:
    placed = sentence.placed
    for step in p.passes:
        placed = _apply_rule(placed, step)
    return LinearSentence(placed)


def _apply_rule(placed: tuple[PlacedToken, ...], step: MorphemeRule | InsertEdits) -> tuple[PlacedToken, ...]:
    """One pass over the whole sequence: a drop, a suffix, or a fused run of inserts."""
    if isinstance(step, dict):
        out: list[PlacedToken] = []
        for pt in placed:
            edit = step.get(pt.surface)
            if edit is None:
                out.append(pt)
            else:
                out.extend(_inserted(edit[0]))
                out.append(pt)
                out.extend(_inserted(edit[1]))
        return tuple(out)
    if step.kind is MorphemeKind.DROP_CATEGORY:
        category = step.operand
        return tuple(pt for pt in placed if pt.unit or pt.category is not category)
    assert step.kind is MorphemeKind.SUFFIX_ON_ROLE
    role = step.operand
    last = None
    for i, pt in enumerate(placed):
        if pt.role is role:
            last = i
    if last is None:
        return placed
    target = placed[last]
    patched = target._replace(surface=target.surface + step.payload)
    return placed[:last] + (patched,) + placed[last + 1 :]


def _inserted(words: tuple[str, ...]) -> list[PlacedToken]:
    return [_placed((w, Category.OTHER, None, -1, False)) for w in words]


def translate(s: Synapper, lex: Lexicon, p: LanguageProfile) -> LinearSentence:
    """Substitute lexemes, linearize, rewrite; linearize never reads surface_subject_final."""
    return apply_morpheme_rules(linearize(substitute_lexemes(s, lex), p), p)
