"""Syntax-based translation: swap lexemes, relinearize, rewrite morphemes.

The structure never changes during translation. Lexical substitution maps
each (surface, category) pair to a target surface; linearization under the
target profile produces the new order; morpheme rules then add, change or
remove language-dependent tokens on the sentence's runs, one pass per step
of the profile's ``passes``. The words an insert adds come ready-built from
the profile, so a pass only splices them in as runs of their own. Tokens
that belong to a multiword node are treated as one fused unit, so category
drops never reach inside them.
"""

from __future__ import annotations

from collections.abc import Mapping

from .linearize import LinearSentence, _category, _placed, linearize
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

_Pair = tuple[str, Category]


class Lexicon:
    """Immutable mapping from (surface, category) to a target Token, built once and shared by every translation.

    Source and target must each be one token surface (``model._is_surface``);
    any other pair raises SynapperError naming it.
    """

    def __init__(self, entries: Mapping[_Pair, str]):
        self._tokens: dict[_Pair, Token] = {}
        for (source, category), target in entries.items():
            try:
                self._tokens[source, category] = _target_token(source, category, target)
            except ValueError:
                message = "source and target must be single tokens without whitespace"
                raise SynapperError(f"lexicon entry {source!r}/{category.value} -> {target!r}: {message}") from None

    @classmethod
    def _of_tokens(cls, tokens: dict[_Pair, Token]) -> Lexicon:
        """A lexicon over valid target tokens: _target_token's, as parse_lexicon builds them, or a structure's own."""
        lex = cls.__new__(cls)
        lex._tokens = tokens
        return lex

    def lookup(self, surface: str, category: Category) -> str | None:
        return getattr(self._tokens.get((surface, category)), "surface", None)

    def __len__(self) -> int:
        return len(self._tokens)


def _target_token(source: str, category: Category, target: str) -> Token:
    """One lexicon entry's target Token; ValueError unless source and target are each one surface.

    The surface rule runs once per field: here for the source, in Token for
    the target.
    """
    if not _is_surface(source):
        raise ValueError(source)
    return Token(target, category)


def identity_lexicon(s: Synapper) -> Lexicon:
    """Every token of s mapped to itself; the tokens are s's own, valid already."""
    return Lexicon._of_tokens({(t.surface, t.category): t for t in iter_tokens(s)})


class MissingLexemeError(SynapperError):
    """Raised with the complete list of uncovered (surface, category) pairs."""

    def __init__(self, pairs: list[_Pair]):
        self.pairs = tuple(sorted(set(pairs), key=lambda p: (p[0], p[1].value)))
        listed = ", ".join(f"{s!r}/{c.value}" for s, c in self.pairs)
        super().__init__(f"lexicon misses {len(self.pairs)} pairs: {listed}")


def substitute_lexemes(s: Synapper, lex: Lexicon) -> Synapper:
    """Swap every token for the lexicon's own target Token in one walk; uncovered pairs raise together at the end."""
    missing: list[_Pair] = []
    main = _substitute_loop(s.main, lex._tokens, missing)
    if missing:
        raise MissingLexemeError(missing)
    return Synapper(s.label, s.word_order, main)


def _substitute_loop(loop: Loop, targets: dict[_Pair, Token], missing: list[_Pair]) -> Loop:
    """loop with every token swapped for its target; uncovered pairs go to missing.

    One frame per loop: the token arrays of each node and its branches are
    substituted here, and the members, branches and loop are built by their
    constructors, whose checks run.
    """
    get = targets.get
    members = []
    for c in loop.members:
        if c.loop is not None:
            members.append(Constituent(c.role, None, _substitute_loop(c.loop, targets, missing)))
            continue
        node = []
        for t in c.node:  # type: ignore[union-attr]
            target = get((t.surface, t.category))
            if target is None:
                missing.append((t.surface, t.category))
            else:
                node.append(target)
        branches = []
        for b in c.branches:
            tokens = []
            for t in b.tokens:
                target = get((t.surface, t.category))
                if target is None:
                    missing.append((t.surface, t.category))
                else:
                    tokens.append(target)
            branches.append(Branch(tuple(tokens), b.category))
        members.append(Constituent(c.role, tuple(node), None, tuple(branches)))
    return Loop(loop.kind, tuple(members), loop.head_index)


def apply_morpheme_rules(sentence: LinearSentence, p: LanguageProfile) -> LinearSentence:
    """The sentence after each of p's passes, in order."""
    for step in p.passes:
        sentence = _apply_rule(sentence, step)
    return sentence


def _apply_rule(sentence: LinearSentence, step: MorphemeRule | InsertEdits) -> LinearSentence:
    """One pass over the runs: a fused run of inserts, a drop or a suffix.

    A run the pass leaves alone is kept, the same tuple. An insert splits a
    run only at the anchors that fire, and each group of words its
    InsertEdits holds goes in as a run (words, None, -1, False).
    """
    runs, out = sentence._runs, []
    if isinstance(step, dict):
        for run in runs:
            tokens, role, block, unit = run
            cut = 0  # tokens[:cut] are in out already
            for i, t in enumerate(tokens):
                if t.surface in step:
                    before, after = step[t.surface]
                    if before:
                        if i > cut:
                            out.append((tokens[cut:i], role, block, unit))
                        out.append((before, None, -1, False))
                        cut = i
                    if after:
                        out += (tokens[cut : i + 1], role, block, unit), (after, None, -1, False)
                        cut = i + 1
            if not cut:
                out.append(run)
            elif cut < len(tokens):
                out.append((tokens[cut:], role, block, unit))
    elif step.kind is MorphemeKind.DROP_CATEGORY:
        category = step.operand
        for run in runs:
            if not run[3] and category in map(_category, run[0]):
                run = (tuple([t for t in run[0] if t.category is not category]), *run[1:])
            out.append(run)
    else:
        # A suffix on the last token with the role, which ends the last
        # non-empty run with it; a run may hold the PlacedToken it becomes.
        role = step.operand
        for at in range(len(runs) - 1, -1, -1):
            tokens, run_role, block, unit = runs[at]
            if run_role is role and tokens:
                t = tokens[-1]
                patched = tokens[:-1] + (_placed((t.surface + step.payload, t.category, role, block, unit)),)
                return LinearSentence._of_runs([*runs[:at], (patched, role, block, unit), *runs[at + 1 :]])
        return sentence
    return LinearSentence._of_runs(out)


def translate(s: Synapper, lex: Lexicon, p: LanguageProfile) -> LinearSentence:
    """Substitute lexemes, linearize with p, then apply p's morpheme rules."""
    return apply_morpheme_rules(linearize(substitute_lexemes(s, lex), p), p)
