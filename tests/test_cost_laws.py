"""Cost laws: the reader, the bare walk, the rewrite layers and the write and compare path grow linearly in size.

Op counts are exact, so growth can be tested exactly: a layer whose cost is
linear in n has ops(4n) - ops(2n) = 2 * (ops(2n) - ops(n)). Each case counts
one layer at n, 2n and 4n along one dimension of a generated structure and
holds the ratio of the two differences between 1.9 and 2.1 (the empirical
complexity method of Goldsmith, Aiken and Wilkerson, 2007, with exact counts
in place of timings).

The layers are ``parse_structure``, which checks the laws as it reads, a
bare ``linearize(...).render()`` under all six word orders,
``substitute_lexemes`` with the structure's identity lexicon,
``interrogativize`` with "why" under the ``en`` profile and
``declarativize`` of that question, ``linearize`` followed by
``apply_morpheme_rules`` and ``translate`` with the identity lexicon under
a profile whose insert, drop and suffix rules all fire, and the writers
and comparers on the parsed structure: ``serialize_structure``,
``to_dot``, ``canonical_form``, and ``structural_equal`` against a copy
read from the same text and stored from another member. The dimensions
are ring width, nesting depth, node length and branches per node.

``apply_morpheme_rules`` is also counted along a fifth dimension, the
number of rules, on one fixed linearized sentence.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from synapper import (
    LanguageProfile,
    MorphemeKind,
    MorphemeRule,
    WordOrder,
    apply_morpheme_rules,
    canonical_form,
    declarativize,
    identity_lexicon,
    interrogativize,
    linearize,
    parse_structure,
    serialize_structure,
    structural_equal,
    substitute_lexemes,
    to_dot,
    translate,
    wh_token,
)
from conftest import load_profile, rotate_main
from test_op_ceilings import count_ops

_BARE = [LanguageProfile(name=order.value, word_order=order) for order in WordOrder]
_EN = load_profile("en")
_WHY = wh_token("why")
# An insert before each node's first word, a drop of the branches' category and a suffix on the subject.
_RULES = LanguageProfile("rules", WordOrder.SVO, morpheme_rules=(
    MorphemeRule(MorphemeKind.INSERT_BEFORE, "w0", "the"),
    MorphemeRule(MorphemeKind.DROP_CATEGORY, "ADJ"),
    MorphemeRule(MorphemeKind.SUFFIX_ON_ROLE, "subject", "da"),
))


def _node(role: str, tokens: int = 1, branches: int = 0) -> dict:
    member = {"role": role, "node": [{"surface": f"w{i}", "category": "N"} for i in range(tokens)]}
    if branches:
        member["branches"] = [{"category": "ADJ", "tokens": [{"surface": "b", "category": "ADJ"}]}] * branches
    return member


def _clausal(*members: dict) -> dict:
    return {"kind": "clausal", "members": [*members]}


def _nested(depth: int) -> dict:
    """A chain of depth clausal loops, each the subject of the one around it."""
    loop = _clausal(_node("subject"), _node("verb"))
    for _ in range(depth - 1):
        loop = _clausal({"role": "subject", "loop": loop}, _node("verb"), _node("object"))
    return loop


# Each dimension: its smallest size n and the main loop of size n. The
# largest, 4n, stays well inside MAX_DEPTH for the chain.
DIMENSIONS = {
    "ring_width": (25, lambda n: _clausal(_node("subject"), _node("verb"), *[_node("object", branches=1)] * n)),
    "nesting_depth": (12, _nested),
    "node_length": (25, lambda n: _clausal(_node("subject", tokens=n), _node("verb"))),
    "branches_per_node": (25, lambda n: _clausal(_node("subject", branches=n), _node("verb"))),
}


def _text(loop: dict) -> str:
    return json.dumps({"word_order": "svo", "loop": loop})


def _render_all(text: str):
    s = parse_structure(text)
    return lambda: [linearize(s, p).render() for p in _BARE]


def _on_parsed(write):
    return lambda text: partial(write, parse_structure(text))


def _compare_rotated(text: str):
    return partial(structural_equal, parse_structure(text), rotate_main(parse_structure(text), 1))


def _substitute_identity(text: str):
    s = parse_structure(text)
    return partial(substitute_lexemes, s, identity_lexicon(s))


def _translate_identity(text: str):
    s = parse_structure(text)
    return partial(translate, s, identity_lexicon(s), _RULES)


def _undo_question(text: str):
    s = parse_structure(text)
    return partial(declarativize, interrogativize(s, _WHY, _EN), s, _EN)


LAYERS = {
    "parse_structure": lambda text: lambda: parse_structure(text),
    "bare_orders": _render_all,
    "substitute_lexemes": _substitute_identity,
    "interrogativize": lambda text: partial(interrogativize, parse_structure(text), _WHY, _EN),
    "declarativize": _undo_question,
    "linearize_with_rules": _on_parsed(lambda s: apply_morpheme_rules(linearize(s, _RULES), _RULES)),
    "translate": _translate_identity,
    "serialize_structure": _on_parsed(serialize_structure),
    "to_dot": _on_parsed(to_dot),
    "canonical_form": _on_parsed(canonical_form),
    "structural_equal": _compare_rotated,
}

# A node's tokens reach the rendering as one tuple, which only C code walks
# (str.join over the surfaces), so the bare walk costs the same ops whatever
# the node's length. The WH transforms move that tuple whole: interrogativize
# puts it in the question as one run, and declarativize, once it finds the
# WH word that en puts first, compares runs that hold the structure's own
# tuples. For these three both differences are 0, which the linear law allows.
_CONSTANT = {("bare_orders", "node_length"), ("interrogativize", "node_length"), ("declarativize", "node_length")}


@pytest.mark.parametrize("dimension", sorted(DIMENSIONS))
@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_cost_is_linear(layer, dimension):
    n, shape = DIMENSIONS[dimension]
    ops = [count_ops(LAYERS[layer](_text(shape(size)))) for size in (n, 2 * n, 4 * n)]
    first, second = ops[1] - ops[0], ops[2] - ops[1]
    if (layer, dimension) in _CONSTANT:
        assert first == second == 0, ops
    else:
        assert first > 0 and 1.9 <= second / first <= 2.1, ops


def _alternating_rules(pairs: int) -> LanguageProfile:
    """A profile of pairs inserts, each followed by a drop, so no two inserts fuse and every rule is its own pass.

    Every insert fires before each "w0" of the sentence below, and the drop
    after it empties each run of words it inserted.
    """
    insert = MorphemeRule(MorphemeKind.INSERT_BEFORE, "w0", "x")
    drop = MorphemeRule(MorphemeKind.DROP_CATEGORY, "OTHER")
    return LanguageProfile("rules", WordOrder.SVO, morpheme_rules=(insert, drop) * pairs)


def _ring_width_sentence():
    n, shape = DIMENSIONS["ring_width"]
    return linearize(parse_structure(_text(shape(n))), _BARE[0])


def test_morpheme_rules_cost_is_linear_in_their_number():
    sentence = _ring_width_sentence()
    ops = [count_ops(partial(apply_morpheme_rules, sentence, _alternating_rules(pairs))) for pairs in (4, 8, 16)]
    first, second = ops[1] - ops[0], ops[2] - ops[1]
    assert first > 0 and 1.9 <= second / first <= 2.1, ops


def test_a_drop_leaves_out_the_runs_it_empties():
    sentence = _ring_width_sentence()
    rewritten = apply_morpheme_rules(sentence, _alternating_rules(16))
    assert (rewritten.render(), len(rewritten._runs)) == (sentence.render(), len(sentence._runs))
