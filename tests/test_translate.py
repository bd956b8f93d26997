"""Lexeme substitution, morpheme rewriting, and the full translation pipeline."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    Branch,
    Category,
    Constituent,
    LanguageProfile,
    Lexicon,
    LinearSentence,
    Loop,
    MalformedDocumentError,
    MissingLexemeError,
    MorphemeKind,
    MorphemeRule,
    PlacedToken,
    Role,
    SynapperError,
    Token,
    VerbPlacement,
    WordOrder,
    apply_morpheme_rules,
    identity_lexicon,
    iter_tokens,
    linearize,
    structural_equal,
    substitute_lexemes,
    translate,
)
from synapper.linearize import _expand
from synapper.model import _is_surface
from synapper.translate import _apply_rule, _substitute_loop, _target_token
from conftest import (
    GEN_WORDS,
    LEXICONS,
    check_value_semantics,
    frames_while,
    load_profile,
    load_structure,
    random_structure,
    replaced,
)
from replay import outcome
from test_cli import VALID_FIXTURES
import spec

from synapper import parse_lexicon


def en_uz() -> Lexicon:
    return parse_lexicon((LEXICONS / "en-uz.tsv").read_text(encoding="utf-8"))


def test_uzbek_translation_of_horse():
    sent = translate(load_structure("horse"), en_uz(), load_profile("uz"))
    assert sent.render() == "Janeda bir juda tez jigarrang ot bor"


def test_missing_lexemes_are_reported_completely():
    with pytest.raises(MissingLexemeError) as e:
        substitute_lexemes(load_structure("horse"), Lexicon({}))
    assert len(e.value.pairs) == 7
    assert ("horse", Category.N) in e.value.pairs
    assert e.value.pairs == tuple(sorted(e.value.pairs, key=lambda p: (p[0], p[1].value)))


def test_partial_lexicon_reports_only_gaps():
    lex = Lexicon({("Jane", Category.N): "Jane", ("has", Category.V): "bor"})
    with pytest.raises(MissingLexemeError) as e:
        substitute_lexemes(load_structure("horse"), lex)
    assert {s for s, _ in e.value.pairs} == {"a", "very", "fast", "brown", "horse"}


class _CountingTargets(dict):
    """A lexicon's target table that records every key substitution asks it for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = Counter()

    def get(self, key, default=None):
        self.asked[key] += 1
        return super().get(key, default)


@pytest.mark.parametrize("name", ["horse", "space_news"])
def test_substitution_looks_each_token_up_once(name):
    s = load_structure(name)
    lex = en_uz()
    lex._tokens = _CountingTargets(lex._tokens)
    try:
        substitute_lexemes(s, lex)
    except MissingLexemeError:
        pass
    assert lex._tokens.asked == Counter((t.surface, t.category) for t in iter_tokens(s))


def test_substitution_reruns_no_surface_rule():
    # Lexicon.__init__ built and checked every target Token already.
    s = load_structure("space_news")
    out, frames = frames_while(substitute_lexemes, s, identity_lexicon(s))
    assert out == s
    assert frames[_is_surface.__code__] == 0
    assert frames[Token.__init__.__code__] == 0


def test_substitution_runs_one_frame_per_loop():
    """Token arrays are substituted in their loop's frame; only constructors run per member."""
    rng = random.Random(31)
    here = _substitute_loop.__code__.co_filename
    for s in [load_structure("space_news"), load_structure("horse"), *(random_structure(rng) for _ in range(20))]:
        out, frames = frames_while(substitute_lexemes, s, identity_lexicon(s))
        assert out == s
        walk = {code.co_name: n for code, n in frames.items() if code.co_filename == here}
        assert walk == {"substitute_lexemes": 1, "_substitute_loop": _loop_count(s.main)}
        assert frames[Branch.__init__.__code__] == sum(len(c.branches) for c in _members(s.main))


def _loop_count(loop: Loop) -> int:
    return 1 + sum(_loop_count(c.loop) for c in loop.members if c.loop is not None)


def _members(loop: Loop) -> list[Constituent]:
    """Every member of loop, at every depth."""
    out = list(loop.members)
    for c in loop.members:
        if c.loop is not None:
            out += _members(c.loop)
    return out


def test_substitution_puts_the_lexicons_own_tokens_in_place():
    s, lex = load_structure("horse"), en_uz()
    out = substitute_lexemes(s, lex)
    pairs = [(t.surface, t.category) for t in iter_tokens(s)]
    assert all(t is lex._tokens[pair] for t, pair in zip(iter_tokens(out), pairs, strict=True))


def test_overriding_lookup_leaves_substitution_alone():
    # Substitution reads the target tokens, not the public lookup.
    lex = en_uz()
    lex.lookup = lambda surface, category: None
    assert substitute_lexemes(load_structure("horse"), lex) == substitute_lexemes(load_structure("horse"), en_uz())


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_substitution_equals_the_spec_on_every_fixture(name):
    s = load_structure(name)
    for lex in identity_lexicon(s), en_uz(), Lexicon({}):
        assert outcome(substitute_lexemes, s, lex) == outcome(spec.substitute_lexemes, s, lex)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 60), max_size=8))
def test_substitution_equals_the_spec_on_generated_structures(seed, uncovered):
    """Every pair of the structure is in the lexicon but those at the uncovered indices, in stored order."""
    s = random_structure(random.Random(seed))
    pairs = dict.fromkeys((t.surface, t.category) for t in iter_tokens(s))
    lex = Lexicon({pair: pair[0][::-1] + "x" for i, pair in enumerate(pairs) if i not in uncovered})
    assert outcome(substitute_lexemes, s, lex) == outcome(spec.substitute_lexemes, s, lex)


def test_substitution_preserves_structure_shape():
    s = load_structure("horse")
    out = substitute_lexemes(s, en_uz())
    assert not structural_equal(s, out)  # surfaces changed
    assert [t.category for t in iter_tokens(out)] == [t.category for t in iter_tokens(s)]
    assert [t.surface for t in iter_tokens(out)] == ["Jane", "bor", "ot", "bir", "juda", "tez", "jigarrang"]


def test_identity_lexicon_shares_the_structures_own_tokens():
    s = load_structure("space_news")
    lex, frames = frames_while(identity_lexicon, s)
    assert len(lex) == 41
    assert frames[_is_surface.__code__] == frames[_target_token.__code__] == frames[Token.__init__.__code__] == 0
    own = {id(t) for t in iter_tokens(s)}
    for source, target in zip(iter_tokens(s), iter_tokens(substitute_lexemes(s, lex)), strict=True):
        assert target == source and id(target) in own


def test_identity_lexicon_makes_translate_equal_linearize():
    for name in ("horse", "tim", "colette", "cena_a"):
        s = load_structure(name)
        p = LanguageProfile(name="bare", word_order=WordOrder.SOV)
        assert translate(s, identity_lexicon(s), p).surfaces() == linearize(s, p).surfaces()


@pytest.mark.parametrize(
    "source, target",
    [("Ma ry", "Mary"), ("Mary", "Ma ry"), ("Mary", ""), ("Mary", "Mary\u2028"), ("Jane", b"Ja"), (b"Jane", "Ja")],
)
def test_code_built_lexicon_rejects_non_token_pairs(source, target):
    with pytest.raises(SynapperError) as e:
        Lexicon({(source, Category.N): target})
    assert repr(source) in str(e.value) and repr(target) in str(e.value)


def test_category_distinguishes_homographs():
    lex = Lexicon({("fast", Category.ADJ): "tez", ("fast", Category.N): "ro'za"})
    assert lex.lookup("fast", Category.ADJ) == "tez"
    assert lex.lookup("fast", Category.N) == "ro'za"
    assert lex.lookup("fast", Category.ADV) is None


class TestMorphemeRules:
    def test_drop_skips_multiword_units(self):
        p = load_profile("ja-gloss")
        sent = apply_morpheme_rules(linearize(load_structure("tim"), p), p)
        assert sent.render() == "Tim the hospital to going is"

    def test_drop_removes_branch_tokens(self):
        p = load_profile("ja-gloss")
        sent = apply_morpheme_rules(linearize(load_structure("horse"), p), p)
        assert sent.render() == "Jane very fast brown horse has"

    def test_insert_fires_at_every_anchor_occurrence(self):
        p = LanguageProfile(
            name="x",
            word_order=WordOrder.SVO,
            morpheme_rules=(MorphemeRule(MorphemeKind.INSERT_BEFORE, "was", "maybe"),),
        )
        sent = apply_morpheme_rules(linearize(load_structure("colette"), p), p)
        assert sent.surfaces().count("maybe") == 2

    def test_insert_after(self):
        p = LanguageProfile(
            name="x",
            word_order=WordOrder.SVO,
            morpheme_rules=(MorphemeRule(MorphemeKind.INSERT_AFTER, "chocolate", "daily"),),
        )
        sent = apply_morpheme_rules(linearize(load_structure("mary"), p), p)
        assert sent.render() == "Mary loves chocolate daily"

    def test_multiword_payload_splits(self):
        p = LanguageProfile(
            name="x",
            word_order=WordOrder.SVO,
            morpheme_rules=(MorphemeRule(MorphemeKind.INSERT_BEFORE, "chocolate", "a lot of"),),
        )
        sent = apply_morpheme_rules(linearize(load_structure("mary"), p), p)
        assert sent.render() == "Mary loves a lot of chocolate"

    def test_suffix_lands_on_last_subject_token(self):
        p = load_profile("uz")
        sent = apply_morpheme_rules(linearize(load_structure("cena_a"), p), p)
        assert "Cenada" in sent.surfaces()
        assert "Johnda" not in sent.surfaces()

    def test_suffix_is_a_no_op_without_the_role(self):
        p = load_profile("uz")
        sent = apply_morpheme_rules(linearize(load_structure("go"), p), p)
        assert sent.render() == "Go"

    def test_rules_apply_in_ordinal_order(self):
        shuffled = LanguageProfile(
            name="x",
            word_order=WordOrder.SVO,
            morpheme_rules=(
                MorphemeRule(MorphemeKind.INSERT_BEFORE, "to", "straight", ordinal=1),
                MorphemeRule(MorphemeKind.DROP_CATEGORY, "PREP", ordinal=0),
            ),
        )
        sent = apply_morpheme_rules(linearize(load_structure("tim"), shuffled), shuffled)
        # The drop runs first and removes the anchor, so the insert is a
        # no-op; listed order would have left "straight" behind instead.
        assert sent.render() == "Tim is going the hospital"

    def test_inserted_tokens_count(self):
        p = load_profile("en-articles")
        base = linearize(load_structure("space_news"), p)
        full = apply_morpheme_rules(base, p)
        assert len(base.placed) == 43
        assert len(full.placed) == 62

    def test_a_profile_without_rules_returns_the_sentence_unexpanded(self):
        p = load_profile("vso")
        assert p.passes == ()
        sentence = linearize(load_structure("space_news"), p)
        out, frames = frames_while(apply_morpheme_rules, sentence, p)
        assert out is sentence
        assert frames[_expand.__code__] == 0
        text, frames = frames_while(out.render)
        assert text == linearize(load_structure("space_news"), p).render()
        assert frames[_expand.__code__] == 0

    @pytest.mark.parametrize(
        "kind, selector, payload, field, message",
        [
            (MorphemeKind.DROP_CATEGORY, "NOUNS", "", "selector", "drop selector must be a category tag, got 'NOUNS'"),
            (MorphemeKind.DROP_CATEGORY, "DET", "x", "payload", "drop rules take no payload"),
            (MorphemeKind.SUFFIX_ON_ROLE, "topic", "da", "selector", "suffix selector must be a role, got 'topic'"),
            (MorphemeKind.SUFFIX_ON_ROLE, "subject", "", "payload", "suffix must be one token, got ''"),
            (MorphemeKind.INSERT_AFTER, "a", " ", "payload", "insert rules need a payload"),
            (MorphemeKind.INSERT_BEFORE, "", "x", "selector", "selector must be non-empty"),
            (MorphemeKind.DROP_CATEGORY, "", "", "selector", "selector must be non-empty"),
            (MorphemeKind.SUFFIX_ON_ROLE, "subject", " s", "payload", "suffix must be one token, got ' s'"),
            (MorphemeKind.SUFFIX_ON_ROLE, "subject", " ", "payload", "suffix must be one token, got ' '"),
            (MorphemeKind.INSERT_BEFORE, "a b", "x", "selector", "insert anchor must be one token, got 'a b'"),
            (MorphemeKind.INSERT_AFTER, "a\t", "x", "selector", "insert anchor must be one token, got 'a\\t'"),
        ],
    )
    def test_shape_is_checked_when_built(self, kind, selector, payload, field, message):
        with pytest.raises(MalformedDocumentError) as e:
            MorphemeRule(kind, selector, payload)
        assert (e.value.path, e.value.message) == (field, message)

    @pytest.mark.parametrize(
        "args, field, message",
        [
            # Each would otherwise reach a later layer: Token's ValueError,
            # str.split's AttributeError, sorted's TypeError, or a pass that
            # matches no kind and does nothing.
            ((MorphemeKind.INSERT_BEFORE, "Jane", b"x y"), "payload", "expected a string"),
            ((MorphemeKind.INSERT_BEFORE, "Jane", 5), "payload", "expected a string"),
            ((MorphemeKind.DROP_CATEGORY, "DET", "", "a"), "ordinal", "expected an integer"),
            (("drop_category", "DET"), "kind", "expected a MorphemeKind"),
            ((MorphemeKind.SUFFIX_ON_ROLE, b"subject", "da"), "selector", "expected a string"),
            ((MorphemeKind.DROP_CATEGORY, "DET", "", True), "ordinal", "expected an integer"),
            # The fields come before the shape: the empty selector is not the one named.
            ((MorphemeKind.DROP_CATEGORY, "", None), "payload", "expected a string"),
        ],
        ids=["bytes-payload", "int-payload", "str-ordinal", "str-kind", "bytes-selector", "bool-ordinal", "fields-first"],
    )
    def test_fields_are_checked_when_built(self, args, field, message):
        with pytest.raises(MalformedDocumentError) as e:
            MorphemeRule(*args)
        assert (e.value.path, e.value.message) == (field, message)

    def test_rule_is_an_immutable_value(self):
        rule = MorphemeRule(MorphemeKind.INSERT_BEFORE, "x", "a b", 2)
        twin = MorphemeRule(kind=MorphemeKind.INSERT_BEFORE, selector="x", payload="a b", ordinal=2)
        # operand is derived, so it stays out of == and repr.
        object.__setattr__(twin, "operand", ())
        check_value_semantics(
            rule,
            twin,
            [
                replaced(rule, kind=MorphemeKind.INSERT_AFTER),
                replaced(rule, selector="y"),
                replaced(rule, payload="a"),
                replaced(rule, ordinal=0),
            ],
            "MorphemeRule(kind=<MorphemeKind.INSERT_BEFORE: 'insert_before'>, selector='x', payload='a b', ordinal=2)",
            derived=("operand",),
        )
        drop = MorphemeRule(MorphemeKind.DROP_CATEGORY, "DET")
        assert (drop.payload, drop.ordinal) == ("", 0)

    def test_operand_is_parsed_once(self):
        assert MorphemeRule(MorphemeKind.DROP_CATEGORY, "DET").operand is Category.DET
        assert MorphemeRule(MorphemeKind.INSERT_BEFORE, "x", " a  b ").operand == ("a", "b")
        assert MorphemeRule(MorphemeKind.SUFFIX_ON_ROLE, "subject", "da").operand is Role.SUBJECT

    def test_bad_drop_selector_raises(self):
        with pytest.raises(SynapperError):
            p = LanguageProfile(
                name="x",
                word_order=WordOrder.SVO,
                morpheme_rules=(MorphemeRule(MorphemeKind.DROP_CATEGORY, "DETERMINER"),),
            )
            apply_morpheme_rules(linearize(load_structure("mary"), p), p)


def test_translate_places_the_subject_by_the_profile():
    s = load_structure("mary")
    p = LanguageProfile(name="bare", word_order=WordOrder.SVO)
    assert translate(s, identity_lexicon(s), p).render() == "Mary loves chocolate"


def test_translate_is_substitute_then_linearize_then_rewrite():
    s = load_structure("horse")
    lex = en_uz()
    p = load_profile("uz")
    composed = apply_morpheme_rules(linearize(substitute_lexemes(s, lex), p), p)
    assert translate(s, lex, p).placed == composed.placed


def rewrite(surfaces: list[str], *rules: MorphemeRule) -> list[str]:
    placed = tuple(PlacedToken(w, Category.N, Role.OBJECT, 0, False) for w in surfaces)
    p = LanguageProfile(name="x", word_order=WordOrder.SVO, morpheme_rules=rules)
    out = apply_morpheme_rules(LinearSentence(placed), p).placed
    assert out == spec.apply_morpheme_rules(placed, p)
    return [pt.surface for pt in out]


class TestFusedInserts:
    def test_two_before_rules_on_one_anchor_keep_ordinal_order(self):
        out = rewrite(
            ["fact", "is"],
            MorphemeRule(MorphemeKind.INSERT_BEFORE, "fact", "x", ordinal=0),
            MorphemeRule(MorphemeKind.INSERT_BEFORE, "fact", "y z", ordinal=1),
        )
        assert out == ["x", "y", "z", "fact", "is"]

    def test_two_after_rules_on_one_anchor_put_the_later_words_first(self):
        out = rewrite(
            ["A", "B"],
            MorphemeRule(MorphemeKind.INSERT_AFTER, "A", "W1", ordinal=0),
            MorphemeRule(MorphemeKind.INSERT_AFTER, "A", "W2", ordinal=1),
        )
        assert out == ["A", "W2", "W1", "B"]

    def test_an_inserted_word_anchors_a_later_rule(self):
        rules = (
            MorphemeRule(MorphemeKind.INSERT_BEFORE, "fact", "the", ordinal=0),
            MorphemeRule(MorphemeKind.INSERT_BEFORE, "the", "all", ordinal=1),
        )
        assert rewrite(["fact"], *rules) == ["all", "the", "fact"]
        p = LanguageProfile(name="x", word_order=WordOrder.SVO, morpheme_rules=rules)
        assert len(p.passes) == 2

    def test_an_insert_run_without_chains_is_one_pass(self):
        p = load_profile("en-articles")
        assert len(p.morpheme_rules) == 14
        assert len(p.passes) == 1

    def test_inserted_words_are_built_with_the_profile(self):
        (edits,) = load_profile("en-articles").passes
        before, after = edits["British"]
        assert before == (Token("from", Category.OTHER), Token("a", Category.OTHER))
        assert after == ()
        assert all(type(t) is Token for edit in edits.values() for side in edit for t in side)

    def test_an_insert_pass_runs_no_frame_per_anchor_hit(self):
        p = load_profile("en-articles")
        (edits,) = p.passes
        runs = linearize(load_structure("space_news"), p)._runs
        hits = []
        # Ever shorter heads of the sentence, so that fewer anchors fire.
        for size in (len(runs), len(runs) // 2, 3):
            sentence = LinearSentence._of_runs(runs[:size])
            hits.append(sum(t.surface in edits for t in sentence))
            out, frames = frames_while(_apply_rule, sentence, edits)
            assert out.placed == spec.apply_morpheme_rules(sentence.placed, p)
            # _apply_rule's frame and the sentence's _of_runs, however many
            # anchors fire: the inserted words are spliced in, not built.
            assert frames == Counter({_apply_rule.__code__: 1, LinearSentence._of_runs.__code__: 1})
        assert hits[0] == 14 and hits[0] > hits[1] > hits[2]

    def test_a_pass_keeps_each_run_it_leaves_alone(self):
        p = load_profile("en-articles")
        (edits,) = p.passes
        sentence = linearize(load_structure("space_news"), p)
        out = _apply_rule(sentence, edits)._runs
        kept = [run for run in sentence._runs if not any(t.surface in edits for t in run[0])]
        assert kept and all(any(run is other for other in out) for run in kept)
        drop = MorphemeRule(MorphemeKind.DROP_CATEGORY, "DET")
        dropped = _apply_rule(sentence, drop)._runs
        assert len(dropped) == len(sentence._runs)
        for run, other in zip(sentence._runs, dropped):
            assert (run is other) == (run[3] or Category.DET not in [t.category for t in run[0]])

    def test_translating_then_rendering_builds_no_placed_token(self):
        text, frames = frames_while(lambda: translate(load_structure("horse"), en_uz(), load_profile("uz")).render())
        assert text == "Janeda bir juda tez jigarrang ot bor"
        assert frames[_expand.__code__] == 0

    def test_a_suffix_on_a_placed_token_with_a_space_does_not_raise(self):
        p = LanguageProfile(
            name="x", word_order=WordOrder.SVO, morpheme_rules=(MorphemeRule(MorphemeKind.SUFFIX_ON_ROLE, "subject", "da"),)
        )
        out = apply_morpheme_rules(LinearSentence((PlacedToken("a b", Category.N, Role.SUBJECT, 0, False),)), p)
        assert out.placed == (PlacedToken("a bda", Category.N, Role.SUBJECT, 0, False),)
        assert out.render() == "A bda"


# Small vocabularies, so that anchors repeat, inserted words equal later
# anchors, and suffixed surfaces ("a" + "b") equal anchors too.
_WORDS = ["a", "b", "ab", "ba"]
_PLACED = st.builds(
    PlacedToken,
    st.sampled_from(_WORDS),
    st.sampled_from([Category.N, Category.DET, Category.OTHER]),
    st.sampled_from([None, Role.SUBJECT, Role.VERB, Role.OBJECT]),
    st.integers(-1, 3),
    st.booleans(),
)
_ORDINALS = st.integers(0, 3)
_RULES = st.one_of(
    st.builds(MorphemeRule, st.just(MorphemeKind.DROP_CATEGORY), st.sampled_from(["OTHER", "DET"]), st.just(""), _ORDINALS),
    st.builds(MorphemeRule, st.just(MorphemeKind.SUFFIX_ON_ROLE), st.sampled_from(["subject", "object"]),
              st.sampled_from(["a", "b"]), _ORDINALS),
    st.builds(MorphemeRule, st.sampled_from([MorphemeKind.INSERT_BEFORE, MorphemeKind.INSERT_AFTER]),
              st.sampled_from(_WORDS), st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
              _ORDINALS),
)


@settings(max_examples=500)
@given(st.lists(_PLACED, max_size=8), st.lists(_RULES, max_size=8))
def test_fused_engine_equals_one_pass_per_rule(placed, rules):
    placed = tuple(placed)
    p = LanguageProfile(name="x", word_order=WordOrder.SVO, morpheme_rules=tuple(rules))
    out = apply_morpheme_rules(LinearSentence(placed), p).placed
    assert out == spec.apply_morpheme_rules(placed, p)


# Rules over generated structures: anchors and inserted words from the
# generator's own vocabulary, so inserts fire and chain; drops over every
# category; suffixes on every role.
_STRUCTURE_RULES = st.one_of(
    st.builds(MorphemeRule, st.just(MorphemeKind.DROP_CATEGORY), st.sampled_from([c.value for c in Category]),
              st.just(""), _ORDINALS),
    st.builds(MorphemeRule, st.just(MorphemeKind.SUFFIX_ON_ROLE), st.sampled_from([r.value for r in Role]),
              st.sampled_from(["da", "ni"]), _ORDINALS),
    st.builds(MorphemeRule, st.sampled_from([MorphemeKind.INSERT_BEFORE, MorphemeKind.INSERT_AFTER]),
              st.sampled_from(GEN_WORDS), st.lists(st.sampled_from(GEN_WORDS), min_size=1, max_size=3).map(" ".join),
              _ORDINALS),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(WordOrder)),
    st.sampled_from(list(VerbPlacement)),
    st.lists(_STRUCTURE_RULES, max_size=8),
)
def test_rules_on_linearized_runs_equal_one_pass_per_rule_on_the_spec(seed, order, placement, rules):
    s = random_structure(random.Random(seed))
    p = LanguageProfile(name="x", word_order=order, verb_placement=placement, morpheme_rules=tuple(rules))
    out = apply_morpheme_rules(linearize(s, p), p)
    expected = LinearSentence(spec.apply_morpheme_rules(spec.linearize(s, p), p))
    assert out.placed == expected.placed
    assert out.render() == expected.render()
