"""Interrogative and declarative transforms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import synapper.transform
from synapper import (
    Category,
    Constituent,
    InversionMismatchError,
    LanguageProfile,
    LinearSentence,
    Loop,
    LoopKind,
    NoWhFoundError,
    Role,
    Synapper,
    Token,
    VerbPlacement,
    WhAlreadyPresentError,
    WhRule,
    WordOrder,
    declarativize,
    interrogativize,
    linearize,
    parse_question,
    structural_equal,
    wh_token,
)
from synapper.linearize import _emit_members, _expand
from conftest import PROFILES, frames_while, load_profile, load_structure, random_structure, replaced, rotate_main
from replay import outcome, question_inputs
from test_cli import VALID_FIXTURES
import spec

WHY = wh_token("why")


class TestInterrogativize:
    @pytest.mark.parametrize(
        "profile, expected",
        [
            ("en", "Why is Tim going to the hospital"),
            ("cy-gloss", "Why is Tim going to the hospital"),
            ("ja-gloss", "Why Tim the hospital to going is"),
            ("uz-gloss", "Why Tim the hospital to going is"),
        ],
    )
    def test_reference_questions(self, profile, expected):
        q = interrogativize(load_structure("tim"), WHY, load_profile(profile))
        assert q.render() == expected

    def test_inversion_swaps_whole_blocks(self):
        q = interrogativize(load_structure("colette"), wh_token("what"), load_profile("en"))
        assert q.render() == "What was fact that Colette was Willy a big secret"

    def test_wh_without_inversion_prepends_only(self):
        q = interrogativize(load_structure("tim"), WHY, load_profile("vso"))
        assert q.render() == "Why is Tim the hospital to going"

    def test_pre_subject_rule_lands_before_subject_block(self):
        p = LanguageProfile(name="x", word_order=WordOrder.OVS, wh_rule=WhRule.PRE_SUBJECT)
        q = interrogativize(load_structure("mary"), WHY, p)
        assert q.render() == "Chocolate loves why Mary"

    def test_inversion_swaps_ring_indices_even_of_an_empty_subject(self):
        # Inversion moves members, not written runs: a code-built subject
        # with an empty node (which build_synapper rejects) still trades
        # places with the verb, so the verb lands where the subject stood.
        members = (
            Constituent(role=Role.SUBJECT, node=()),
            Constituent(role=Role.OBJECT, node=(Token("home", Category.N),)),
            Constituent(role=Role.VERB, node=(Token("ran", Category.V),)),
            Constituent(role=Role.OBJECT, node=(Token("late", Category.ADV),)),
        )
        s = Synapper("", WordOrder.SVO, Loop(kind=LoopKind.CLAUSAL, members=members))
        p = LanguageProfile(name="x", word_order=WordOrder.SVO, wh_rule=WhRule.INITIAL_WITH_INVERSION)
        assert linearize(s, p).render() == "Home ran late"
        assert interrogativize(s, WHY, p).render() == "Why ran home late"

    def test_pre_subject_slot_is_the_subjects_first_token_not_an_empty_run(self):
        # A code-built empty subject node writes an empty run and no token,
        # so the WH word goes where it would with no subject at all: first.
        members = (
            Constituent(role=Role.SUBJECT, node=()),
            Constituent(role=Role.OBJECT, node=(Token("home", Category.N),)),
            Constituent(role=Role.VERB, node=(Token("ran", Category.V),)),
        )
        s = Synapper("", WordOrder.SVO, Loop(kind=LoopKind.CLAUSAL, members=members))
        p = LanguageProfile(name="x", word_order=WordOrder.VOS, wh_rule=WhRule.PRE_SUBJECT)
        assert linearize(s, p).render() == "Ran home"
        assert interrogativize(s, WHY, p).render() == "Why ran home"

    def test_rejects_non_wh_token(self):
        with pytest.raises(ValueError):
            interrogativize(load_structure("tim"), Token("why", Category.ADV), load_profile("en"))

    def test_rejects_structure_already_containing_wh(self):
        with pytest.raises(WhAlreadyPresentError):
            interrogativize(_mary_asking_what(), WHY, load_profile("en"))

    def test_a_wh_word_that_is_not_a_str_is_rejected(self):
        with pytest.raises(ValueError, match="^token surface must be a str: b'why'$"):
            wh_token(b"why")

    def test_question_adds_exactly_one_token(self):
        rng = random.Random(314159)
        for profile_name in ("en", "ja-gloss", "vso"):
            p = load_profile(profile_name)
            for _ in range(30):
                s = random_structure(rng)
                base = linearize(s, p)
                q = interrogativize(s, WHY, p)
                assert sorted(q.surfaces()) == sorted(base.surfaces() + ("why",))
                assert sum(1 for pt in q.placed if pt.category is Category.WH) == 1


class TestDeclarativize:
    @pytest.mark.parametrize("profile", ["en", "cy-gloss", "ja-gloss", "vso"])
    def test_round_trip_tim(self, profile):
        s = load_structure("tim")
        p = load_profile(profile)
        q = interrogativize(s, WHY, p)
        back = declarativize(q, s, p)
        assert structural_equal(back, s)

    def test_round_trip_random_structures(self):
        rng = random.Random(271828)
        for profile_name in ("en", "ja-gloss", "vso"):
            p = load_profile(profile_name)
            for _ in range(25):
                s = random_structure(rng)
                q = interrogativize(s, WHY, p)
                assert declarativize(q, s, p) is s

    def test_requires_a_wh_token(self):
        s = load_structure("tim")
        p = load_profile("en")
        with pytest.raises(NoWhFoundError):
            declarativize(linearize(s, p), s, p)

    def test_rejects_wrong_skeleton(self):
        p = load_profile("en")
        q = interrogativize(load_structure("tim"), WHY, p)
        with pytest.raises(InversionMismatchError):
            declarativize(q, load_structure("mary"), p)

    def test_rejects_uninverted_question_under_inversion_rule(self):
        s = load_structure("tim")
        en = load_profile("en")
        plain = interrogativize(s, WHY, load_profile("cy-gloss"))
        # cy-gloss fronts the verb already, so its question happens to start
        # with the same tokens; build a truly uninverted one instead.
        uninverted = interrogativize(
            s, WHY, LanguageProfile(name="x", word_order=WordOrder.SVO, wh_rule=WhRule.INITIAL_NO_INVERSION)
        )
        with pytest.raises(InversionMismatchError):
            declarativize(uninverted, s, en)
        assert plain.render() == "Why is Tim going to the hospital"

    def test_rejects_pre_subject_question_with_wh_moved_to_the_end(self):
        s = load_structure("tim")
        p = load_profile("ja-gloss")
        q = interrogativize(s, WHY, p)
        moved = replaced(q, placed=q.placed[1:] + q.placed[:1])
        assert moved.render() == "Tim the hospital to going is why"
        with pytest.raises(InversionMismatchError):
            declarativize(moved, s, p)

    def test_rejects_skeleton_that_already_holds_wh(self):
        p = load_profile("en")
        q = interrogativize(load_structure("mary"), WHY, p)
        with pytest.raises(WhAlreadyPresentError):
            declarativize(q, _mary_asking_what(), p)

    def test_rejects_wh_surface_that_is_not_one_token(self):
        s = load_structure("tim")
        p = load_profile("en")
        q = interrogativize(s, WHY, p)
        spaced = replaced(q, placed=(q.placed[0]._replace(surface="why not"),) + q.placed[1:])
        with pytest.raises(InversionMismatchError):
            declarativize(spaced, s, p)

    def test_builds_no_token_and_writes_the_question_once(self):
        s, p = load_structure("tim"), load_profile("en")
        q = interrogativize(s, WHY, p)
        back, frames = frames_while(declarativize, q, s, p)
        assert back is s
        assert frames[Token.__init__.__code__] == 0
        assert frames[_emit_members.__code__] == 1

    def test_accepts_runs_that_differ_when_the_tokens_match(self):
        s, p = load_structure("tim"), load_profile("en")
        # The rotated ring gives the same tokens under other ring indices.
        q = interrogativize(rotate_main(s, 1), WHY, p)
        assert q._runs != interrogativize(s, WHY, p)._runs
        assert q.placed != interrogativize(s, WHY, p).placed
        assert declarativize(q, s, p) is s
        assert declarativize(LinearSentence(q.placed), s, p) is s

    @pytest.mark.parametrize("profile", ["en", "ja-gloss", "vso"])
    @pytest.mark.parametrize("field", ["surface", "category"])
    def test_rejects_a_question_with_one_token_changed(self, field, profile):
        s, p = load_structure("tim"), load_profile(profile)
        q = interrogativize(s, WHY, p)
        runs = q._runs
        changed = 0
        for i, (tokens, role, block, unit) in enumerate(runs):
            for j, token in enumerate(tokens):
                if token.category is Category.WH:
                    continue
                if field == "surface":
                    other = Token(token.surface + "s", token.category)
                else:
                    other = Token(token.surface, Category.OTHER if token.category is not Category.OTHER else Category.N)
                edited = (tokens[:j] + (other,) + tokens[j + 1 :], role, block, unit)
                as_runs = LinearSentence._of_runs(runs[:i] + [edited] + runs[i + 1 :])
                for wrong in (as_runs, LinearSentence(as_runs.placed)):
                    with pytest.raises(InversionMismatchError):
                        declarativize(wrong, s, p)
                changed += 1
        assert changed == len(q.placed) - 1
        assert declarativize(q, s, p) is s

    def test_rejects_wh_not_initial(self):
        s = load_structure("mary")
        builder = LanguageProfile(name="x", word_order=WordOrder.OVS, wh_rule=WhRule.PRE_SUBJECT)
        q = interrogativize(s, WHY, builder)
        assert q.surfaces()[0] != "why"
        with pytest.raises(InversionMismatchError):
            declarativize(q, s, load_profile("en"))


class TestParseQuestion:
    def test_reads_the_printed_question(self):
        s = load_structure("tim")
        p = load_profile("en")
        q = parse_question("Why is Tim going to the hospital", s, p)
        assert q.render() == "Why is Tim going to the hospital"
        assert q.placed[0].surface == "Why" and q.placed[0].category is Category.WH
        assert declarativize(q, s, p) is s

    def test_wh_word_equal_to_a_structure_word(self):
        s = load_structure("mary")
        p = LanguageProfile(name="x", word_order=WordOrder.OVS, wh_rule=WhRule.PRE_SUBJECT)
        q = parse_question("Chocolate loves chocolate Mary", s, p)
        assert [pt.category for pt in q.placed] == [Category.N, Category.V, Category.WH, Category.N]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Why is Tim going to the hospital today", "does not add exactly one token"),
            ("", "does not add exactly one token"),
            ("Why is Tim going to a hospital", "does not match the structure's interrogative form"),
            ("Why Tim is going to the hospital", "does not match the structure's interrogative form"),
            ("why is Tim going to the hospital", "does not match the structure's interrogative form"),
        ],
    )
    def test_mismatch_messages(self, text, message):
        with pytest.raises(InversionMismatchError, match=message):
            parse_question(text, load_structure("tim"), load_profile("en"))

    def test_writes_the_question_once(self, monkeypatch):
        calls = []
        emit = synapper.transform._emit_members
        monkeypatch.setattr(synapper.transform, "_emit_members", lambda *a: calls.append(a) or emit(*a))
        parse_question("Why is Tim going to the hospital", load_structure("tim"), load_profile("en"))
        assert len(calls) == 1

    def test_rejects_skeleton_that_already_holds_wh(self):
        with pytest.raises(WhAlreadyPresentError):
            parse_question("What why loves Mary", _mary_asking_what(), load_profile("en"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(WordOrder)),
        st.sampled_from(list(WhRule)),
        st.sampled_from(list(VerbPlacement)),
        st.sampled_from(["why", "Why", "what", "kite"]),
    )
    def test_reproduces_every_question(self, seed, order, rule, placement, wh):
        s = random_structure(random.Random(seed))
        p = LanguageProfile(name="x", word_order=order, verb_placement=placement, wh_rule=rule)
        q = interrogativize(s, wh_token(wh), p)
        parsed = parse_question(q.render(), s, p)
        # Every token but the WH word comes from s; the WH word is read as
        # written, with the rendering capital when it starts the sentence.
        assert [(pt.surface, pt.category) for pt in parsed.placed] == [
            (word if pt.category is Category.WH else pt.surface, pt.category)
            for pt, word in zip(q.placed, q.render().split())
        ]
        assert declarativize(parsed, s, p) is s
        _assert_read_as_the_spec_reads(s, p)


class TestQuestionsAsRuns:
    @pytest.mark.parametrize("rule", list(WhRule))
    @pytest.mark.parametrize("profile", sorted(path.stem for path in PROFILES.glob("*.json")))
    @pytest.mark.parametrize("structure", VALID_FIXTURES)
    def test_every_bundled_question_reads_back(self, structure, profile, rule):
        s = load_structure(structure)
        p = replaced(load_profile(profile), wh_rule=rule)
        # parse_question reads the WH word as written, and a rendering
        # capitalizes a sentence-initial one, so this one is capital already.
        q = interrogativize(s, wh_token("Why"), p)
        assert parse_question(q.render(), s, p) == q
        # The same question built from its PlacedTokens rather than runs.
        assert declarativize(LinearSentence(q.placed), s, p) is s

    def test_a_question_is_rendered_and_declarativized_without_placed_tokens(self):
        s, p = load_structure("tim"), load_profile("en")
        text, frames = frames_while(lambda: interrogativize(s, WHY, p).render())
        assert text == "Why is Tim going to the hospital"
        assert frames[_expand.__code__] == 0
        back, frames = frames_while(declarativize, interrogativize(s, WHY, p), s, p)
        assert back is s
        assert frames[_expand.__code__] == 0

    def test_the_question_holds_the_callers_wh_token(self):
        s, p = load_structure("mary"), LanguageProfile(name="x", word_order=WordOrder.OVS, wh_rule=WhRule.PRE_SUBJECT)
        q = interrogativize(s, WHY, p)
        assert q.render() == "Chocolate loves why Mary"
        assert q._runs[2] == ((WHY,), None, -1, False) and q._runs[2][0][0] is WHY
        assert q.placed[2] == (WHY.surface, Category.WH, None, -1, False)


class TestAgainstTheSpec:
    """parse_question and declarativize give what spec gives: the question, or the same error."""

    @pytest.mark.parametrize("profile", sorted(path.stem for path in PROFILES.glob("*.json")))
    @pytest.mark.parametrize("structure", VALID_FIXTURES)
    def test_every_bundled_question_and_its_near_misses(self, structure, profile):
        _assert_read_as_the_spec_reads(load_structure(structure), load_profile(profile))

    def test_a_skeleton_that_holds_wh(self):
        s, p = _mary_asking_what(), load_profile("en")
        for text in "What why loves Mary", "Why Mary loves what", "":
            assert outcome(parse_question, text, s, p) == outcome(spec.parse_question, text, s, p)
        q = interrogativize(load_structure("mary"), WHY, p)
        assert outcome(declarativize, q, s, p) == outcome(spec.declarativize, q.placed, s, p)
        assert outcome(declarativize, q, s, p)[0] is WhAlreadyPresentError


def _assert_read_as_the_spec_reads(s: Synapper, p: LanguageProfile) -> None:
    texts, sentences = question_inputs(s, p)
    for text in texts:
        assert outcome(lambda: parse_question(text, s, p).placed) == outcome(spec.parse_question, text, s, p), text
    for q in sentences:
        assert outcome(declarativize, LinearSentence(q), s, p) == outcome(spec.declarativize, q, s, p), q
    assert declarativize(interrogativize(s, WHY, p), s, p) is spec.declarativize(spec.interrogativize(s, WHY, p), s, p)


def _mary_asking_what():
    """mary.json with its object replaced by a WH token."""
    s = load_structure("mary")
    patched = replaced(s.main.members[2], node=(Token("what", Category.WH),))
    return replaced(s, main=replaced(s.main, members=s.main.members[:2] + (patched,)))

