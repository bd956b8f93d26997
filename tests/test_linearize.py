"""Linearization: directions, starting members, branch placement, V1/V2."""

import copy
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    Branch,
    BranchPlacementRule,
    BranchSide,
    Category,
    Constituent,
    DegenerateStructureError,
    LanguageProfile,
    LinearSentence,
    Loop,
    LoopKind,
    MalformedDocumentError,
    MorphemeKind,
    MorphemeRule,
    PlacedToken,
    PostOrder,
    Role,
    Synapper,
    Token,
    VerbPlacement,
    WhRule,
    WordOrder,
    apply_morpheme_rules,
    interrogativize,
    linearize,
    wh_token,
)
from synapper.linearize import _emit, _expand, _reading_order, _start_index
from conftest import (
    FIXTURES,
    PROFILES,
    block_sequence,
    check_value_semantics,
    frames_while,
    load_profile,
    load_structure,
    random_structure,
    replaced,
    rotate_main,
)
import spec


def _bare(order: WordOrder) -> LanguageProfile:
    return LanguageProfile(name=order.value, word_order=order)


class TestHorse:
    """One structure, five profiles, five renderings."""

    @pytest.mark.parametrize(
        "profile, expected",
        [
            ("en", "Jane has a very fast brown horse"),
            ("fr", "Jane has a horse brown very fast"),
        ],
    )
    def test_without_morphemes(self, profile, expected):
        # en and fr need no morpheme rewrite for this fixture.
        assert linearize(load_structure("horse"), load_profile(profile)).render() == expected

    def test_sov_keeps_article_until_dropped(self):
        sent = linearize(load_structure("horse"), load_profile("ja-gloss"))
        assert sent.render() == "Jane a very fast brown horse has"

    def test_branch_tokens_are_not_units(self):
        sent = linearize(load_structure("horse"), load_profile("en"))
        by_surface = {p.surface: p for p in sent.placed}
        assert not by_surface["a"].unit
        assert by_surface["Jane"].role is Role.SUBJECT
        assert by_surface["horse"].block == by_surface["brown"].block


class TestTim:
    @pytest.mark.parametrize(
        "profile, expected",
        [
            ("en", "Tim is going to the hospital"),
            ("ja-gloss", "Tim the hospital to going is"),
            ("vso", "Is Tim the hospital to going"),
            ("cy-gloss", "Is Tim going to the hospital"),
        ],
    )
    def test_four_orders(self, profile, expected):
        assert linearize(load_structure("tim"), load_profile(profile)).render() == expected

    def test_multiword_node_tokens_are_units(self):
        sent = linearize(load_structure("tim"), load_profile("en"))
        flags = {p.surface: p.unit for p in sent.placed}
        assert flags["the"] and flags["hospital"]
        assert not flags["Tim"]


class TestColette:
    @pytest.mark.parametrize("profile", ["en", "fr"])
    def test_svo_reading_before_article_insertion(self, profile):
        sent = linearize(load_structure("colette"), load_profile(profile))
        assert sent.render() == "Fact that Colette was Willy was a big secret"

    def test_counterclockwise_emits_phrasal_head_last(self):
        sent = linearize(load_structure("colette"), load_profile("ja-gloss"))
        assert sent.render() == "Colette Willy was that fact a big secret was"


def test_cena_readings_share_a_surface():
    en = load_profile("en")
    a = linearize(load_structure("cena_a"), en)
    b = linearize(load_structure("cena_b"), en)
    assert a.render() == b.render() == "John Cena surprises 7-year-old boy with cancer on his birthday"


def test_single_member_ring():
    assert linearize(load_structure("go"), _bare(WordOrder.SVO)).render() == "Go"


def test_render_uppercases_only_first_character():
    sent = linearize(load_structure("mary"), _bare(WordOrder.OVS))
    assert sent.render() == "Chocolate loves Mary"
    assert sent.surfaces()[0] == "chocolate"


class TestSixOrders:
    EXPECTED = {
        WordOrder.SVO: "Mary loves chocolate",
        WordOrder.SOV: "Mary chocolate loves",
        WordOrder.VSO: "Loves Mary chocolate",
        WordOrder.VOS: "Loves chocolate Mary",
        WordOrder.OSV: "Chocolate Mary loves",
        WordOrder.OVS: "Chocolate loves Mary",
    }

    @pytest.mark.parametrize("order", list(WordOrder))
    def test_three_member_ring(self, order):
        assert linearize(load_structure("mary"), _bare(order)).render() == self.EXPECTED[order]


class TestVerbPlacement:
    def test_v1_fronts_the_verb_block(self):
        s = load_structure("tim")
        base = linearize(s, _bare(WordOrder.SVO))
        v1 = linearize(s, LanguageProfile(name="x", word_order=WordOrder.SVO, verb_placement=VerbPlacement.V1))
        verb = [p for p in base.placed if p.role is Role.VERB]
        rest = [p for p in base.placed if p.role is not Role.VERB]
        assert list(v1.placed) == verb + rest

    def test_v2_places_verb_after_first_block(self):
        s = load_structure("tim")
        v2 = linearize(s, LanguageProfile(name="x", word_order=WordOrder.SOV, verb_placement=VerbPlacement.V2))
        assert v2.render() == "Tim is the hospital to going"

    def test_v1_equivalence_on_random_structures(self):
        rng = random.Random(424242)
        for _ in range(60):
            s = random_structure(rng)
            base = linearize(s, _bare(WordOrder.SVO))
            v1 = linearize(
                s, LanguageProfile(name="x", word_order=WordOrder.SVO, verb_placement=VerbPlacement.V1)
            )
            verb = [p for p in base.placed if p.role is Role.VERB]
            rest = [p for p in base.placed if p.role is not Role.VERB]
            assert list(v1.placed) == verb + rest


class TestInvariance:
    def test_storage_rotation_never_changes_the_sentence(self):
        rng = random.Random(1234321)
        for _ in range(200):
            s = random_structure(rng)
            p = _bare(s.word_order)
            reference = linearize(s, p).surfaces()
            k = rng.randrange(1, len(s.main.members) + 1)
            assert linearize(rotate_main(s, k), p).surfaces() == reference

    def test_direction_reversal_at_block_level(self):
        rng = random.Random(97531)
        for cw, ccw in [(WordOrder.SVO, WordOrder.SOV), (WordOrder.VOS, WordOrder.VSO)]:
            for _ in range(40):
                s = random_structure(rng)
                cw_blocks = block_sequence(linearize(s, _bare(cw)))
                ccw_blocks = block_sequence(linearize(s, _bare(ccw)))
                assert ccw_blocks == cw_blocks[:1] + cw_blocks[1:][::-1]

    def test_token_multiset_is_order_independent(self):
        rng = random.Random(55221)
        for _ in range(60):
            s = random_structure(rng)
            renders = {order: sorted(linearize(s, _bare(order)).surfaces()) for order in WordOrder}
            assert len({tuple(v) for v in renders.values()}) == 1

    def test_deterministic(self):
        s = load_structure("space_news")
        p = load_profile("en-articles")
        assert linearize(s, p).placed == linearize(s, p).placed


def test_degenerate_structure_raises():
    s = Synapper(
        label="",
        word_order=WordOrder.SVO,
        main=Loop(kind=LoopKind.CLAUSAL, members=()),
    )
    with pytest.raises(DegenerateStructureError):
        linearize(s, _bare(WordOrder.SVO))


def test_a_ring_of_empty_nodes_is_degenerate():
    # Built in code, past the reader's checks: every member writes a run,
    # but no run holds a token.
    empty = Constituent(node=(), branches=(Branch((), Category.DET),))
    members = (
        Constituent(role=Role.SUBJECT, node=()),
        Constituent(role=Role.VERB, node=(), branches=(Branch((), Category.ADV),)),
        Constituent(role=Role.OBJECT, loop=Loop(kind=LoopKind.PHRASAL, members=(empty, empty))),
    )
    s = Synapper(
        label="",
        word_order=WordOrder.SVO,
        main=Loop(kind=LoopKind.CLAUSAL, members=members),
    )
    for order in WordOrder:
        with pytest.raises(DegenerateStructureError):
            linearize(s, _bare(order))
    with pytest.raises(DegenerateStructureError):
        interrogativize(s, wh_token("why"), load_profile("en"))


def test_o_initial_orders_start_at_first_object_clockwise_from_subject():
    members = (
        Constituent(role=Role.OBJECT, node=(Token("late", Category.ADV),)),
        Constituent(role=Role.SUBJECT, node=(Token("Ann", Category.N),)),
        Constituent(role=Role.VERB, node=(Token("ran", Category.V),)),
        Constituent(role=Role.OBJECT, node=(Token("home", Category.N),)),
    )
    s = Synapper(
        label="",
        word_order=WordOrder.OSV,
        main=Loop(kind=LoopKind.CLAUSAL, members=members),
    )
    # Clockwise from Ann the first object is "home", not "late".
    assert linearize(s, _bare(WordOrder.OSV)).surfaces() == ("home", "late", "Ann", "ran")


def test_the_start_read_off_roles_equals_the_spec_on_every_short_ring():
    """spec.start_member on every role tuple of 1 to 6 members from {subject, verb, object, none}, from each first role."""
    token = (Token("w", Category.N),)
    rings = 0
    for n in range(1, 7):
        for roles in itertools.product((Role.SUBJECT, Role.VERB, Role.OBJECT, None), repeat=n):
            loop = Loop(LoopKind.CLAUSAL, tuple(Constituent(role, token) for role in roles))
            for first in (Role.SUBJECT, Role.VERB, Role.OBJECT):
                assert _start_index(loop, first) == spec.start_member(loop, first), (roles, first)
            rings += 1
    assert rings == sum(4**n for n in range(1, 7))


_BRANCH_RULES = st.lists(
    st.builds(
        BranchPlacementRule,
        st.sampled_from(list(Category)),
        st.sampled_from(list(BranchSide)),
        st.sampled_from(list(PostOrder)),
    ),
    max_size=8,
)


def _assert_matches_spec(s: Synapper, p: LanguageProfile) -> None:
    # render and surfaces read linearize's runs, and a constructed
    # sentence's PlacedTokens: both must give the specification's text.
    sentence, expected = linearize(s, p), LinearSentence(spec.linearize(s, p))
    assert sentence.render() == expected.render()
    assert sentence.surfaces() == expected.surfaces()
    assert sentence.placed == expected.placed
    assert interrogativize(s, wh_token("why"), p).placed == spec.interrogativize(s, wh_token("why"), p)


class TestAgainstTheSpec:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(WordOrder)),
        st.sampled_from(list(VerbPlacement)),
        st.sampled_from(list(WhRule)),
        _BRANCH_RULES,
    )
    def test_equals_the_spec(self, seed, order, placement, rule, branch_rules):
        s = random_structure(random.Random(seed))
        p = LanguageProfile(
            name="x", word_order=order, verb_placement=placement, branch_rules=tuple(branch_rules), wh_rule=rule
        )
        _assert_matches_spec(s, p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([Role.SUBJECT, Role.VERB, Role.OBJECT, None]), min_size=1, max_size=6))
    def test_any_role_pattern_on_a_flat_ring(self, roles):
        # random_structure gives every clausal ring one subject and one verb;
        # here roles may repeat or be missing, so each start fallback is met.
        members = tuple(
            Constituent(role=role, node=(Token(f"w{i}", Category.N),)) for i, role in enumerate(roles)
        )
        s = Synapper("", WordOrder.SVO, Loop(kind=LoopKind.CLAUSAL, members=members))
        for order, placement, rule in itertools.product(WordOrder, VerbPlacement, WhRule):
            p = LanguageProfile(name="x", word_order=order, verb_placement=placement, wh_rule=rule)
            _assert_matches_spec(s, p)

    @pytest.mark.parametrize("order", list(WordOrder))
    def test_v2_on_a_two_member_ring(self, order):
        members = (
            Constituent(role=Role.SUBJECT, node=(Token("Ann", Category.N),)),
            Constituent(role=Role.VERB, node=(Token("runs", Category.V),)),
        )
        s = Synapper("", order, Loop(kind=LoopKind.CLAUSAL, members=members))
        for rule in WhRule:
            p = LanguageProfile(name="x", word_order=order, verb_placement=VerbPlacement.V2, wh_rule=rule)
            assert linearize(s, p).surfaces() == ("Ann", "runs")
            _assert_matches_spec(s, p)

    @pytest.mark.parametrize("placement", list(VerbPlacement))
    @pytest.mark.parametrize("rule", list(WhRule))
    def test_one_member_ring(self, placement, rule):
        s = load_structure("go")
        p = LanguageProfile(name="x", word_order=WordOrder.VSO, verb_placement=placement, wh_rule=rule)
        assert interrogativize(s, wh_token("why"), p).render() == "Why go"
        _assert_matches_spec(s, p)

    def test_nested_phrasal_head_read_counterclockwise(self):
        # The object is a phrasal loop headed by "horse" (index 1); read
        # counterclockwise its members come out as the reverse of the
        # clockwise list from the head: "big" "old" "horse". Every token
        # carries the object's role and ring index; "old" is a 2-token unit.
        phrase = Loop(
            kind=LoopKind.PHRASAL,
            members=(
                Constituent(node=(Token("big", Category.ADJ),)),
                Constituent(
                    node=(Token("horse", Category.N),),
                    branches=(Branch(tokens=(Token("a", Category.DET),), category=Category.DET),),
                ),
                Constituent(node=(Token("very", Category.ADV), Token("old", Category.ADJ))),
            ),
            head_index=1,
        )
        members = (
            Constituent(role=Role.SUBJECT, node=(Token("Jane", Category.N),)),
            Constituent(role=Role.VERB, node=(Token("has", Category.V),)),
            Constituent(role=Role.OBJECT, loop=phrase),
        )
        s = Synapper("", WordOrder.SOV, Loop(kind=LoopKind.CLAUSAL, members=members))
        p = LanguageProfile(
            name="x",
            word_order=WordOrder.SOV,
            branch_rules=(BranchPlacementRule(Category.DET, BranchSide.POST, PostOrder.REVERSED),),
            wh_rule=WhRule.INITIAL_WITH_INVERSION,
        )
        obj = [
            PlacedToken("big", Category.ADJ, Role.OBJECT, 2, False),
            PlacedToken("very", Category.ADV, Role.OBJECT, 2, True),
            PlacedToken("old", Category.ADJ, Role.OBJECT, 2, True),
            PlacedToken("horse", Category.N, Role.OBJECT, 2, False),
            PlacedToken("a", Category.DET, Role.OBJECT, 2, False),
        ]
        assert linearize(s, p).placed == (
            PlacedToken("Jane", Category.N, Role.SUBJECT, 0, False),
            *obj,
            PlacedToken("has", Category.V, Role.VERB, 1, False),
        )
        assert interrogativize(s, wh_token("why"), p).render() == "Why has big very old horse a Jane"
        _assert_matches_spec(s, p)

    def test_a_source_slot_between_reversed_post_branches(self):
        # Stored post branches a1 (Reversed), p (Source), a2 (Reversed), j
        # (Reversed): p keeps its slot and the Reversed ones fill theirs in
        # reverse stored order. random_structure gives a node at most two
        # branches, so the property above never reaches this case.
        def branch(surface: str, category: Category) -> Branch:
            return Branch(tokens=(Token(surface, category),), category=category)

        obj = Constituent(
            role=Role.OBJECT,
            node=(Token("x", Category.N),),
            branches=(
                branch("a1", Category.ADJ),
                branch("p", Category.PREP),
                branch("a2", Category.ADJ),
                branch("j", Category.ADJP),
            ),
        )
        members = (
            Constituent(role=Role.SUBJECT, node=(Token("S", Category.N),)),
            Constituent(role=Role.VERB, node=(Token("v", Category.V),)),
            obj,
        )
        s = Synapper("", WordOrder.SVO, Loop(kind=LoopKind.CLAUSAL, members=members))
        p = LanguageProfile(
            name="x",
            word_order=WordOrder.SVO,
            branch_rules=(
                BranchPlacementRule(Category.ADJ, BranchSide.POST, PostOrder.REVERSED),
                BranchPlacementRule(Category.PREP, BranchSide.POST, PostOrder.SOURCE),
                BranchPlacementRule(Category.ADJP, BranchSide.POST, PostOrder.REVERSED),
            ),
        )
        assert linearize(s, p).render() == "S v x j p a2 a1"
        _assert_matches_spec(s, p)


class TestProfileAndSentenceValues:
    """BranchPlacementRule, LanguageProfile and LinearSentence are immutable values."""

    def test_branch_placement_rule(self):
        rule = BranchPlacementRule(Category.DET, BranchSide.POST)
        check_value_semantics(
            rule,
            BranchPlacementRule(category=Category.DET, side=BranchSide.POST, post_order=PostOrder.SOURCE),
            [
                replaced(rule, category=Category.ADJ),
                replaced(rule, side=BranchSide.PRE),
                replaced(rule, post_order=PostOrder.REVERSED),
            ],
            "BranchPlacementRule(category=<Category.DET: 'DET'>, side=<BranchSide.POST: 'post'>,"
            " post_order=<PostOrder.SOURCE: 'source'>)",
        )

    def test_language_profile(self):
        rule = MorphemeRule(MorphemeKind.INSERT_BEFORE, "x", "a b", 2)
        p = LanguageProfile("en", WordOrder.SVO, morpheme_rules=(rule,))
        twin = LanguageProfile(
            name="en",
            word_order=WordOrder.SVO,
            verb_placement=VerbPlacement.DEFAULT,
            branch_rules=(),
            wh_rule=WhRule.INITIAL_NO_INVERSION,
            morpheme_rules=(replaced(rule),),
        )
        # placement, pre_categories and passes are derived, so they stay out of == and repr.
        object.__setattr__(twin, "placement", {})
        object.__setattr__(twin, "pre_categories", frozenset())
        object.__setattr__(twin, "passes", ())
        check_value_semantics(
            p,
            twin,
            [
                replaced(p, name="uz"),
                replaced(p, word_order=WordOrder.SOV),
                replaced(p, verb_placement=VerbPlacement.V2),
                replaced(p, branch_rules=(BranchPlacementRule(Category.DET, BranchSide.POST),)),
                replaced(p, wh_rule=WhRule.PRE_SUBJECT),
                replaced(p, morpheme_rules=()),
            ],
            "LanguageProfile(name='en', word_order=<WordOrder.SVO: 'svo'>,"
            " verb_placement=<VerbPlacement.DEFAULT: 'default'>, branch_rules=(),"
            " wh_rule=<WhRule.INITIAL_NO_INVERSION: 'initial_plain'>,"
            " morpheme_rules=(MorphemeRule(kind=<MorphemeKind.INSERT_BEFORE: 'insert_before'>, selector='x',"
            " payload='a b', ordinal=2),))",
            derived=("placement", "pre_categories", "passes"),
        )

    def test_language_profile_derives_placement_and_passes_when_built(self):
        rule = BranchPlacementRule(Category.DET, BranchSide.POST, PostOrder.REVERSED)
        p = LanguageProfile("x", WordOrder.SVO, branch_rules=(rule,))
        assert p.placement[Category.DET] == (BranchSide.POST, PostOrder.REVERSED)
        assert p.placement[Category.ADJ] == (BranchSide.PRE, PostOrder.SOURCE)
        assert p.passes == ()
        assert replaced(p, branch_rules=()).placement[Category.DET] == (BranchSide.PRE, PostOrder.SOURCE)
        assert p.pre_categories == frozenset(Category) - {Category.DET}

    @pytest.mark.parametrize("name", sorted(path.stem for path in PROFILES.glob("*.json")))
    def test_pre_categories_are_the_categories_placement_puts_before_the_node(self, name):
        p = load_profile(name)
        assert isinstance(p.pre_categories, frozenset)
        assert p.pre_categories == {c for c, (side, _) in p.placement.items() if side is BranchSide.PRE}

    def test_rendering_builds_no_placed_token(self):
        s, p = load_structure("space_news"), load_profile("en-articles")
        sentence = linearize(s, p)
        text, frames = frames_while(sentence.render)
        assert text == LinearSentence(spec.linearize(s, p)).render()
        assert frames[_expand.__code__] == 0
        _, frames = frames_while(lambda: linearize(s, p).render())
        assert frames[_expand.__code__] == 0
        _, frames = frames_while(sentence.surfaces)
        assert frames[_expand.__code__] == 0
        placed, frames = frames_while(lambda: sentence.placed)
        assert frames[_expand.__code__] == 1
        assert placed == spec.linearize(s, p)

    def test_the_walk_runs_one_frame_per_nested_loop_and_per_node_with_branches(self):
        """Leaves are written in their loop's frame; each loop is put in reading order once."""
        rng = random.Random(20)
        names = sorted(path.stem for path in FIXTURES.glob("*.json") if path.stem != "bad_two_subjects")
        structures = [*map(load_structure, names), *(random_structure(rng) for _ in range(30))]
        profiles = [*map(load_profile, ("en-articles", "fr", "ja-gloss", "vso"))]
        here = _emit.__code__.co_filename
        for s in structures:
            nested, branched = _loop_shape(s.main)
            for p in profiles:
                sentence, frames = frames_while(linearize, s, p)
                assert sentence.placed == spec.linearize(s, p)
                walk = Counter({code.co_name: n for code, n in frames.items() if code.co_filename == here})
                assert walk.pop("_emit", 0) == nested + branched
                assert walk.pop("_reading_order") == 1 + nested
                assert walk.pop("_start_index") <= 1 + nested
                once = ("linearize", "_of_runs", "_sentence_order", "_place_verb", "_emit_members")
                assert walk == Counter(dict.fromkeys(once, 1))

    def test_placed_is_built_once(self):
        sentence = linearize(load_structure("space_news"), load_profile("en"))
        first, frames = frames_while(lambda: (sentence.placed, sentence.placed))
        assert first[0] is first[1]
        assert frames[_expand.__code__] == 1

    @pytest.mark.parametrize("read_first", [False, True])
    def test_linearized_sentence_is_a_value(self, read_first):
        s, p = load_structure("space_news"), load_profile("en-articles")
        placed = linearize(s, p).placed
        built = LinearSentence(placed)
        unequal = [linearize(s, _bare(WordOrder.VSO)), LinearSentence(placed[1:])]
        text = repr(built)
        # Each operation on a sentence whose placed was never read.
        assert linearize(s, p) == built and built == linearize(s, p)
        assert hash(linearize(s, p)) == hash(built)
        assert repr(linearize(s, p)) == text
        for copied in (copy.copy(linearize(s, p)), copy.deepcopy(linearize(s, p))):
            assert copied == built
        assert pickle.loads(pickle.dumps(linearize(s, p))) == built
        sentence = linearize(s, p)
        if read_first:
            sentence.placed
        check_value_semantics(sentence, built, unequal, text, derived=("_runs", "_placed"))
        check_value_semantics(built, linearize(s, p), unequal, text, derived=("_runs", "_placed"))

    def test_linear_sentence(self):
        placed = (PlacedToken("a", Category.N, Role.SUBJECT, 0, False),)
        sent = LinearSentence(placed)
        check_value_semantics(
            sent,
            LinearSentence(placed=(PlacedToken("a", Category.N, Role.SUBJECT, 0, False),)),
            [replaced(sent, placed=()), replaced(sent, placed=placed * 2), placed[0]],
            "LinearSentence(placed=(PlacedToken(surface='a', category=<Category.N: 'N'>,"
            " role=<Role.SUBJECT: 'subject'>, block=0, unit=False),))",
        )
        assert (sent.surfaces(), sent.render()) == (("a",), "A")
        assert len(sent) == 1 and [*sent] == [placed[0]]
        assert len(LinearSentence(())) == 0 and not LinearSentence(())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(WordOrder)), st.sampled_from(list(VerbPlacement)))
    def test_len_and_iteration_read_the_tokens_of_placed(self, seed, order, placement):
        s = random_structure(random.Random(seed))
        p = replaced(load_profile("en-articles"), word_order=order, verb_placement=placement)
        sentence = linearize(s, p)
        for each in (
            sentence,
            interrogativize(s, wh_token("why"), p),
            apply_morpheme_rules(sentence, p),
            LinearSentence(sentence.placed),
        ):
            assert len(each) == len(each.placed)
            assert [t.surface for t in each] == [pt.surface for pt in each.placed]


def _loop_shape(loop: Loop) -> tuple[int, int]:
    """(loops nested in loop, nodes with branches in it), at every depth."""
    nested = branched = 0
    for c in loop.members:
        if c.loop is not None:
            inner, inner_branched = _loop_shape(c.loop)
            nested += 1 + inner
            branched += inner_branched
        elif c.branches:
            branched += 1
    return nested, branched


_POST_ADJ = BranchPlacementRule(Category.ADJ, BranchSide.POST)


class TestCodeBuiltProfiles:
    """A profile or branch rule built in code checks its own fields, in parameter order, as parse_profile's do."""

    @pytest.mark.parametrize(
        "build, field, message",
        [
            (lambda: LanguageProfile("x", "svo"), "word_order", "expected a WordOrder"),
            (lambda: LanguageProfile("x", WordOrder.SVO, "v1"), "verb_placement", "expected a VerbPlacement"),
            (lambda: LanguageProfile("x", WordOrder.SVO, wh_rule="pre_subject"), "wh_rule", "expected a WhRule"),
            (lambda: BranchPlacementRule("ADJ", BranchSide.POST), "category", "expected a Category"),
            (lambda: BranchPlacementRule(Category.ADJ, "post"), "side", "expected a BranchSide"),
            (lambda: BranchPlacementRule(Category.ADJ, BranchSide.POST, "reversed"), "post_order", "expected a PostOrder"),
            (lambda: LanguageProfile("x", WordOrder.SVO, branch_rules=(_POST_ADJ, "a")), "branch_rules[1]",
             "expected a BranchPlacementRule"),
            (lambda: LanguageProfile("x", WordOrder.SVO, morpheme_rules=("a",)), "morpheme_rules[0]",
             "expected a MorphemeRule"),
            # Two bad fields: the one earlier in the parameters is named.
            (lambda: LanguageProfile("x", "svo", "v1", ("a",), "x", ("a",)), "word_order", "expected a WordOrder"),
            (lambda: LanguageProfile("x", WordOrder.SVO, branch_rules=("a",), wh_rule="x"), "branch_rules[0]",
             "expected a BranchPlacementRule"),
        ],
        ids=["word_order", "verb_placement", "wh_rule", "category", "side", "post_order", "branch_rule",
             "morpheme_rule", "word_order-first", "branch_rules-before-wh_rule"],
    )
    def test_a_field_of_another_type_is_named(self, build, field, message):
        with pytest.raises(MalformedDocumentError) as e:
            build()
        assert (e.value.path, e.value.message) == (field, message)
