"""Acceptance gate: one test per criterion, each printed as one line by -v.

Run with ``pytest -v tests/test_acceptance.py``; every criterion below shows
up as exactly one PASSED/FAILED line. Criteria 1-8 drive the CLI (the same
entry point the console script uses); criterion 9 exercises the library's
guaranteed properties on generated structures.
"""

import random
from fractions import Fraction

from synapper import (
    LanguageProfile,
    WhRule,
    WordOrder,
    canonical_form,
    chance_probability,
    declarativize,
    interrogativize,
    linearize,
    parse_structure,
    serialize_structure,
    structural_equal,
    wh_token,
)
from conftest import (
    block_sequence,
    fixture_path,
    lexicon_path,
    load_profile,
    load_structure,
    profile_path,
    random_structure,
    rotate_main,
)

SPACE_NEWS_BASE = (
    "Reuters News Agency reported 12th (local time) U.S. Federal Aviation "
    "Administration (FAA) approved manned space flight Blue Origin led Jeff "
    "Bezos, Amazon Board chairman, midst opening door Star Wars era "
    "succeeding civilian space travel test flight British billionaire "
    "Richard Branson, Virgin Group chairman."
)

SPACE_NEWS_FULL = (
    "Reuters News Agency reported on the 12th (local time) that the U.S. "
    "Federal Aviation Administration (FAA) approved a manned space flight "
    "from Blue Origin led by Jeff Bezos, the Amazon Board chairman, in the "
    "midst of opening the door to the Star Wars era by succeeding a "
    "civilian space travel test flight from a British billionaire Richard "
    "Branson, the Virgin Group chairman."
)


def _linearized(run_cli, fixture: str, profile: str) -> str:
    code, out, err = run_cli("linearize", fixture_path(fixture), "--profile", profile_path(profile))
    assert code == 0, err
    return out.rstrip("\n")


def test_criterion_01_horse_five_glosses(run_cli):
    """One structure renders the five per-language orderings exactly."""
    assert _linearized(run_cli, "horse", "en") == "Jane has a very fast brown horse"
    assert _linearized(run_cli, "horse", "fr") == "Jane has a horse brown very fast"
    assert _linearized(run_cli, "horse", "ja-gloss") == "Jane very fast brown horse has"
    assert _linearized(run_cli, "horse", "uz-gloss") == "Jane very fast brown horse has"
    assert _linearized(run_cli, "horse", "cy-gloss") == "Has Jane horse brown very fast"


def test_criterion_02_tim_four_orders(run_cli):
    """Multiword node travels intact through SVO, SOV, true VSO, and V1."""
    assert _linearized(run_cli, "tim", "en") == "Tim is going to the hospital"
    assert _linearized(run_cli, "tim", "ja-gloss") == "Tim the hospital to going is"
    assert _linearized(run_cli, "tim", "vso") == "Is Tim the hospital to going"
    assert _linearized(run_cli, "tim", "cy-gloss") == "Is Tim going to the hospital"


def test_criterion_03_interrogatives_and_round_trip(run_cli):
    """Questions match per profile and declarativization recovers the structure."""
    for profile in ("en", "cy-gloss"):
        code, out, _ = run_cli(
            "question", fixture_path("tim"), "--profile", profile_path(profile), "--wh", "why"
        )
        assert (code, out) == (0, "Why is Tim going to the hospital\n")
    for profile in ("ja-gloss", "uz-gloss"):
        code, out, _ = run_cli(
            "question", fixture_path("tim"), "--profile", profile_path(profile), "--wh", "why"
        )
        assert (code, out) == (0, "Why Tim the hospital to going is\n")

    tim = load_structure("tim")
    for profile in ("en", "cy-gloss", "ja-gloss", "uz-gloss"):
        p = load_profile(profile)
        back = declarativize(interrogativize(tim, wh_token("why"), p), tim, p)
        assert structural_equal(back, tim)


def test_criterion_04_colette_recursion(run_cli):
    """A clause nested inside a phrasal subject renders in all three layouts."""
    expected_en = "The fact that Colette was Willy was a big secret"
    assert _linearized(run_cli, "colette", "en") == expected_en
    assert _linearized(run_cli, "colette", "fr") == expected_en
    expected_sov = "Colette Willy was that fact a big secret was"
    assert _linearized(run_cli, "colette", "ja-gloss") == expected_sov
    assert _linearized(run_cli, "colette", "uz-gloss") == expected_sov
    assert _linearized(run_cli, "colette", "cy-gloss") == "Was the fact that Colette was Willy a big secret"


def test_criterion_05_ambiguity_same_surface_different_structure(run_cli):
    """Two parses of one headline share the sentence but not the structure."""
    surface = "John Cena surprises 7-year-old boy with cancer on his birthday"
    assert _linearized(run_cli, "cena_a", "en") == surface
    assert _linearized(run_cli, "cena_b", "en") == surface

    code, out, _ = run_cli("compare", fixture_path("cena_a"), fixture_path("cena_b"))
    assert (code, out) == (0, "DIFFERENT\n")

    code_a, canon_a, _ = run_cli("canon", fixture_path("cena_a"))
    code_b, canon_b, _ = run_cli("canon", fixture_path("cena_b"))
    assert code_a == code_b == 0
    assert canon_a != canon_b


def test_criterion_06_uzbek_translation(run_cli):
    """Lexeme substitution plus SOV order plus subject suffix."""
    code, out, err = run_cli(
        "translate",
        fixture_path("horse"),
        "--lexicon",
        lexicon_path("en-uz"),
        "--profile",
        profile_path("uz"),
    )
    assert code == 0, err
    assert out == "Janeda bir juda tez jigarrang ot bor\n"


def test_criterion_07_news_sentence_gloss(run_cli):
    """43 stored tokens; 19 inserted function words give the 62-word sentence."""
    base = _linearized(run_cli, "space_news", "en")
    assert base == SPACE_NEWS_BASE
    assert len(base.split()) == 43

    full = _linearized(run_cli, "space_news", "en-articles")
    assert full == SPACE_NEWS_FULL
    assert len(full.split()) == 62


def test_criterion_08_chance_probability(run_cli):
    """1/n! with the published decimal values and a brute-force check."""
    import itertools
    import math

    p10 = chance_probability(10)
    assert 2.755e-7 <= p10.probability <= 2.756e-7
    assert chance_probability(15).probability < 8e-13
    for n in range(2, 21):
        assert chance_probability(n).as_fraction() == Fraction(1, math.factorial(n))
    for n in range(2, 7):
        target = tuple(range(n))
        hits = sum(1 for perm in itertools.permutations(range(n)) if perm == target)
        assert Fraction(hits, math.factorial(n)) == chance_probability(n).as_fraction()

    code, out, _ = run_cli("prob", "10")
    assert (code, out) == (0, "2.755732e-7 (1/3628800)\n")


def test_criterion_09_property_suites():
    """Structural laws hold on 200 generated structures with zero failures."""
    rng = random.Random(90909)
    structures = [random_structure(rng, max_ring=6, max_depth=3) for _ in range(200)]

    # Storage rotation never changes the rendering.
    for s in structures:
        p = LanguageProfile(name="bare", word_order=s.word_order)
        reference = linearize(s, p).surfaces()
        n = len(s.main.members)
        for k in {1, n // 2, n - 1} - {0}:
            assert linearize(rotate_main(s, k), p).surfaces() == reference

    # Reversing direction reverses the top-level blocks after the start.
    for s in structures[:80]:
        for cw, ccw in ((WordOrder.SVO, WordOrder.SOV), (WordOrder.VOS, WordOrder.VSO)):
            cw_blocks = block_sequence(linearize(s, LanguageProfile(name="x", word_order=cw)))
            ccw_blocks = block_sequence(linearize(s, LanguageProfile(name="x", word_order=ccw)))
            assert ccw_blocks == cw_blocks[:1] + cw_blocks[1:][::-1]

    # V1 is exactly "move the verb block to the front".
    from synapper import Role, VerbPlacement

    for s in structures[:80]:
        base = linearize(s, LanguageProfile(name="x", word_order=WordOrder.SVO))
        fronted = linearize(
            s,
            LanguageProfile(name="x", word_order=WordOrder.SVO, verb_placement=VerbPlacement.V1),
        )
        verb = [t for t in base.placed if t.role is Role.VERB]
        rest = [t for t in base.placed if t.role is not Role.VERB]
        assert list(fronted.placed) == verb + rest

    # Question / declarative round trip under every interrogative strategy.
    why = wh_token("why")
    for s in structures[:60]:
        for rule in WhRule:
            p = LanguageProfile(name="x", word_order=s.word_order, wh_rule=rule)
            assert declarativize(interrogativize(s, why, p), s, p) is s

    # Serialize / parse round trip.
    for s in structures:
        assert parse_structure(serialize_structure(s)) == s

    # structural_equal is an equivalence respected by canonical_form.
    sample = structures[:40]
    for s in sample:
        assert structural_equal(s, s)
        r = rotate_main(s, 1)
        assert structural_equal(s, r) and structural_equal(r, s)
        assert canonical_form(s) == canonical_form(r)
    for a in sample[:20]:
        for b in sample[:20]:
            assert structural_equal(a, b) == (canonical_form(a) == canonical_form(b))
