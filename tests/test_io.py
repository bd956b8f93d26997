"""Serialization round-trips, strict parse errors, lexicon TSV, DOT export."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    Category,
    MalformedDocumentError,
    MalformedSyntaxError,
    UnknownKeyError,
    parse_lexicon,
    parse_profile,
    parse_structure,
    serialize_structure,
    structural_equal,
    to_dot,
)
from conftest import FIXTURES, PROFILES, load_structure, random_structure

ALL_FIXTURES = ["horse", "tim", "colette", "cena_a", "cena_b", "space_news", "mary", "go"]
ALL_PROFILES = ["en", "fr", "ja-gloss", "cy-gloss", "uz", "uz-gloss", "vso", "en-articles"]


class TestStructureRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_bundled_fixtures(self, name):
        original = load_structure(name)
        again = parse_structure(serialize_structure(original))
        assert again == original

    def test_random_structures(self):
        rng = random.Random(13579)
        for _ in range(60):
            s = random_structure(rng)
            assert parse_structure(serialize_structure(s)) == s

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_serialization_is_byte_deterministic(self, name):
        s = load_structure(name)
        first = serialize_structure(s)
        assert first == serialize_structure(parse_structure(first))
        assert first.endswith("\n")

    def test_key_order_is_fixed(self):
        text = serialize_structure(load_structure("mary"))
        doc = json.loads(text)
        assert list(doc) == ["label", "word_order", "surface_subject_final", "loop"]
        assert list(doc["loop"]) == ["kind", "members"]

    def test_flag_and_label_omitted_when_unset(self):
        text = serialize_structure(load_structure("go"))
        doc = json.loads(text)
        assert "surface_subject_final" not in doc
        assert doc["label"] == "bare-imperative"


class TestStructureErrors:
    def test_invalid_json_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_structure('{\n  "word_order": "svo",\n  !\n}')
        assert e.value.line == 3

    def test_top_level_must_be_object(self):
        with pytest.raises(MalformedDocumentError):
            parse_structure("[1, 2]")

    def test_every_bundled_fixture_parses_or_reports(self):
        bad = (FIXTURES / "bad_two_subjects.json").read_text(encoding="utf-8")
        from synapper import StructureValidationError

        with pytest.raises(StructureValidationError) as e:
            parse_structure(bad)
        assert [i.code for i in e.value.issues] == ["multiple-subjects"]


class TestProfileParsing:
    @pytest.mark.parametrize("name", ALL_PROFILES)
    def test_bundled_profiles_parse(self, name):
        p = parse_profile((PROFILES / f"{name}.json").read_text(encoding="utf-8"))
        assert p.name == name

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKeyError):
            parse_profile('{"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "verb": "v1"}')

    def test_missing_wh_rule_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_profile('{"name": "x", "word_order": "svo"}')

    def test_unknown_enum_value_lists_options(self):
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile('{"name": "x", "word_order": "svo", "wh_rule": "shout"}')
        assert "initial_inversion" in str(e.value)

    def test_duplicate_branch_category_rejected(self):
        text = json.dumps(
            {
                "name": "x",
                "word_order": "svo",
                "wh_rule": "initial_plain",
                "branch_rules": [
                    {"category": "ADJ", "side": "post"},
                    {"category": "ADJ", "side": "pre"},
                ],
            }
        )
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile(text)
        assert e.value.path == "branch_rules[1].category"

    def test_duplicate_ordinal_rejected(self):
        text = json.dumps(
            {
                "name": "x",
                "word_order": "svo",
                "wh_rule": "initial_plain",
                "morpheme_rules": [
                    {"kind": "drop_category", "selector": "DET", "ordinal": 3},
                    {"kind": "insert_before", "selector": "a", "payload": "b", "ordinal": 3},
                ],
            }
        )
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile(text)
        assert e.value.path == "morpheme_rules[1].ordinal"

    @pytest.mark.parametrize(
        "rule, bad_path",
        [
            ({"kind": "drop_category", "selector": "NOUNS"}, "selector"),
            ({"kind": "drop_category", "selector": "DET", "payload": "x"}, "payload"),
            ({"kind": "suffix_on_role", "selector": "topic", "payload": "da"}, "selector"),
            ({"kind": "suffix_on_role", "selector": "subject"}, "payload"),
            ({"kind": "insert_before", "selector": "a", "payload": "  "}, "payload"),
        ],
    )
    def test_rule_shape_errors(self, rule, bad_path):
        text = json.dumps(
            {"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "morpheme_rules": [rule]}
        )
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile(text)
        assert e.value.path == f"morpheme_rules[0].{bad_path}"

    @pytest.mark.parametrize("kind", ["drop_category", "insert_after", "suffix_on_role"])
    def test_empty_selector_is_named(self, kind):
        rule = {"kind": kind, "selector": "", "payload": "x"}
        text = json.dumps(
            {"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "morpheme_rules": [rule]}
        )
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile(text)
        assert (e.value.path, e.value.message) == (
            "morpheme_rules[0].selector",
            "selector must be non-empty",
        )


class TestLexiconParsing:
    def test_comments_and_blanks_skipped(self):
        lex = parse_lexicon("# header\n\nJane\tN\tJane\n\n# more\nhas\tV\tbor\n")
        assert len(lex) == 2

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("Jane\tN\tJane\nhas\tbor\n")
        assert e.value.line == 2

    def test_unknown_category_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("# x\nJane\tNOUN\tJane\n")
        assert e.value.line == 2

    def test_duplicate_pair_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("a\tDET\tbir\na\tDET\tbitta\n")
        assert e.value.line == 2

    def test_same_surface_different_category_allowed(self):
        lex = parse_lexicon("fast\tADJ\ttez\nfast\tN\tro'za\n")
        assert lex.lookup("fast", Category.ADJ) == "tez"

    @pytest.mark.parametrize("line", ["Mary\tN\tMa ry", "Ma ry\tN\tMary", "Mary\tN\tMa\u00a0ry"])
    def test_field_with_inner_whitespace_reports_line(self, line):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon(f"# x\n{line}\n")
        assert e.value.line == 2


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_structure, "[" * 3000 + "]" * 3000),
        (parse_profile, '{"name": ' * 3000 + "1" + "}" * 3000),
        (parse_structure, "1" * 5000),
    ],
)
def test_json_the_decoder_cannot_hold_is_a_document_error(parse, text):
    with pytest.raises(MalformedDocumentError) as e:
        parse(text)
    assert str(e.value).startswith("unreadable JSON")


class TestDot:
    def test_horse_shape(self):
        dot = to_dot(load_structure("horse"))
        assert dot.startswith("digraph synapper {")
        ring_edges = [l for l in dot.splitlines() if "->" in l and "b" not in l.split("->")[0]]
        branch_edges = [l for l in dot.splitlines() if "->" in l and "b" in l.split("->")[0]]
        assert len(ring_edges) == 3
        assert len(branch_edges) == 3
        assert '"very fast"' in dot

    def test_colette_has_exactly_two_clusters(self):
        dot = to_dot(load_structure("colette"))
        assert dot.count("subgraph cluster_") == 2
        assert 'label="phrasal loop"' in dot
        assert 'label="clausal loop"' in dot

    def test_single_member_ring_has_no_edges(self):
        dot = to_dot(load_structure("go"))
        assert "->" not in dot

    def test_branch_edge_points_into_the_node(self):
        dot = to_dot(load_structure("horse"))
        assert "n2b0 -> n2;" in dot

    def test_escapes_quotes(self):
        s = parse_structure(
            json.dumps(
                {
                    "word_order": "svo",
                    "loop": {
                        "kind": "clausal",
                        "members": [
                            {"role": "subject", "node": [{"surface": 'say"hi"', "category": "N"}]},
                            {"role": "verb", "node": [{"surface": "went", "category": "V"}]},
                        ],
                    },
                }
            )
        )
        assert '\\"hi\\"' in to_dot(s)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_round_trip_preserves_structural_equality(seed):
    s = random_structure(random.Random(seed))
    again = parse_structure(serialize_structure(s))
    assert structural_equal(again, s)
