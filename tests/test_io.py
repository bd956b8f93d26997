"""Serialization round-trips, strict parse errors, lexicon TSV, DOT export."""

import enum
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    Branch,
    Category,
    Constituent,
    Lexicon,
    Loop,
    LoopKind,
    MalformedDocumentError,
    MalformedSyntaxError,
    Role,
    Synapper,
    SynapperError,
    Token,
    UnknownKeyError,
    WordOrder,
    iter_tokens,
    linearize,
    parse_lexicon,
    parse_profile,
    parse_structure,
    serialize_structure,
    structural_equal,
    substitute_lexemes,
    to_dot,
)
from synapper import io_formats
from synapper.model import MAX_DEPTH, _is_surface
from conftest import (
    FIXTURES,
    LEXICONS,
    PROFILES,
    frames_while,
    load_profile,
    load_structure,
    loops_of,
    random_structure,
    replaced,
)
from replay import JSON_EDGE_TEXTS, json_outcome, loads_outcome
import spec

ALL_FIXTURES = ["horse", "tim", "colette", "cena_a", "cena_b", "space_news", "mary", "go"]
ALL_PROFILES = ["en", "fr", "ja-gloss", "cy-gloss", "uz", "uz-gloss", "vso", "en-articles"]


def _word(surface: str) -> Token:
    return Token(surface, Category.N)


# Members whose documents hold the shapes random_structure never makes: empty
# arrays and a phrasal head past 0. The validator rejects some of them, but
# serialize_structure writes any Synapper.
EDGE_MEMBERS = {
    "empty node": Constituent(role=Role.OBJECT, node=()),
    "empty branch": Constituent(role=Role.OBJECT, node=(_word("x"),), branches=(Branch((), Category.ADJ),)),
    "empty loop": Constituent(role=Role.OBJECT, loop=Loop(LoopKind.PHRASAL, ())),
    "phrasal head": Constituent(
        role=Role.OBJECT,
        loop=Loop(LoopKind.PHRASAL, (Constituent(node=(_word("a"),)), Constituent(node=(_word("b"),))), 1),
    ),
}

# Characters json must escape or must leave as they are under ensure_ascii=False.
# Surfaces cannot hold whitespace, so U+2028 and newlines appear in labels only.
_SURFACE_CHARS = ['"', "\\", *map(chr, range(9)), "a", "\u00e9", "\u00df", "\u65e5", "\U0001f600"]
surfaces = st.text(alphabet=st.sampled_from(_SURFACE_CHARS), min_size=1, max_size=6)
labels = st.text(alphabet=st.sampled_from([*_SURFACE_CHARS, " ", "\n", "\t", "\u2028"]), max_size=8)


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
        assert list(doc) == ["label", "word_order", "loop"]
        assert list(doc["loop"]) == ["kind", "members"]

    def test_flag_and_label_omitted_when_unset(self):
        text = serialize_structure(load_structure("go"))
        doc = json.loads(text)
        assert "surface_subject_final" not in doc
        assert doc["label"] == "bare-imperative"

    def test_code_built_branch_order_survives_a_round_trip(self):
        """Stored position is the one branch order that linearize, serialize and to_dot read."""
        adjectives = tuple(Branch((Token(w, Category.ADJ),), Category.ADJ) for w in ("brown", "big"))
        s = Synapper(
            label="",
            word_order=WordOrder.SVO,
            main=Loop(
                LoopKind.CLAUSAL,
                (
                    Constituent(role=Role.SUBJECT, node=(_word("horse"),), branches=adjectives),
                    Constituent(role=Role.VERB, node=(Token("runs", Category.V),)),
                ),
            ),
        )
        again = parse_structure(serialize_structure(s))
        p = load_profile("en")
        assert linearize(s, p).render() == linearize(again, p).render() == "Brown big horse runs"
        assert structural_equal(again, s)


class TestDirectSerializer:
    """serialize_structure is byte-for-byte the json.dumps text of spec.serialize_structure."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_bundled_fixtures(self, name):
        s = load_structure(name)
        assert serialize_structure(s) == spec.serialize_structure(s)

    @pytest.mark.parametrize(
        "members", [(), *((m,) for m in EDGE_MEMBERS.values())], ids=["empty members", *EDGE_MEMBERS]
    )
    def test_code_built_edge_cases(self, members):
        main = Loop(LoopKind.CLAUSAL, members)
        s = Synapper(label="edge", word_order=WordOrder.VSO, main=main)
        assert serialize_structure(s) == spec.serialize_structure(s)

    @settings(max_examples=150)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        words=st.lists(surfaces, min_size=1, max_size=8),
        label=labels,
        extra=st.lists(st.sampled_from(list(EDGE_MEMBERS.values())), max_size=2),
    )
    def test_matches_the_spec_on_escaped_text(self, seed, words, label, extra):
        s = random_structure(random.Random(seed))
        pairs = dict.fromkeys((t.surface, t.category) for t in iter_tokens(s))
        s = substitute_lexemes(s, Lexicon({pair: words[i % len(words)] for i, pair in enumerate(pairs)}))
        main = replaced(s.main, members=s.main.members + tuple(extra))
        s = replaced(s, label=label, main=main)
        assert serialize_structure(s) == spec.serialize_structure(s)

    def test_one_frame_per_loop(self):
        """_emit_loop writes members, branches and their token arrays itself: one frame per loop."""
        for s in [*map(load_structure, ALL_FIXTURES), *map(random_structure, map(random.Random, range(30)))]:
            _, frames = frames_while(serialize_structure, s)
            written = {code.co_name: n for code, n in frames.items() if code.co_filename == io_formats.__file__}
            assert written == {"serialize_structure": 1, "_emit_loop": len(loops_of(s.main))}

    def test_layout_table_serves_depths_in_any_order(self, monkeypatch):
        """Down to MAX_DEPTH, then shallow, then deep again: each depth's stored layout writes json.dumps's text."""
        monkeypatch.setattr(io_formats, "_LAYOUTS", {})
        deep = _both_kinds_chain(MAX_DEPTH)
        for s in (deep, _both_kinds_chain(2), load_structure("tim"), deep):
            text = serialize_structure(s)
            assert text == spec.serialize_structure(s)
            assert parse_structure(text) == s
        assert len(io_formats._LAYOUTS) == MAX_DEPTH

    def test_layout_table_holds_no_structure_text(self, monkeypatch):
        """The table keeps whitespace and key text only, one entry per depth written."""
        monkeypatch.setattr(io_formats, "_LAYOUTS", {})
        s = _both_kinds_chain(3)
        pairs = dict.fromkeys((t.surface, t.category) for t in iter_tokens(s))
        words = {pair: f"Qz{i}surface" for i, pair in enumerate(pairs)}
        s = replaced(substitute_lexemes(s, Lexicon(words)), label="Qzlabel")
        serialize_structure(s)
        assert len(io_formats._LAYOUTS) == 3
        pending, strings = list(io_formats._LAYOUTS.items()), []
        while pending:
            value = pending.pop()
            if isinstance(value, str):
                strings.append(value)
            else:
                pending += value.values() if isinstance(value, dict) else value
        assert strings and not [text for text in strings if "Qz" in text]

    def test_loops_past_the_bound_are_written_without_growing_the_table(self, monkeypatch):
        monkeypatch.setattr(io_formats, "_LAYOUTS", {})
        s = _both_kinds_chain(MAX_DEPTH + 2)
        assert serialize_structure(s) == spec.serialize_structure(s)
        assert serialize_structure(s) == spec.serialize_structure(s)
        assert len(io_formats._LAYOUTS) == MAX_DEPTH


def _both_kinds_chain(depth: int) -> Synapper:
    """A structure whose clausal loops nest depth deep, with a phrasal loop next to each nested clausal one.

    So every depth below the main loop writes a loop of each kind, and with
    it a head_index line; valid up to MAX_DEPTH.
    """
    adj = (Branch((Token("big", Category.ADJ),), Category.ADJ),)
    verb = Constituent(role=Role.VERB, node=(Token("ran", Category.V),), branches=adj)
    loop = Loop(LoopKind.CLAUSAL, (Constituent(role=Role.SUBJECT, node=(Token("Tim", Category.N),)), verb))
    phrase_members = (Constituent(node=(_word("very"),)), Constituent(node=(_word("far"),), branches=adj))
    phrase = Constituent(role=Role.OBJECT, loop=Loop(LoopKind.PHRASAL, phrase_members, 1))
    for _ in range(depth - 1):
        loop = Loop(LoopKind.CLAUSAL, (Constituent(role=Role.SUBJECT, loop=loop), verb, phrase))
    return Synapper("chain", WordOrder.SVO, loop)


class TestStructureErrors:
    def test_invalid_json_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_structure('{\n  "word_order": "svo",\n  !\n}')
        assert e.value.line == 3

    def test_top_level_must_be_object(self):
        for text in ("[1, 2]", "1", '"x"', "null", "true"):
            with pytest.raises(MalformedDocumentError) as e:
                parse_structure(text)
            assert type(e.value) is MalformedDocumentError
            assert (e.value.path, e.value.message) == ("", "expected an object")

    def test_every_bundled_fixture_parses_or_reports(self):
        bad = (FIXTURES / "bad_two_subjects.json").read_text(encoding="utf-8")
        from synapper import StructureValidationError

        with pytest.raises(StructureValidationError) as e:
            parse_structure(bad)
        assert [i.code for i in e.value.issues] == ["multiple-subjects"]

    @pytest.mark.parametrize("value", ["true", "false", '"yes"'])
    def test_surface_subject_final_is_an_unknown_key(self, value):
        """Where the subject surfaces is the profile's choice; a structure has no key for it."""
        text = (FIXTURES / "mary.json").read_text(encoding="utf-8")
        text = text.replace('"loop":', f'"surface_subject_final": {value},\n  "loop":')
        with pytest.raises(UnknownKeyError) as e:
            parse_structure(text)
        assert (e.value.path, e.value.message) == ("surface_subject_final", "unknown key 'surface_subject_final'")


def _bom_copy(path: Path, tmp_path: Path) -> Path:
    copy = tmp_path / path.name
    copy.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    return copy


class TestByteOrderMark:
    """A structure or profile file saved with a UTF-8 byte order mark reads like the plain file."""

    def test_parsers_drop_one_mark(self, tmp_path):
        for parse, path in ((parse_structure, FIXTURES / "horse.json"), (parse_profile, PROFILES / "en.json")):
            text = _bom_copy(path, tmp_path).read_text(encoding="utf-8")
            assert text.startswith("\ufeff")
            assert parse(text) == parse(path.read_text(encoding="utf-8"))

    def test_cli_output_matches_the_plain_files(self, tmp_path, run_cli):
        horse, en = FIXTURES / "horse.json", PROFILES / "en.json"
        bom_horse, bom_en = _bom_copy(horse, tmp_path), _bom_copy(en, tmp_path)
        plain = run_cli("validate", str(horse))
        assert plain[0] == 0
        assert run_cli("validate", str(bom_horse)) == plain
        plain = run_cli("linearize", str(horse), "--profile", str(en))
        assert plain[0] == 0
        assert run_cli("linearize", str(bom_horse), "--profile", str(bom_en)) == plain

    def test_a_second_mark_is_invalid_json(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_structure("\ufeff\ufeff{}")
        assert e.value.line == 1


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

    def test_a_rule_is_checked_before_its_ordinal_is_compared(self):
        """A rule that repeats an ordinal and does not fit its kind is reported for its shape."""
        rules = [{"kind": "drop_category", "selector": "DET"}, {"kind": "drop_category", "selector": "X", "ordinal": 0}]
        text = json.dumps({"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "morpheme_rules": rules})
        with pytest.raises(MalformedDocumentError) as e:
            parse_profile(text)
        assert (e.value.path, e.value.message) == (
            "morpheme_rules[1].selector",
            "drop selector must be a category tag, got 'X'",
        )

    @pytest.mark.parametrize(
        "rule, bad_path",
        [
            ({"kind": "drop_category", "selector": "NOUNS"}, "selector"),
            ({"kind": "drop_category", "selector": "DET", "payload": "x"}, "payload"),
            ({"kind": "suffix_on_role", "selector": "topic", "payload": "da"}, "selector"),
            ({"kind": "suffix_on_role", "selector": "subject"}, "payload"),
            ({"kind": "insert_before", "selector": "a", "payload": "  "}, "payload"),
            ({"kind": "suffix_on_role", "selector": "subject", "payload": " s"}, "payload"),
            ({"kind": "suffix_on_role", "selector": "subject", "payload": " "}, "payload"),
            ({"kind": "insert_before", "selector": "a b", "payload": "x"}, "selector"),
            ({"kind": "insert_after", "selector": " a", "payload": "x"}, "selector"),
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


    def test_an_empty_name_is_named(self):
        with pytest.raises(SynapperError) as e:
            parse_profile('{"name": "", "word_order": "svo", "wh_rule": "initial_plain"}')
        assert (type(e.value), e.value.path, e.value.message) == (
            MalformedDocumentError,
            "name",
            "profile name must be non-empty",
        )

    @pytest.mark.parametrize("key", ["branch_rules", "morpheme_rules"])
    @pytest.mark.parametrize("value", [{}, "ab"])
    def test_rules_that_are_not_an_array_are_named(self, key, value):
        text = json.dumps({"name": "x", "word_order": "svo", "wh_rule": "initial_plain", key: value})
        with pytest.raises(SynapperError) as e:
            parse_profile(text)
        assert (type(e.value), e.value.path, e.value.message) == (MalformedDocumentError, key, "expected an array")

    @pytest.mark.parametrize("ordinal", ["1", 1.5, True])
    def test_an_ordinal_that_is_not_an_integer_is_named(self, ordinal):
        rule = {"kind": "drop_category", "selector": "DET", "ordinal": ordinal}
        text = json.dumps(
            {"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "morpheme_rules": [rule]}
        )
        with pytest.raises(SynapperError) as e:
            parse_profile(text)
        assert (type(e.value), e.value.path, e.value.message) == (
            MalformedDocumentError,
            "morpheme_rules[0].ordinal",
            "expected an integer",
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
        assert str(e.value) == "line 2: unknown category 'NOUN'"

    def test_duplicate_pair_reports_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("a\tDET\tbir\na\tDET\tbitta\n")
        assert e.value.line == 2
        assert str(e.value) == "line 2: duplicate entry for 'a'/DET"

    def test_same_surface_different_category_allowed(self):
        lex = parse_lexicon("fast\tADJ\ttez\nfast\tN\tro'za\n")
        assert lex.lookup("fast", Category.ADJ) == "tez"

    @pytest.mark.parametrize("line", ["Mary\tN\tMa ry", "Ma ry\tN\tMary", "Mary\tN\tMa\u00a0ry"])
    def test_field_with_inner_whitespace_reports_line(self, line):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon(f"# x\n{line}\n")
        assert e.value.line == 2
        assert str(e.value) == "line 2: source and target must be single tokens without whitespace"

    @pytest.mark.parametrize("line", ["\tN\tJane", " \tN\tJane", "Jane\tN\t", "Jane\tN\t\u00a0"])
    def test_an_empty_source_or_target_leaves_two_fields(self, line):
        """The line is stripped before it is split, so an empty first or last field is no field at all."""
        with pytest.raises(SynapperError) as e:
            parse_lexicon(f"# x\nhas\tV\tbor\n{line}\n")
        assert (type(e.value), e.value.line, str(e.value)) == (
            MalformedSyntaxError,
            3,
            "line 3: expected 3 tab-separated fields, got 2",
        )

    def test_an_empty_category_is_unknown(self):
        with pytest.raises(SynapperError) as e:
            parse_lexicon("Jane\t \tJane\n")
        assert (type(e.value), e.value.line, str(e.value)) == (MalformedSyntaxError, 1, "line 1: unknown category ''")

    def test_unknown_category_is_reported_before_a_spaced_field(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("Jane\tN\tJane\nMa ry\tNOUN\tMary\n")
        assert str(e.value) == "line 2: unknown category 'NOUN'"

    @pytest.mark.parametrize("mark", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, mark):
        lex = parse_lexicon(f"# note{mark} more\na\tN\tb\n")
        assert lex.lookup("a", Category.N) == "b"

    def test_a_field_holding_a_separator_is_not_one_token_on_its_own_line(self):
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon("# x\r\nJane\tN\tJane\rMa\x1cry\tN\tMary\n")
        assert str(e.value) == "line 3: source and target must be single tokens without whitespace"

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        plain = (LEXICONS / "en-uz.tsv").read_text(encoding="utf-8")
        bom = tmp_path / "en-uz.tsv"
        bom.write_text(plain, encoding="utf-8-sig")
        assert parse_lexicon(bom.read_text(encoding="utf-8"))._tokens == parse_lexicon(plain)._tokens
        assert parse_lexicon("\ufeffJane\tN\tJane\n").lookup("Jane", Category.N) == "Jane"

    def test_surface_rule_runs_once_per_field(self):
        """_is_surface checks each source; Token applies the same rule inline to each target."""
        text = (LEXICONS / "en-uz.tsv").read_text(encoding="utf-8")
        lex, frames = frames_while(parse_lexicon, text)
        assert len(lex) == 7
        assert frames[_is_surface.__code__] == frames[Token.__init__.__code__] == 7
        # A target with whitespace still fails on its own line.
        with pytest.raises(MalformedSyntaxError) as e:
            parse_lexicon(text + "Mary\tN\tMa ry\n")
        assert e.value.line == text.count("\n") + 1
        assert str(e.value).endswith(": source and target must be single tokens without whitespace")


_PROFILE_HEAD = '"name": "x", "word_order": "svo", "wh_rule": "initial_plain"'


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"name": "x", "word_order": "svo", "wh_rule": "shout"}',
            "wh_rule: unknown value 'shout' (expected one of: initial_inversion, initial_plain, pre_subject)",
        ),
        (
            '{%s, "verb_placement": "v3"}' % _PROFILE_HEAD,
            "verb_placement: unknown value 'v3' (expected one of: default, v1, v2)",
        ),
        (
            '{%s, "branch_rules": [{"category": "NOUN", "side": "pre"}]}' % _PROFILE_HEAD,
            "branch_rules[0].category: unknown value 'NOUN' "
            "(expected one of: N, V, AUX, ADJ, ADV, DET, PRON, PREP, WH, ADJP, OTHER)",
        ),
        (
            '{%s, "branch_rules": [{"category": "N", "side": "up"}]}' % _PROFILE_HEAD,
            "branch_rules[0].side: unknown value 'up' (expected one of: pre, post)",
        ),
        (
            '{%s, "branch_rules": [{"category": "N", "side": "pre", "post_order": "x"}]}' % _PROFILE_HEAD,
            "branch_rules[0].post_order: unknown value 'x' (expected one of: source, reversed)",
        ),
        (
            '{%s, "branch_rules": [{"category": "N", "side": "pre"}, {"category": "N", "side": "post"}]}'
            % _PROFILE_HEAD,
            "branch_rules[1].category: duplicate placement for category 'N'",
        ),
        (
            '{%s, "morpheme_rules": [{"kind": "swap", "selector": "a"}]}' % _PROFILE_HEAD,
            "morpheme_rules[0].kind: unknown value 'swap' "
            "(expected one of: drop_category, insert_before, insert_after, suffix_on_role)",
        ),
        (
            '{%s, "morpheme_rules": [{"kind": "drop_category", "selector": "NOUN"}]}' % _PROFILE_HEAD,
            "morpheme_rules[0].selector: drop selector must be a category tag, got 'NOUN'",
        ),
        (
            '{%s, "morpheme_rules": [{"kind": "suffix_on_role", "selector": "topic", "payload": "da"}]}'
            % _PROFILE_HEAD,
            "morpheme_rules[0].selector: suffix selector must be a role, got 'topic'",
        ),
    ],
)
def test_profile_enum_errors_name_the_value_and_every_option(text, message):
    with pytest.raises(MalformedDocumentError) as e:
        parse_profile(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "parse, path",
    [(parse_profile, PROFILES / f"{name}.json") for name in ALL_PROFILES] + [(parse_lexicon, LEXICONS / "en-uz.tsv")],
    ids=[*ALL_PROFILES, "en-uz"],
)
def test_profiles_and_lexicons_read_enum_text_without_an_enum_frame(parse, path):
    """Enum members come from {text: member} tables, and model enums hash in C."""
    _, frames = frames_while(parse, path.read_text(encoding="utf-8"))
    assert Path(enum.__file__) not in {Path(code.co_filename) for code in frames}


# Before 3.13 the C scanner raises RecursionError at 3,000 levels; 3.13's
# reads them, so the reader's own checks report the value.
_RECURSION = "unreadable JSON: nested too deeply to decode"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_structure,
            "[" * 3000 + "]" * 3000,
            "expected an object" if sys.version_info >= (3, 13) else _RECURSION,
        ),
        (
            parse_profile,
            '{"name": ' * 3000 + "1" + "}" * 3000,
            "missing key 'word_order'" if sys.version_info >= (3, 13) else _RECURSION,
        ),
        (
            parse_structure,
            "1" * 5000,
            "unreadable JSON: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
    ],
    ids=["array-3000-deep", "object-3000-deep", "int-5000-digits"],
)
def test_json_the_decoder_cannot_hold_is_a_document_error(parse, text, message):
    with pytest.raises(MalformedDocumentError) as e:
        parse(text)
    assert (type(e.value), e.value.path, e.value.message) == (MalformedDocumentError, "", message)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
_JSON_SPACE = st.text(" \t\n\r", max_size=3)


@st.composite
def json_documents(draw):
    """A JSON value dumped with random separators, indent and escaping, in random whitespace, maybe after a mark."""
    text = json.dumps(
        draw(_JSON_VALUES),
        separators=tuple(draw(_JSON_SPACE) + sep + draw(_JSON_SPACE) for sep in ",:"),
        indent=draw(st.none() | st.integers(0, 2) | st.just("\t")),
        ensure_ascii=draw(st.booleans()),
    )
    around = _JSON_SPACE | st.text(" \t\n\r\x0b\x0c\xa0", max_size=2)
    return draw(st.sampled_from(["", "\ufeff"])) + draw(around) + text + draw(around)


class TestJsonReader:
    """The reader gives what json.loads gives after one byte order mark: its value, or the report of its error."""

    # What the reader gives for each of JSON_EDGE_TEXTS: a value, or which error.
    _EDGE_KINDS = {
        **dict.fromkeys(["NaN", "Infinity", "-Infinity"], "value"),
        "1" * 5000: MalformedDocumentError,
        "[" * 3000 + "]" * 3000: "value" if sys.version_info >= (3, 13) else MalformedDocumentError,
    }

    @pytest.mark.parametrize("text", JSON_EDGE_TEXTS, ids=[repr(text)[:16] for text in JSON_EDGE_TEXTS])
    def test_edge_texts(self, text):
        outcome = loads_outcome(text)
        assert outcome == json_outcome(text)
        assert outcome[0] == self._EDGE_KINDS.get(text, MalformedSyntaxError)

    @settings(max_examples=200)
    @given(json_documents())
    def test_dumped_documents(self, text):
        assert loads_outcome(text) == json_outcome(text)

    @settings(max_examples=200)
    @given(json_documents(), st.data())
    def test_truncated_documents(self, text, data):
        text = text[: data.draw(st.integers(0, len(text)))]
        assert loads_outcome(text) == json_outcome(text)

    @settings(max_examples=200)
    # Characters json does not skip as whitespace, or that end or break a value.
    @given(json_documents(), st.sampled_from("\x00\x0b\x0c\xa0\ufeff,]}\"\\"), st.data())
    def test_documents_with_a_character_inserted(self, text, char, data):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
        assert loads_outcome(text) == json_outcome(text)


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
        """A backslash, then a quote, is escaped by a backslash; nothing else is."""
        for surface, label in [('say"hi"', 'say\\"hi\\"'), ("a\\b", "a\\\\b"), ('a\\"b', 'a\\\\\\"b'), ("é\x07", "é\x07")]:
            s = parse_structure(
                json.dumps(
                    {
                        "word_order": "svo",
                        "loop": {
                            "kind": "clausal",
                            "members": [
                                {"role": "subject", "node": [{"surface": surface, "category": "N"}]},
                                {"role": "verb", "node": [{"surface": "went", "category": "V"}]},
                            ],
                        },
                    }
                )
            )
            assert f'  n0 [label="{label}"];\n' in to_dot(s)

    @pytest.mark.parametrize("members", [(), (EDGE_MEMBERS["empty loop"],)], ids=["main", "nested"])
    def test_an_empty_loop_cannot_be_drawn(self, members):
        s = Synapper(label="", word_order=WordOrder.SVO, main=Loop(LoopKind.CLAUSAL, members))
        with pytest.raises(SynapperError, match="cannot draw an empty loop"):
            to_dot(s)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_bundled_fixtures_match_the_spec(self, name):
        s = load_structure(name)
        assert to_dot(s) == spec.to_dot(s)

    @settings(max_examples=100)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        words=st.lists(surfaces, min_size=1, max_size=8),
        extra=st.lists(st.sampled_from([m for name, m in EDGE_MEMBERS.items() if name != "empty loop"]), max_size=2),
    )
    def test_random_structures_match_the_spec(self, seed, words, extra):
        s = random_structure(random.Random(seed))
        pairs = dict.fromkeys((t.surface, t.category) for t in iter_tokens(s))
        s = substitute_lexemes(s, Lexicon({pair: words[i % len(words)] for i, pair in enumerate(pairs)}))
        s = replaced(s, main=replaced(s.main, members=s.main.members + tuple(extra)))
        assert to_dot(s) == spec.to_dot(s)

    def test_one_frame_per_loop_and_one_comprehension_per_label(self):
        """_dot_loop writes each node, branch and ring edge itself; only a label's join runs a frame."""
        for s in [*map(load_structure, ALL_FIXTURES), *map(random_structure, map(random.Random, range(30)))]:
            _, frames = frames_while(to_dot, s)
            loops = loops_of(s.main)
            labels = sum((c.node is not None) + len(c.branches) for loop in loops for c in loop.members)
            written = Counter()
            for code, n in frames.items():
                if code.co_filename == io_formats.__file__:
                    written[code.co_name] += n
            # From 3.12 a list comprehension runs in its caller's frame (PEP 709).
            comprehensions = labels if sys.version_info < (3, 12) else 0
            assert written == Counter({"to_dot": 1, "_dot_loop": len(loops), "<listcomp>": comprehensions})


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_round_trip_preserves_structural_equality(seed):
    s = random_structure(random.Random(seed))
    again = parse_structure(serialize_structure(s))
    assert structural_equal(again, s)
