"""Document building, validation reporting, equality, canonical forms."""

import copy
import enum
import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter, UserString
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    Branch,
    Category,
    Constituent,
    LanguageProfile,
    Loop,
    LoopKind,
    MalformedDocumentError,
    Role,
    StructureValidationError,
    Synapper,
    Token,
    UnknownKeyError,
    UnknownWordOrderError,
    ValidationIssue,
    WordOrder,
    build_synapper,
    canonical_form,
    identity_lexicon,
    iter_tokens,
    linearize,
    parse_structure,
    serialize_structure,
    structural_equal,
    structure_issues,
    substitute_lexemes,
    to_dot,
)
from synapper import model
from synapper.model import MAX_DEPTH, _is_surface
from op_counter import OpCounter
from conftest import (
    FIXTURES,
    check_value_semantics,
    frames_while,
    load_structure,
    loops_of,
    random_structure,
    replaced,
    rotate_main,
)
from test_io import ALL_FIXTURES, EDGE_MEMBERS
from test_totality import JSON_VALUES, STRUCTURE_DOCS
from replay import IDENTITY_HASHED, SCHEMA_KEYS, TAGS, TWINS, Text, outcome, single_faults, wrap_mappings
import spec


def _doc(members, kind="clausal", order="svo", **top):
    return {"word_order": order, "loop": {"kind": kind, "members": members}, **top}


def _node(role, *surfaces, category="N"):
    member = {"node": [{"surface": s, "category": category} for s in surfaces]}
    if role is not None:
        member["role"] = role
    return member


GOOD = [_node("subject", "Mary"), _node("verb", "loves", category="V"), _node("object", "chocolate")]


class TestShapeErrors:
    def test_unknown_top_key(self):
        with pytest.raises(UnknownKeyError) as e:
            build_synapper(_doc(GOOD, direction="clockwise"))
        assert e.value.path == "direction"

    def test_missing_word_order(self):
        with pytest.raises(MalformedDocumentError):
            build_synapper({"loop": {"kind": "clausal", "members": GOOD}})

    def test_unknown_word_order(self):
        with pytest.raises(UnknownWordOrderError) as e:
            build_synapper(_doc(GOOD, order="sva"))
        assert e.value.path == "word_order"

    def test_direction_is_not_storable(self):
        doc = _doc(GOOD)
        doc["loop"]["direction"] = "clockwise"
        with pytest.raises(UnknownKeyError) as e:
            build_synapper(doc)
        assert e.value.path == "loop.direction"

    def test_member_needs_node_or_loop(self):
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(_doc([{"role": "subject"}] + GOOD[1:]))
        assert e.value.path == "loop.members[0]"

    def test_head_index_forbidden_on_clausal(self):
        doc = _doc(GOOD)
        doc["loop"]["head_index"] = 1
        with pytest.raises(UnknownKeyError) as e:
            build_synapper(doc)
        assert e.value.path == "loop.head_index"

    @pytest.mark.parametrize("head", [enum.IntEnum("Head", "ONE").ONE, True, 1.0])
    def test_a_head_index_that_is_not_exactly_an_int(self, head):
        # An int subclass passes isinstance(head, int); Loop states the law.
        phrase = {"kind": "phrasal", "head_index": head, "members": [_node(None, "x")]}
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(_doc(GOOD[:2] + [{"role": "object", "loop": phrase}]))
        assert (e.value.path, e.value.message) == ("loop.members[2].loop.head_index", "expected an integer")

    def test_branches_on_nested_loop_rejected(self):
        doc = _doc(
            [
                _node("subject", "Mary"),
                _node("verb", "saw", category="V"),
                {
                    "role": "object",
                    "loop": {"kind": "phrasal", "members": [_node(None, "x")]},
                    "branches": [{"category": "ADJ", "tokens": [{"surface": "y", "category": "ADJ"}]}],
                },
            ]
        )
        with pytest.raises(UnknownKeyError) as e:
            build_synapper(doc)
        assert e.value.path.endswith("branches")

    def test_surface_with_whitespace_rejected(self):
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(_doc([_node("subject", "two words")] + GOOD[1:]))
        assert e.value.path.endswith("surface")

    @pytest.mark.parametrize("kind, role", [("clausal", None), ("clausal", 5), ("phrasal", None), ("phrasal", 5)])
    def test_a_role_that_is_not_text_is_a_shape_error_in_either_kind(self, kind, role):
        member = {"role": role, "node": [{"surface": "x", "category": "N"}]}
        doc = _doc(GOOD[:2] + [{"role": "object", "loop": {"kind": kind, "members": [member]}}])
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(doc)
        assert (e.value.path, e.value.message) == ("loop.members[2].loop.members[0].role", "expected a string")

    def test_a_shape_error_anywhere_takes_precedence_over_the_laws(self):
        phrase = {"kind": "phrasal", "head_index": 5, "members": [_node("object", "x")]}
        doc = _doc([{"role": "subject", "loop": phrase}, _node("subject", "Sue"), {"role": "verb", "node": 1}])
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(doc)
        assert (e.value.path, e.value.message) == ("loop.members[2].node", "expected an array of tokens")


class TestSemanticIssues:
    @pytest.mark.parametrize(
        "members, codes",
        [
            ([_node("verb", "ran", category="V"), _node("object", "far")], ["missing-subject"]),
            (GOOD + [_node("subject", "Sue")], ["multiple-subjects"]),
            ([_node("subject", "Mary"), _node("object", "chocolate")], ["missing-verb"]),
            (GOOD + [_node("verb", "eats", category="V")], ["multiple-verbs"]),
            ([], ["empty-loop"]),
            ([_node("subject", "Mary"), {"role": "verb", "node": []}], ["empty-node"]),
            # An unknown role leaves the ring without a subject, so both
            # violations are reported.
            ([_node("captain", "Mary")] + GOOD[1:], ["unknown-role", "missing-subject"]),
            ([_node("subject", "Mary", category="NOUN")] + GOOD[1:], ["unknown-category"]),
        ],
    )
    def test_issue_codes(self, members, codes):
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(members))
        assert sorted(i.code for i in e.value.issues) == sorted(codes)

    def test_all_issues_collected_in_one_pass(self):
        members = [
            _node("captain", "Mary", category="NOUN"),
            {"role": "verb", "node": []},
            {"role": "object", "loop": {"kind": "clausal", "members": []}},
        ]
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(members))
        codes = sorted(i.code for i in e.value.issues)
        assert codes == sorted(
            ["unknown-role", "unknown-category", "empty-node", "empty-loop", "missing-subject"]
        )
        paths = [i.path for i in e.value.issues]
        assert any(p.startswith("loop.members[2].loop") for p in paths)

    def test_single_member_ring_may_omit_subject(self):
        s = build_synapper(_doc([_node("verb", "go", category="V")]))
        assert structure_issues(s) == []

    def test_main_loop_must_be_clausal(self):
        doc = {"word_order": "svo", "loop": {"kind": "phrasal", "members": [_node(None, "x")]}}
        with pytest.raises(StructureValidationError) as e:
            build_synapper(doc)
        assert e.value.issues == (
            ValidationIssue("main-loop-not-clausal", "loop.kind", "the main loop must be clausal"),
        )

    def test_head_index_out_of_range(self):
        phrase = {"kind": "phrasal", "head_index": 5, "members": [_node(None, "x")]}
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(GOOD[:2] + [{"role": "object", "loop": phrase}]))
        assert e.value.issues == (
            ValidationIssue("head-out-of-range", "loop.members[2].loop.head_index", "head_index out of range"),
        )

    def test_phrasal_members_are_roleless(self):
        phrase = {"kind": "phrasal", "members": [_node("object", "x")]}
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(GOOD[:2] + [{"role": "object", "loop": phrase}]))
        path = "loop.members[2].loop.members[0].role"
        assert e.value.issues == (ValidationIssue("role-in-phrasal-loop", path, "phrasal loop members are roleless"),)

    def test_clausal_members_need_a_role(self):
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(GOOD + [_node(None, "far", category="ADV")]))
        assert e.value.issues == (ValidationIssue("missing-role", "loop.members[3]", "missing key 'role'"),)

    def test_the_laws_are_reported_together(self):
        phrase = {"kind": "phrasal", "head_index": 5, "members": [_node("captain", "x")]}
        members = [{"loop": phrase}, {"role": "verb", "node": []}]
        with pytest.raises(StructureValidationError) as e:
            build_synapper({"word_order": "svo", "loop": {"kind": "phrasal", "members": members}})
        roleless = "phrasal loop members are roleless"
        assert e.value.issues == (
            ValidationIssue("unknown-role", "loop.members[0].loop.members[0].role", "unknown role 'captain'"),
            ValidationIssue("main-loop-not-clausal", "loop.kind", "the main loop must be clausal"),
            ValidationIssue("role-in-phrasal-loop", "loop.members[1].role", roleless),
            ValidationIssue("head-out-of-range", "loop.members[0].loop.head_index", "head_index out of range"),
            ValidationIssue("role-in-phrasal-loop", "loop.members[0].loop.members[0].role", roleless),
            ValidationIssue("empty-node", "loop.members[1].node", "a node needs at least one token"),
        )

    def test_nested_clausal_checked_too(self):
        members = GOOD[:2] + [
            {
                "role": "object",
                "loop": {
                    "kind": "clausal",
                    "members": [_node("subject", "he"), _node("subject", "she")],
                },
            }
        ]
        with pytest.raises(StructureValidationError) as e:
            build_synapper(_doc(members))
        codes = {i.code for i in e.value.issues}
        assert "multiple-subjects" in codes and "missing-verb" in codes


class TestImmutability:
    def test_frozen_dataclasses(self):
        s = load_structure("mary")
        with pytest.raises(AttributeError):
            s.word_order = WordOrder.SOV
        with pytest.raises(AttributeError):
            s.main.members[0].node[0].surface = "Bob"

    @pytest.mark.parametrize("surface", ["", " ", "a b", "a\tb", "a\u00a0b", " a", "a\n"])
    def test_empty_surface_rejected_at_construction(self, surface):
        with pytest.raises(ValueError) as e:
            Token(surface, Category.N)
        assert str(e.value) == f"token surface must be non-empty without whitespace: {surface!r}"

    @pytest.mark.parametrize("surface", [b"x", bytearray(b"x"), 1, None, ["x"]])
    def test_a_surface_that_is_not_a_str_is_rejected_at_construction(self, surface):
        with pytest.raises(ValueError) as e:
            Token(surface, Category.N)
        assert str(e.value) == f"token surface must be a str: {surface!r}"
        assert not _is_surface(surface)

    def test_constituent_needs_exactly_one_payload(self):
        with pytest.raises(ValueError, match="^constituent needs exactly one of node or loop$"):
            Constituent(role=Role.SUBJECT)
        with pytest.raises(ValueError, match="^constituent needs exactly one of node or loop$"):
            Constituent(
                role=Role.SUBJECT,
                node=(Token("x", Category.N),),
                loop=Loop(LoopKind.PHRASAL, (Constituent(node=(Token("y", Category.N),)),)),
            )

    def test_branches_attach_to_nodes_only(self):
        loop = Loop(LoopKind.PHRASAL, (Constituent(node=(Token("y", Category.N),)),))
        branch = Branch((Token("big", Category.ADJ),), Category.ADJ)
        with pytest.raises(ValueError, match="^branches attach to nodes, not to nested loops$"):
            Constituent(Role.OBJECT, None, loop, (branch,))
        assert Constituent(Role.OBJECT, None, loop, ()).branches == ()

    @pytest.mark.parametrize("head", [True, False, 1.0, "1", None])
    def test_loop_head_must_be_exactly_an_int(self, head):
        members = (Constituent(node=(Token("x", Category.N),)), Constituent(node=(Token("y", Category.N),)))
        with pytest.raises(ValueError, match=r"^head_index must be an int: "):
            Loop(LoopKind.PHRASAL, members, head)

    def test_loop_with_an_int_head_round_trips(self):
        members = (Constituent(node=(Token("x", Category.N),)), Constituent(node=(Token("y", Category.N),)))
        phrase = Loop(LoopKind.PHRASAL, members, 1)
        assert phrase.head_index == 1
        main = Loop(LoopKind.CLAUSAL, (Constituent(Role.SUBJECT, loop=phrase), Constituent(Role.VERB, (_GO,))))
        s = Synapper("x", WordOrder.SVO, main)
        assert structure_issues(s) == []
        assert parse_structure(serialize_structure(s)) == s


_A = Token("a", Category.N)
_GO = Token("go", Category.V)


class TestValueSemantics:
    """Each model class is an immutable value: field equality, its repr, and its constructor."""

    def test_token(self):
        t = Token("a", Category.N)
        check_value_semantics(
            t,
            Token(surface="a", category=Category.N),
            [replaced(t, surface="b"), replaced(t, category=Category.DET), Token("A", Category.N)],
            "Token(surface='a', category=<Category.N: 'N'>)",
        )

    def test_branch(self):
        b = Branch((_A,), Category.DET)
        check_value_semantics(
            b,
            Branch(tokens=(Token("a", Category.N),), category=Category.DET),
            [replaced(b, tokens=(_A, _A)), replaced(b, tokens=()), replaced(b, category=Category.ADJ), (_A,)],
            "Branch(tokens=(Token(surface='a', category=<Category.N: 'N'>),), category=<Category.DET: 'DET'>)",
        )

    def test_constituent(self):
        branch = Branch((_A,), Category.DET)
        c = Constituent(Role.SUBJECT, (_A,), None, (branch,))
        check_value_semantics(
            c,
            Constituent(role=Role.SUBJECT, node=(Token("a", Category.N),), branches=(replaced(branch),)),
            [
                replaced(c, role=None),
                replaced(c, role=Role.OBJECT),
                replaced(c, node=(_GO,)),
                replaced(c, branches=()),
                Constituent(Role.SUBJECT, loop=Loop(LoopKind.PHRASAL, (Constituent(node=(_A,)),))),
            ],
            "Constituent(role=<Role.SUBJECT: 'subject'>, node=(Token(surface='a', category=<Category.N: 'N'>),),"
            " loop=None, branches=(Branch(tokens=(Token(surface='a', category=<Category.N: 'N'>),),"
            " category=<Category.DET: 'DET'>),))",
        )

    def test_constituent_defaults(self):
        c = Constituent(node=(_A,))
        assert (c.role, c.node, c.loop, c.branches) == (None, (_A,), None, ())
        assert Constituent(None, (_A,)) == c

    def test_loop(self):
        members = (Constituent(node=(_A,)), Constituent(node=(_GO,)))
        lp = Loop(LoopKind.PHRASAL, members, 1)
        check_value_semantics(
            lp,
            Loop(kind=LoopKind.PHRASAL, members=tuple(replaced(m) for m in members), head_index=1),
            [replaced(lp, kind=LoopKind.CLAUSAL), replaced(lp, members=members[::-1]), replaced(lp, head_index=0)],
            "Loop(kind=<LoopKind.PHRASAL: 'phrasal'>, members=(Constituent(role=None, node=(Token(surface='a',"
            " category=<Category.N: 'N'>),), loop=None, branches=()), Constituent(role=None,"
            " node=(Token(surface='go', category=<Category.V: 'V'>),), loop=None, branches=())), head_index=1)",
            derived=("roles",),
        )
        assert Loop(LoopKind.CLAUSAL, members).head_index == 0

    def test_loop_reads_each_members_role_when_built(self):
        with pytest.raises(AttributeError):
            Loop(LoopKind.PHRASAL, (Constituent(node=(_A,)), _A))

    def test_synapper(self):
        main = Loop(LoopKind.CLAUSAL, (Constituent(Role.VERB, (_GO,)),))
        s = Synapper("go", WordOrder.SVO, main)
        check_value_semantics(
            s,
            Synapper(label="go", word_order=WordOrder.SVO, main=replaced(main)),
            [
                replaced(s, label="other"),
                replaced(s, word_order=WordOrder.SOV),
                replaced(s, main=Loop(LoopKind.CLAUSAL, (Constituent(Role.VERB, (Token("went", Category.V),)),))),
            ],
            "Synapper(label='go', word_order=<WordOrder.SVO: 'svo'>,"
            " main=Loop(kind=<LoopKind.CLAUSAL: 'clausal'>, members=(Constituent(role=<Role.VERB: 'verb'>,"
            " node=(Token(surface='go', category=<Category.V: 'V'>),), loop=None, branches=()),), head_index=0))",
        )

    def test_validation_issue(self):
        issue = ValidationIssue("empty-loop", "loop.members", "a loop needs at least one member")
        check_value_semantics(
            issue,
            ValidationIssue(code="empty-loop", path="loop.members", message="a loop needs at least one member"),
            [replaced(issue, code="x"), replaced(issue, path="loop"), replaced(issue, message="")],
            "ValidationIssue(code='empty-loop', path='loop.members', message='a loop needs at least one member')",
        )


class TestStructuralEqual:
    def test_rotation_of_storage_is_ignored(self):
        s = load_structure("tim")
        for k in range(1, 5):
            assert structural_equal(s, rotate_main(s, k))

    def test_label_ignored(self):
        s = load_structure("mary")
        relabeled = replaced(s, label="other")
        assert structural_equal(s, relabeled)

    def test_word_order_matters(self):
        s = load_structure("mary")
        assert not structural_equal(s, replaced(s, word_order=WordOrder.SOV))

    def test_surface_change_matters(self):
        a = load_structure("mary")
        b = build_synapper(
            _doc([_node("subject", "Mary"), _node("verb", "hates", category="V"), _node("object", "chocolate")])
        )
        assert not structural_equal(a, b)

    def test_grouping_matters_for_ambiguous_headline(self):
        assert not structural_equal(load_structure("cena_a"), load_structure("cena_b"))

    def test_equivalence_laws_on_random_structures(self):
        rng = random.Random(20210711)
        structures = [random_structure(rng) for _ in range(40)]
        for s in structures:
            assert structural_equal(s, s)
        for s in structures:
            r = rotate_main(s, rng.randrange(1, len(s.main.members) + 1))
            assert structural_equal(s, r) and structural_equal(r, s)
        for a, b in zip(structures, structures[1:]):
            if structural_equal(a, b):
                assert canonical_form(a) == canonical_form(b)


class TestCanonicalForm:
    def test_is_one_line_json(self):
        text = canonical_form(load_structure("colette"))
        assert "\n" not in text
        assert json.loads(text)["word_order"] == "svo"

    def test_agrees_with_structural_equal_on_random_pairs(self):
        rng = random.Random(8675309)
        structures = [random_structure(rng, max_ring=3, max_depth=2) for _ in range(60)]
        structures += [rotate_main(s, 1) for s in structures[:10]]
        for a in structures[:30]:
            for b in structures[:30]:
                assert structural_equal(a, b) == (canonical_form(a) == canonical_form(b))

    def test_rotation_invariant(self):
        s = load_structure("horse")
        assert canonical_form(s) == canonical_form(rotate_main(s, 2))

    def test_differs_for_cena_readings(self):
        assert canonical_form(load_structure("cena_a")) != canonical_form(load_structure("cena_b"))

    def test_excludes_label(self):
        s = load_structure("mary")
        assert canonical_form(s) == canonical_form(replaced(s, label="renamed"))


def _unchecked_token(surface, category):
    """A Token that skips the surface rule, so that whitespace reaches the escaper too."""
    token = object.__new__(Token)
    object.__setattr__(token, "surface", surface)
    object.__setattr__(token, "category", category)
    return token


def _retokened(loop, token_for):
    """loop with each token t, counted in stored order from 0, replaced by token_for(index, t)."""
    count = itertools.count()

    def tokens(ts):
        return tuple(token_for(next(count), t) for t in ts)

    def walk(lp):
        members = []
        for m in lp.members:
            if m.loop is not None:
                members.append(replaced(m, loop=walk(m.loop)))
            else:
                branches = tuple(Branch(tokens(b.tokens), b.category) for b in m.branches)
                members.append(replaced(m, node=tokens(m.node), branches=branches))
        return replaced(lp, members=tuple(members))

    return walk(loop)


# Everything ASCII escaping must handle: quote, backslash, every control
# character, non-ASCII letters, a line separator and an astral character
# (written as a surrogate pair).
_ESCAPED_CHARS = ['"', "\\", *map(chr, range(0x20)), "a", "\u00e9", "\u00df", "\u65e5", "\u2028", "\U0001f600"]
_escaped_surfaces = st.text(alphabet=st.sampled_from(_ESCAPED_CHARS), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    words=st.lists(_escaped_surfaces, min_size=1, max_size=8),
    extra=st.lists(st.sampled_from(list(EDGE_MEMBERS.values())), max_size=2),
    turn=st.integers(min_value=1, max_value=8),
    at=st.integers(min_value=0, max_value=10**6),
    change=st.sampled_from(["surface", "category"]),
)
def test_canonical_form_and_equality_agree_with_the_spec(seed, words, extra, turn, at, change):
    s = random_structure(random.Random(seed), max_ring=4, max_depth=3)
    main = _retokened(s.main, lambda i, t: _unchecked_token(words[i % len(words)], t.category))
    s = replaced(s, main=replaced(main, members=main.members + tuple(extra)))
    at %= sum(1 for _ in iter_tokens(s))

    def perturb(i, t):
        if i != at:
            return t
        if change == "category":
            return _unchecked_token(t.surface, Category.WH if t.category is not Category.WH else Category.N)
        return _unchecked_token(t.surface + words[0], t.category)

    structures = [s, rotate_main(s, turn), replaced(s, main=_retokened(s.main, perturb))]
    for a in structures:
        assert canonical_form(a) == spec.canonical_form(a)
        for b in structures:
            assert structural_equal(a, b) == spec.structural_equal(a, b)
            assert (canonical_form(a) == canonical_form(b)) == structural_equal(a, b)


@pytest.mark.parametrize("name", ["canonical_form", "serialize_structure", "to_dot", "structural_equal"])
def test_write_path_runs_no_enum_or_json_encoder_frame(name):
    """Enum text is each member's own _value_ and the text is written directly, with no frame in enum.py or json."""
    s, other = load_structure("space_news"), load_structure("space_news")
    calls = {
        "canonical_form": canonical_form,
        "serialize_structure": serialize_structure,
        "to_dot": to_dot,
        "structural_equal": lambda x: structural_equal(x, other),
    }
    result, frames = frames_while(calls[name], s)
    assert result
    files = {Path(code.co_filename) for code in frames}
    assert Path(enum.__file__) not in files
    assert Path(json.encoder.__file__) not in files


@pytest.mark.parametrize("tags", TAGS, ids=[tags.__name__ for tags in TAGS])
def test_readers_and_writers_take_the_enums_own_text(tags):
    """Readers look text up in _value2member_map_ and writers write _value_: each member's value, in definition order."""
    assert list(tags._value2member_map_.items()) == [(m.value, m) for m in tags]
    assert type(tags._value2member_map_) is dict
    assert [m._value_ for m in tags] == [m.value for m in tags]


@pytest.mark.parametrize(("tags", "twin"), zip(TAGS, TWINS), ids=[tags.__name__ for tags in TAGS])
def test_each_tag_is_what_its_class_statement_builds(tags, twin):
    """enum's own check of its fast constructor finds each tag equal to the same enum written as a class statement."""
    enum._test_simple_enum(twin, tags)
    assert tags.__doc__ == twin.__doc__


@pytest.mark.parametrize("tags", TAGS, ids=[tags.__name__ for tags in TAGS])
def test_each_member_is_in_its_class_dict(tags):
    """Role.VERB is a class-dict hit, as after a class statement; an enum.property there would run a frame per use."""
    for m in tags:
        assert tags.__dict__[m.name] is m


@pytest.mark.parametrize("tags", IDENTITY_HASHED, ids=[tags.__name__ for tags in IDENTITY_HASHED])
def test_the_model_tags_hash_by_identity(tags):
    assert tags.__hash__ is object.__hash__


_ENUM_DICT_FRAMES = """
import enum, sys
frames = 0
def count(frame, event, arg):
    global frames
    frames += event == "call" and frame.f_code is enum._EnumDict.__setitem__.__code__
sys.setprofile(count)
import synapper
sys.setprofile(None)
print(frames)
"""


def test_importing_synapper_runs_no_enum_dict_frame():
    """No tag is built through a class statement's _EnumDict, one frame per name in its body."""
    import synapper

    env = {**os.environ, "PYTHONPATH": str(Path(synapper.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", _ENUM_DICT_FRAMES], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "0\n", "")


def test_canonical_form_runs_one_frame_per_loop():
    """_canon_loop writes members, branches and their token arrays itself; only the anchor rule has its own frame."""
    for s in [*map(load_structure, ALL_FIXTURES), *map(random_structure, map(random.Random, range(30)))]:
        _, frames = frames_while(canonical_form, s)
        loops = len(loops_of(s.main))
        written = {code.co_name: n for code, n in frames.items() if code.co_filename == model.__file__}
        assert written == {"canonical_form": 1, "_canon_loop": loops, "_rotated_members": loops}


def test_iter_tokens_stored_order():
    surfaces = [t.surface for t in iter_tokens(load_structure("horse"))]
    assert surfaces == ["Jane", "has", "horse", "a", "very", "fast", "brown"]


def test_space_news_holds_43_tokens():
    assert sum(1 for _ in iter_tokens(load_structure("space_news"))) == 43


def _token_chain(depth: int) -> Synapper:
    """Clausal loops nested depth levels deep, four tokens on each level around the next."""
    inner = Constituent(Role.OBJECT, (Token("z", Category.N),))
    for _ in range(depth):
        adverb = Branch((Token("d", Category.ADV),), Category.ADV)
        members = (
            Constituent(Role.SUBJECT, (Token("a", Category.N), Token("b", Category.N))),
            Constituent(Role.VERB, (Token("c", Category.V),), None, (adverb,)),
            inner,
        )
        inner = Constituent(Role.OBJECT, None, Loop(LoopKind.CLAUSAL, members))
    return Synapper("chain", WordOrder.SVO, inner.loop)


def test_iter_tokens_keeps_the_recursive_order():
    rng = random.Random(27)
    names = sorted(path.stem for path in FIXTURES.glob("*.json") if path.stem != "bad_two_subjects")
    structures = [*map(load_structure, names), *(random_structure(rng, max_depth=5) for _ in range(300))]
    structures.append(_token_chain(30))
    for s in structures:
        assert [*iter_tokens(s)] == spec.loop_tokens(s.main)


def test_iter_tokens_is_linear_in_nesting_depth():
    """ops(4n) - ops(2n) = 2 * (ops(2n) - ops(n)) for a walk linear in depth."""
    counts = []
    for depth in (24, 48, 96):
        s = _token_chain(depth)
        gc.disable()
        try:
            with OpCounter() as counter:
                tokens = [*iter_tokens(s)]
        finally:
            gc.enable()
        assert len(tokens) == 4 * depth + 1
        counts.append(counter.n)
    small, middle, large = counts
    assert 1.9 <= (large - middle) / (middle - small) <= 2.1


def _nested_doc(depth):
    """Clausal loops nested depth levels deep, the main loop counting as one."""
    verb = _node("verb", "b", category="V")
    members = [_node("subject", "a"), verb]
    for _ in range(depth - 1):
        members = [{"role": "subject", "loop": {"kind": "clausal", "members": members}}, verb]
    return _doc(members)


class TestDepthBound:
    def test_every_operation_works_at_the_bound(self):
        s = build_synapper(_nested_doc(MAX_DEPTH))
        assert structural_equal(s, s)
        assert len(linearize(s, LanguageProfile(name="x", word_order=WordOrder.SOV)).placed) == MAX_DEPTH + 1
        assert canonical_form(parse_structure(serialize_structure(s))) == canonical_form(s)
        assert to_dot(s).count("subgraph cluster_") == MAX_DEPTH - 1
        assert substitute_lexemes(s, identity_lexicon(s)) == s
        assert structure_issues(s) == []

    def test_one_level_deeper_is_rejected_with_its_path(self):
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(_nested_doc(MAX_DEPTH + 1))
        assert e.value.path == "loop" + ".members[0].loop" * MAX_DEPTH


# The issue each structure from _breaking reports.
_HEAD_RANGE = "head_index out of range"
_LAW_ISSUES = {
    "head past the end": ValidationIssue("head-out-of-range", "loop.members[0].loop.head_index", _HEAD_RANGE),
    "negative head": ValidationIssue("head-out-of-range", "loop.members[0].loop.head_index", _HEAD_RANGE),
    "phrasal main loop": ValidationIssue("main-loop-not-clausal", "loop.kind", "the main loop must be clausal"),
    "role in a phrasal loop": ValidationIssue(
        "role-in-phrasal-loop", "loop.members[0].loop.members[1].role", "phrasal loop members are roleless"
    ),
    "clausal member without a role": ValidationIssue("missing-role", "loop.members[2]", "missing key 'role'"),
    "loops past the depth bound": ValidationIssue(
        "too-deep", "loop" + ".members[0].loop" * MAX_DEPTH, f"loops nest deeper than {MAX_DEPTH} levels"
    ),
}


class TestStructureIssues:
    """structure_issues checks a code-built structure as build_synapper checks a document."""

    def _with_member(self, member):
        verb = Constituent(role=Role.VERB, node=(Token("ran", Category.V),))
        return Synapper("x", WordOrder.SVO, Loop(LoopKind.CLAUSAL, (member, verb)))

    def test_empty_node_reported(self):
        s = self._with_member(Constituent(role=Role.SUBJECT, node=()))
        assert structure_issues(s) == [
            ValidationIssue("empty-node", "loop.members[0].node", "a node needs at least one token")
        ]

    def test_empty_branch_tokens_reported(self):
        branch = Branch(tokens=(), category=Category.ADJ)
        s = self._with_member(Constituent(role=Role.SUBJECT, node=(Token("Tim", Category.N),), branches=(branch,)))
        assert structure_issues(s) == [
            ValidationIssue("empty-node", "loop.members[0].branches[0].tokens", "a node needs at least one token")
        ]

    def test_same_issues_as_the_document(self):
        doc = _doc([_node("subject", "Mary"), {"role": "verb", "node": []}])
        with pytest.raises(StructureValidationError) as e:
            build_synapper(doc)
        verb = Constituent(role=Role.VERB, node=())
        subject = Constituent(role=Role.SUBJECT, node=(Token("Mary", Category.N),))
        s = Synapper("", WordOrder.SVO, Loop(LoopKind.CLAUSAL, (subject, verb)))
        assert structure_issues(s) == list(e.value.issues)

    @pytest.mark.parametrize("law", _LAW_ISSUES)
    def test_every_law_of_the_reader_is_reported(self, law):
        """Each law build_synapper enforces, broken alone: reported as reading the written text reports it.

        The reader raises at once for a loop past the depth bound, with the
        issue's path and message; every other law is a collected issue.
        """
        s = _breaking(law)
        issue = _LAW_ISSUES[law]
        assert structure_issues(s) == [issue]
        text = serialize_structure(s)
        if law == "loops past the depth bound":
            with pytest.raises(MalformedDocumentError) as e:
                parse_structure(text)
            assert (e.value.path, e.value.message) == (issue.path, issue.message)
        else:
            with pytest.raises(StructureValidationError) as e:
                parse_structure(text)
            assert e.value.issues == (issue,)


def _phrase(head=0, role=None):
    """A two-member phrasal loop; role goes on its second member."""
    a = Constituent(node=(Token("very", Category.ADV),))
    b = Constituent(role=role, node=(Token("big", Category.ADJ),))
    return Loop(LoopKind.PHRASAL, (a, b), head)


def _breaking(law):
    """A code-built structure that breaks one law of build_synapper and no other."""
    subject = Constituent(role=Role.SUBJECT, node=(Token("Tim", Category.N),))
    verb = Constituent(role=Role.VERB, node=(Token("ran", Category.V),))
    members = {
        "head past the end": (Constituent(role=Role.SUBJECT, loop=_phrase(head=5)), verb),
        "negative head": (Constituent(role=Role.SUBJECT, loop=_phrase(head=-1)), verb),
        "role in a phrasal loop": (Constituent(role=Role.SUBJECT, loop=_phrase(role=Role.OBJECT)), verb),
        "clausal member without a role": (subject, verb, Constituent(node=(Token("far", Category.ADV),))),
    }
    if law == "phrasal main loop":
        return Synapper("x", WordOrder.SVO, _phrase())
    if law == "loops past the depth bound":
        deepest = Constituent(role=Role.SUBJECT, loop=build_synapper(_nested_doc(MAX_DEPTH)).main)
        return Synapper("x", WordOrder.SVO, Loop(LoopKind.CLAUSAL, (deepest, verb)))
    return Synapper("x", WordOrder.SVO, Loop(LoopKind.CLAUSAL, members[law]))


def _loops(loop):
    yield loop
    for m in loop.members:
        if m.loop is not None:
            yield from _loops(m.loop)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_loop_roles_are_derived_and_left_out_of_the_value(seed):
    s = random_structure(random.Random(seed), max_ring=6, max_depth=3)
    for loop in _loops(s.main):
        assert loop.roles == tuple(m.role for m in loop.members)
        # A twin whose roles are wrong is still equal, hashes and prints alike,
        # and a copy or a pickle of it gets its roles rebuilt from its members.
        twin = replaced(loop)
        object.__setattr__(twin, "roles", ())
        assert twin == loop and hash(twin) == hash(loop) and repr(twin) == repr(loop)
        assert "roles" not in repr(loop)
        for copied in (copy.copy(twin), copy.deepcopy(twin), pickle.loads(pickle.dumps(twin))):
            assert copied.roles == loop.roles


def _swapped(loop, old, new):
    """loop with its nested loop old (by identity) replaced by new."""
    if loop is old:
        return new
    members = [m if m.loop is None else replaced(m, loop=_swapped(m.loop, old, new)) for m in loop.members]
    return replaced(loop, members=tuple(members))


def _broken(loop, law, at):
    """loop with one law possibly broken; some changes leave it valid."""
    n = len(loop.members)
    if law == "head past the end":
        return replaced(loop, head_index=n + at % 3)
    if law == "negative head":
        return replaced(loop, head_index=-1 - at % 3)
    if law == "phrasal":
        members = tuple(replaced(m, role=None) for m in loop.members)
        return Loop(LoopKind.PHRASAL, members, at % n)
    if law == "clausal":
        roles = [Role.SUBJECT, Role.VERB] + [Role.OBJECT] * n
        members = tuple(replaced(m, role=r) for m, r in zip(loop.members, roles))
        return Loop(LoopKind.CLAUSAL, members)
    role = Role.OBJECT if law == "role on" else None
    members = list(loop.members)
    members[at % n] = replaced(members[at % n], role=role)
    return replaced(loop, members=tuple(members))


_LAW_BREAKS = ["head past the end", "negative head", "phrasal", "clausal", "role on", "role off"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    breaks=st.lists(st.tuples(st.sampled_from(_LAW_BREAKS), st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3),
)
def test_structure_issues_are_empty_exactly_when_the_written_text_reads_back(seed, breaks):
    s = random_structure(random.Random(seed), max_ring=4, max_depth=3)
    for law, which, at in breaks:
        loops = list(_loops(s.main))
        target = loops[which % len(loops)]
        s = replaced(s, main=_swapped(s.main, target, _broken(target, law, at)))
    issues = structure_issues(s)
    if issues:
        with pytest.raises(StructureValidationError) as e:
            parse_structure(serialize_structure(s))
        assert e.value.issues == tuple(issues)
    else:
        assert structural_equal(parse_structure(serialize_structure(s)), s)


# One child per hash seed; each prints the message of every missing-key case.
_MISSING_KEY_CASES = """
import json
from synapper import SynapperError, parse_profile, parse_structure

def message(parse, doc):
    try:
        parse(json.dumps(doc))
    except SynapperError as e:
        return str(e)

node = {"role": "subject", "node": [{}]}
branch = {"role": "subject", "node": [{"surface": "a", "category": "N"}], "branches": [{}]}
print(json.dumps([
    message(parse_structure, {}),
    message(parse_structure, {"word_order": "svo", "loop": {}}),
    message(parse_structure, {"word_order": "svo", "loop": {"kind": "clausal", "members": [node]}}),
    message(parse_structure, {"word_order": "svo", "loop": {"kind": "clausal", "members": [branch]}}),
    message(parse_profile, {}),
    message(parse_profile, {"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "branch_rules": [{}]}),
    message(parse_profile, {"name": "x", "word_order": "svo", "wh_rule": "initial_plain", "morpheme_rules": [{}]}),
]))
"""


def test_missing_key_reported_in_schema_order_whatever_the_hash_seed():
    import synapper

    src = str(Path(synapper.__file__).resolve().parent.parent)
    seen = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _MISSING_KEY_CASES], env=env, capture_output=True, text=True, check=True
        ).stdout
        seen.add(tuple(json.loads(out)))
    assert seen == {
        (
            "missing key 'word_order'",
            "loop: missing key 'kind'",
            "loop.members[0].node[0]: missing key 'surface'",
            "loop.members[0].branches[0]: missing key 'category'",
            "missing key 'name'",
            "branch_rules[0]: missing key 'category'",
            "morpheme_rules[0]: missing key 'kind'",
        )
    }


# Text that gets past the type checks: every enum value and surfaces that
# break the surface rule. Besides JSON's values, a str subclass's enum text,
# a str-like object's that is no str and a bytes surface reach the reader's
# guards.
_SCHEMA_TEXT = sorted(
    {m.value for e in (WordOrder, LoopKind, Role, Category) for m in e} | {"", "a b", "NOUN", "captain", "Svo"}
)
_VALUES = (
    st.sampled_from([0, 1, 7, -1, True, None, [], {}, b"x", Text("N"), UserString("N")])
    | st.sampled_from(_SCHEMA_TEXT)
    | JSON_VALUES
)


def _containers(value, out):
    """Every dict and list inside value, grouped by the object they look like."""
    if isinstance(value, (dict, list)):
        out.setdefault(_looks_like(value), []).append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


def _looks_like(container):
    if isinstance(container, list):
        return "array"
    for key, kind in (("word_order", "top"), ("kind", "loop"), ("surface", "token"), ("tokens", "branch")):
        if key in container:
            return kind
    return "member"


@st.composite
def reader_documents(draw):
    """A valid document with zero to three faults, some or all objects as non-dict Mappings.

    Each fault picks a kind of object first, so that rare objects such as
    loops are hit as often as tokens.
    """
    if draw(st.booleans()):
        structure = random_structure(random.Random(draw(st.integers(0, 2**32))), max_ring=5, max_depth=3)
        doc = json.loads(serialize_structure(structure))
    else:
        doc = copy.deepcopy(draw(st.sampled_from(STRUCTURE_DOCS)))
    for _ in range(draw(st.integers(0, 3))):
        groups = _containers(doc, {})
        place = draw(st.sampled_from(groups[draw(st.sampled_from(sorted(groups)))]))
        keys = sorted(place) if isinstance(place, dict) else list(range(len(place)))
        fault = draw(st.sampled_from(["value", "drop", "add", "empty"]))
        if fault == "empty" or not keys:
            place.clear()
        elif fault == "value":
            place[draw(st.sampled_from(keys))] = draw(_VALUES)
        elif fault == "drop":
            del place[draw(st.sampled_from(keys))]
        elif isinstance(place, dict):
            place[draw(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3))] = draw(_VALUES)
        else:
            place.insert(draw(st.integers(0, len(place))), draw(_VALUES))
    wrap = draw(st.sampled_from(["none", "all", "some"]))
    return doc if wrap == "none" else wrap_mappings(doc, lambda: wrap == "all" or draw(st.booleans()))


@settings(max_examples=250, deadline=None)
@given(reader_documents())
def test_build_synapper_agrees_with_the_spec(doc):
    assert outcome(build_synapper, doc) == outcome(spec.build_synapper, doc)


@pytest.mark.parametrize("name", ["cena_b", "colette"])
def test_build_synapper_agrees_with_the_spec_on_every_single_fault(name):
    doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    for faulty in single_faults(doc):
        for variant in (faulty, wrap_mappings(faulty, lambda: True)):
            assert outcome(build_synapper, variant) == outcome(spec.build_synapper, variant)


def _doubled_tokens(value):
    """The same document with every token listed twice, so only token counts change."""
    if isinstance(value, list):
        return [_doubled_tokens(v) for v in value]
    if isinstance(value, dict):
        out = {k: _doubled_tokens(v) for k, v in value.items()}
        for key in ("node", "tokens"):
            if key in out:
                out[key] = out[key] * 2
        return out
    return value


def test_only_token_checks_run_a_frame_per_token():
    doc = json.loads((FIXTURES / "space_news.json").read_text(encoding="utf-8"))
    s, frames = frames_while(build_synapper, doc)
    doubled, doubled_frames = frames_while(build_synapper, _doubled_tokens(doc))
    n = sum(1 for _ in iter_tokens(s))
    assert sum(1 for _ in iter_tokens(doubled)) == 2 * n

    # Token applies the surface rule inline, so _is_surface runs no frame here.
    assert frames[Token.__init__.__code__] == n and frames[_is_surface.__code__] == 0
    assert doubled_frames - frames == Counter({Token.__init__.__code__: n})
    assert not [code for code in frames if Path(code.co_filename) == Path(enum.__file__)]
    assert not [code for code in frames if code.co_name in ("_join", "_path")]


def test_the_reader_runs_one_frame_per_loop_and_per_token_run():
    """_convert_loop converts its members and checks its ring's laws in one walk; a node's or branch's tokens take one frame."""
    # space_news nests loops; horse has a branch.
    for name in ("space_news", "horse"):
        doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        s, frames = frames_while(build_synapper, doc)
        loops, members, branches, runs = 0, 0, 0, 0
        pending = [s.main]
        while pending:
            loop = pending.pop()
            loops += 1
            members += len(loop.members)
            for m in loop.members:
                if m.loop is not None:
                    pending.append(m.loop)
                branches += len(m.branches)
                runs += (m.node is not None) + len(m.branches)
        # Every frame the read runs is the package's own.
        assert {code.co_filename for code in frames} == {model.__file__}
        # _ring_laws reads each loop's roles tuple: no comprehension of its own.
        assert not [c for c in model._ring_laws.__code__.co_consts if isinstance(c, CodeType)]
        # Counter equality reads a missing code as 0 frames: space_news has no
        # branch. A member's and a branch's test runs in _convert_loop's
        # frame, and a token's in _convert_tokens'.
        assert Counter(frames) == Counter({
            build_synapper.__code__: 1,
            model._check_keys.__code__: 1 + loops,
            model._expect_str.__code__: 2,
            model._word_order.__code__: 1,
            model._convert_loop.__code__: loops,
            model._ring_laws.__code__: loops,
            model._convert_tokens.__code__: runs,
            Loop.__init__.__code__: loops,
            Constituent.__init__.__code__: members,
            Branch.__init__.__code__: branches,
            Synapper.__init__.__code__: 1,
            Token.__init__.__code__: sum(1 for _ in iter_tokens(s)),
        })
        # No second walk over the built structure, no diagnosis and no path formatting.
        unrun = (model.structure_issues, model._loop_issues, model._member, model._token, model._category, model._path)
        assert not [f for f in unrun if f.__code__ in frames]
