"""Document building, validation reporting, equality, canonical forms."""

import dataclasses
import json
import random

import pytest

from synapper import (
    Category,
    Constituent,
    LanguageProfile,
    Loop,
    LoopKind,
    MalformedDocumentError,
    Role,
    StructureValidationError,
    Token,
    UnknownKeyError,
    UnknownWordOrderError,
    WordOrder,
    build_synapper,
    canonical_form,
    iter_tokens,
    linearize,
    parse_structure,
    serialize_structure,
    structural_equal,
    structure_issues,
    to_dot,
)
from synapper.model import MAX_DEPTH
from conftest import load_structure, random_structure, rotate_main


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

    def test_main_loop_must_be_clausal(self):
        doc = {"word_order": "svo", "loop": {"kind": "phrasal", "members": [_node(None, "x")]}}
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(doc)
        assert e.value.path == "loop.kind"

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

    def test_head_index_out_of_range(self):
        doc = _doc(
            [
                _node("subject", "Mary"),
                _node("verb", "saw", category="V"),
                {
                    "role": "object",
                    "loop": {"kind": "phrasal", "head_index": 5, "members": [_node(None, "x")]},
                },
            ]
        )
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(doc)
        assert e.value.path.endswith("head_index")

    def test_phrasal_members_are_roleless(self):
        doc = _doc(
            [
                _node("subject", "Mary"),
                _node("verb", "saw", category="V"),
                {
                    "role": "object",
                    "loop": {"kind": "phrasal", "members": [_node("object", "x")]},
                },
            ]
        )
        with pytest.raises(UnknownKeyError) as e:
            build_synapper(doc)
        assert "roleless" in str(e.value)

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
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.word_order = WordOrder.SOV
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.main.members[0].node[0].surface = "Bob"

    def test_empty_surface_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Token("", Category.N)

    def test_constituent_needs_exactly_one_payload(self):
        with pytest.raises(ValueError):
            Constituent(role=Role.SUBJECT)
        with pytest.raises(ValueError):
            Constituent(
                role=Role.SUBJECT,
                node=(Token("x", Category.N),),
                loop=Loop(LoopKind.PHRASAL, (Constituent(node=(Token("y", Category.N),)),)),
            )


class TestStructuralEqual:
    def test_rotation_of_storage_is_ignored(self):
        s = load_structure("tim")
        for k in range(1, 5):
            assert structural_equal(s, rotate_main(s, k))

    def test_label_and_surface_flag_ignored(self):
        s = load_structure("mary")
        relabeled = dataclasses.replace(s, label="other", surface_subject_final=False)
        assert structural_equal(s, relabeled)

    def test_word_order_matters(self):
        s = load_structure("mary")
        assert not structural_equal(s, dataclasses.replace(s, word_order=WordOrder.SOV))

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
        assert canonical_form(s) == canonical_form(dataclasses.replace(s, label="renamed"))


def test_iter_tokens_stored_order():
    surfaces = [t.surface for t in iter_tokens(load_structure("horse"))]
    assert surfaces == ["Jane", "has", "horse", "a", "very", "fast", "brown"]


def test_space_news_holds_43_tokens():
    assert sum(1 for _ in iter_tokens(load_structure("space_news"))) == 43


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

    def test_one_level_deeper_is_rejected_with_its_path(self):
        with pytest.raises(MalformedDocumentError) as e:
            build_synapper(_nested_doc(MAX_DEPTH + 1))
        assert e.value.path == "loop" + ".members[0].loop" * MAX_DEPTH
