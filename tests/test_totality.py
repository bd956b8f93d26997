"""Every input gives a result or a SynapperError, never another exception."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from synapper import (
    SynapperError,
    iter_tokens,
    parse_lexicon,
    parse_profile,
    parse_structure,
    translate,
)
from synapper.cli import run as cli_run
from conftest import FIXTURES, LEXICONS, PROFILES, load_profile, load_structure

VALID_FIXTURES = ["horse", "tim", "colette", "cena_a", "cena_b", "space_news", "mary", "go"]
STRUCTURE_DOCS = [json.loads((FIXTURES / f"{n}.json").read_text(encoding="utf-8")) for n in VALID_FIXTURES]
PROFILE_DOCS = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(PROFILES.glob("*.json"))]

# Keys and values of both document formats, so that generated documents get
# past the first checks often enough to reach the later ones.
_VOCABULARY = sorted(
    {
        "word_order", "label", "surface_subject_final", "loop", "kind", "members", "head_index",
        "role", "node", "branches", "surface", "category", "tokens", "name", "wh_rule",
        "verb_placement", "branch_rules", "morpheme_rules", "side", "post_order", "selector",
        "payload", "ordinal", "svo", "ovs", "clausal", "phrasal", "subject", "verb", "object",
        "N", "V", "DET", "WH", "OTHER", "pre", "post", "reversed", "source", "v1", "v2",
        "initial_inversion", "pre_subject", "drop_category", "insert_before", "suffix_on_role",
    }
)
_TEXT = st.sampled_from(_VOCABULARY) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=25,
)


@st.composite
def mutated(draw, docs):
    """A bundled document with one value, anywhere in it, replaced by any JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    holder, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        holder, node = node, node[key]
    if holder is None:
        return draw(JSON_VALUES)
    holder[key] = draw(JSON_VALUES)
    return doc


def _result_or_synapper_error(call, *args):
    try:
        return call(*args)
    except SynapperError:
        return None


@settings(max_examples=300)
@given(JSON_VALUES | mutated(STRUCTURE_DOCS))
def test_parse_structure_is_total(value):
    _result_or_synapper_error(parse_structure, json.dumps(value))


@settings(max_examples=300)
@given(JSON_VALUES | mutated(PROFILE_DOCS))
def test_parse_profile_is_total(value):
    _result_or_synapper_error(parse_profile, json.dumps(value))


@settings(max_examples=300)
@given(st.text() | st.text(alphabet="ab N#\t\n\u00a0\u2028"))
def test_parse_lexicon_is_total(text):
    _result_or_synapper_error(parse_lexicon, text)


TRANSLATED = [(load_structure(n), load_profile(p)) for n, p in [("horse", "uz"), ("space_news", "en-articles"), ("tim", "ja-gloss")]]
PAIRS = sorted({(t.surface, t.category.value) for s, _ in TRANSLATED for t in iter_tokens(s)})
# Targets are single tokens (the zero-width space is not whitespace). At
# most one entry is edited: left out, or given a target holding whitespace.
TARGETS = st.text(alphabet="xy#'\u00e9\u200b", min_size=1, max_size=4)
EDITS = st.none() | st.tuples(st.integers(0, len(PAIRS) - 1), st.sampled_from([None, "x y", "\u00a0x", "x\u2028y"]))


@settings(max_examples=150)
@given(st.lists(TARGETS, min_size=len(PAIRS), max_size=len(PAIRS)), EDITS)
def test_translate_is_total_for_every_lexicon_that_parses(targets, edit):
    if edit is not None:
        targets[edit[0]] = edit[1]
    text = "\n".join(f"{s}\t{c}\t{t}" for (s, c), t in zip(PAIRS, targets) if t is not None)
    lex = _result_or_synapper_error(parse_lexicon, text)
    if lex is not None:
        for structure, profile in TRANSLATED:
            _result_or_synapper_error(translate, structure, lex, profile)


# Each command's positional arguments and options; "prob" takes a number.
_SHAPES = {
    "validate": (["structure"], []),
    "linearize": (["structure"], ["--profile"]),
    "translate": (["structure"], ["--lexicon", "--profile"]),
    "question": (["structure"], ["--profile", "--wh"]),
    "declarativize": (["structure"], ["--profile", "--question"]),
    "compare": (["structure", "structure"], []),
    "canon": (["structure"], []),
    "dot": (["structure"], []),
    "prob": (["n"], []),
    "orders": (["structure"], []),
}
_OPTIONS = ["--profile", "--lexicon", "--wh", "--question", "-h", "--help"]
_WORDS = st.sampled_from(["why", "what", "Why is Tim going to the hospital", "Jane has a horse why"]) | st.text(max_size=12)
_NUMBERS = st.integers(-3, 1100).map(str) | st.sampled_from(["1e3", "0x10", "", "9" * 5000])


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Bundled inputs, a path that does not exist, and a file that is not UTF-8."""
    tmp = tmp_path_factory.mktemp("cli_argv")
    not_utf8 = tmp / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    bundled = sorted(FIXTURES.glob("*.json")) + sorted(PROFILES.glob("*.json")) + sorted(LEXICONS.glob("*.tsv"))
    return [str(p) for p in bundled] + [str(tmp / "missing.json"), str(not_utf8)]


@st.composite
def argument_vectors(draw, paths):
    command = draw(st.sampled_from(sorted(_SHAPES)))
    path = st.sampled_from(paths)
    if draw(st.booleans()):
        positionals, options = _SHAPES[command]
        args = [draw(_NUMBERS if slot == "n" else path) for slot in positionals]
        for option in options:
            args += [option, draw(_WORDS if option in ("--wh", "--question") else path)]
    else:
        args = draw(st.lists(path | st.sampled_from(_OPTIONS) | _WORDS | _NUMBERS, max_size=6))
    return [command, *args] if draw(st.integers(0, 9)) else args


def _asks_for_help(argv: list[str]) -> bool:
    return any(a.startswith("-h") or (len(a) > 2 and "--help".startswith(a)) for a in argv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_run_is_total_for_argument_vectors(cli_paths, data):
    argv = data.draw(argument_vectors(cli_paths))
    try:
        code = cli_run(argv)
    except SystemExit as e:
        assert e.code == 2 or (e.code == 0 and _asks_for_help(argv))
    else:
        assert code in (0, 1)
