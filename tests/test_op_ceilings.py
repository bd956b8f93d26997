"""Op-count ceilings: each layer's exact interpreter-op count on fixed calls stays at or below its ceiling.

Op counts are exact and repeat from run to run, so a ceiling holds a layer
to the cost it has reached. The ceilings live in ``op_ceilings.json``, one
row per implementation and minor version (e.g. ``cpython-3.11``); a version
without a row is skipped. Running this file as a script measures every
call and lowers each ceiling the counts now beat; it never raises one. It
prints every layer whose count is above its ceiling, with both numbers, and
then exits 1::

    PYTHONPATH=src python tests/test_op_ceilings.py
"""

from __future__ import annotations

import gc
import io
import json
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from synapper import (
    LanguageProfile,
    LinearSentence,
    WordOrder,
    apply_morpheme_rules,
    canonical_form,
    declarativize,
    identity_lexicon,
    interrogativize,
    linearize,
    parse_lexicon,
    parse_structure,
    serialize_structure,
    structural_equal,
    substitute_lexemes,
    to_dot,
    translate,
    wh_token,
)
from synapper.cli import run as cli_run
from conftest import FIXTURES, LEXICONS, ROOT, load_profile, load_structure, random_structure, rotate_main
from op_counter import OpCounter

CEILINGS = Path(__file__).resolve().parent / "op_ceilings.json"
VERSION = f"{sys.implementation.name}-{sys.version_info.major}.{sys.version_info.minor}"

# Imports synapper.cli under the counter in a fresh interpreter. -I and -S
# keep environment variables and site-packages out; -B with an empty
# pycache prefix compiles every module from source and writes nothing, so
# the count does not depend on which .pyc files exist.
_IMPORT_CHILD = """
import sys
sys.path[:0] = sys.argv[1:]
from op_counter import OpCounter
with OpCounter() as counter:
    import synapper.cli
print(counter.n)
"""


LAYERS = (
    "parse_structure",
    "parse_orders",
    "parse_orders_generated",
    "linearize_with_rules",
    "apply_morpheme_rules_placed",
    "translate",
    "substitute_lexemes",
    "interrogativize",
    "declarativize",
    "declarativize_placed",
    "serialize_structure",
    "canonical_form",
    "structural_equal",
    "to_dot",
    "serialize_canon_generated",
    "cli_run",
)


@cache
def _calls() -> dict:
    """Each counted layer's call, with its inputs read beforehand."""
    news_text = (FIXTURES / "space_news.json").read_text(encoding="utf-8")
    # The valid fixtures hold 5 branches in all; this structure holds about one per
    # node, so the reader's, the walk's, the writers' and the comparison's branch
    # paths are counted too, the comparison against a copy read back and stored
    # from another member.
    generated = random_structure(random.Random(7))
    generated_text = serialize_structure(generated)
    generated_copy = rotate_main(parse_structure(generated_text), 1)
    news, tim, horse = load_structure("space_news"), load_structure("tim"), load_structure("horse")
    bare = [LanguageProfile(name=order.value, word_order=order) for order in WordOrder]
    articles, en, uz = load_profile("en-articles"), load_profile("en"), load_profile("uz")
    en_uz = parse_lexicon((LEXICONS / "en-uz.tsv").read_text(encoding="utf-8"))
    why = wh_token("why")
    question = interrogativize(tim, why, en)
    # The same question as PlacedTokens: declarativize compares it token by token.
    placed_question = LinearSentence(question.placed)
    # A sentence built from PlacedTokens holds one run per token.
    placed_news = LinearSentence(linearize(news, articles).placed)
    news_lexicon = identity_lexicon(news)
    rotated = rotate_main(news, 1)

    def parse_orders(text):
        s = parse_structure(text)
        for p in bare:
            linearize(s, p).render()

    def validate_horse():
        # A StringIO stdout keeps the count the same with or without pytest's capture.
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            cli_run(["validate", str(FIXTURES / "horse.json")])
        finally:
            sys.stdout = stdout

    def serialize_canon(s, other):
        serialize_structure(s)
        to_dot(s)
        canonical_form(s)
        structural_equal(s, other)

    return {
        "parse_structure": lambda: parse_structure(news_text),
        "parse_orders": lambda: parse_orders(news_text),
        "parse_orders_generated": lambda: parse_orders(generated_text),
        "linearize_with_rules": lambda: apply_morpheme_rules(linearize(news, articles), articles),
        "apply_morpheme_rules_placed": lambda: apply_morpheme_rules(placed_news, articles),
        "translate": lambda: translate(horse, en_uz, uz),
        "substitute_lexemes": lambda: substitute_lexemes(news, news_lexicon),
        "interrogativize": lambda: interrogativize(tim, why, en),
        "declarativize": lambda: declarativize(question, tim, en),
        "declarativize_placed": lambda: declarativize(placed_question, tim, en),
        "serialize_structure": lambda: serialize_structure(news),
        "canonical_form": lambda: canonical_form(news),
        "structural_equal": lambda: structural_equal(news, rotated),
        "to_dot": lambda: to_dot(news),
        "serialize_canon_generated": lambda: serialize_canon(generated, generated_copy),
        "cli_run": validate_horse,
    }


def count_ops(call) -> int:
    """call()'s op count after one uncounted warm-up call, with the collector off."""
    call()
    gc.disable()
    try:
        with OpCounter() as counter:
            call()
    finally:
        gc.enable()
    return counter.n


def count_import(pycache: Path) -> int:
    child = [sys.executable, "-I", "-S", "-B", "-X", f"pycache_prefix={pycache}", "-c", _IMPORT_CHILD]
    child += [str(ROOT / "tests"), str(ROOT / "src")]
    out = subprocess.run(child, capture_output=True, text=True, check=True)
    return int(out.stdout)


def _ceilings() -> dict[str, int]:
    rows = json.loads(CEILINGS.read_text(encoding="utf-8"))
    if VERSION not in rows:
        pytest.skip(f"no op ceilings recorded for {VERSION}")
    return rows[VERSION]


def _check(layer: str, count: int) -> None:
    ceiling = _ceilings()[layer]
    assert count <= ceiling, f"{layer}: {count} ops, above its ceiling of {ceiling}"


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_stays_under_its_ceiling(layer):
    _check(layer, count_ops(_calls()[layer]))


def test_importing_the_cli_stays_under_its_ceiling(tmp_path):
    _check("import_cli", count_import(tmp_path / "pycache"))


def test_every_layer_has_a_ceiling():
    assert set(_calls()) == set(LAYERS)
    assert set(_ceilings()) == {*LAYERS, "import_cli"}


def lower_ceilings(pycache: Path) -> tuple[dict[str, tuple[int | None, int]], dict[str, tuple[int, int]]]:
    """Measure every layer and write each count that beats its ceiling.

    Returns ({layer: (old, new)} for each ceiling written, {layer: (ceiling,
    count)} for each count above its ceiling, which stays as it was).
    """
    counts = {layer: count_ops(call) for layer, call in _calls().items()}
    counts["import_cli"] = count_import(pycache)
    rows = json.loads(CEILINGS.read_text(encoding="utf-8")) if CEILINGS.exists() else {}
    row = rows.setdefault(VERSION, {})
    changes, above = {}, {}
    for layer, count in counts.items():
        old = row.get(layer)
        if old is None or count < old:
            row[layer] = count
            changes[layer] = (old, count)
        elif count > old:
            above[layer] = (old, count)
    CEILINGS.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return changes, above


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        changed, above = lower_ceilings(Path(scratch) / "pycache")
    for layer, (old, new) in sorted(changed.items()):
        print(f"{VERSION} {layer}: {old} -> {new}")
    if not changed:
        print(f"{VERSION}: no ceiling lowered")
    for layer, (ceiling, count) in sorted(above.items()):
        print(f"{VERSION} {layer}: {count} ops, above its ceiling of {ceiling}")
    sys.exit(1 if above else 0)
