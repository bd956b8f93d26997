"""Shared helpers: corpus loaders, a CLI runner, a random structure generator and value-class checks."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from synapper import (
    Branch,
    Category,
    Constituent,
    Loop,
    LoopKind,
    Role,
    Synapper,
    Token,
    WordOrder,
    parse_profile,
    parse_structure,
)
from synapper.cli import run as cli_run
# Defined with the checks that run without pytest; the tests import it from here.
from replay import rotate_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PROFILES = ROOT / "profiles"
LEXICONS = ROOT / "lexicons"


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def profile_path(name: str) -> str:
    return str(PROFILES / f"{name}.json")


def lexicon_path(name: str) -> str:
    return str(LEXICONS / f"{name}.tsv")


def load_structure(name: str) -> Synapper:
    return parse_structure((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def load_profile(name: str):
    return parse_profile((PROFILES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(*args: str):
        try:
            code = cli_run(list(args))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# Categories used by generated structures; WH stays out so the interrogative
# transforms accept every generated structure.
_GEN_CATEGORIES = (
    Category.N,
    Category.V,
    Category.AUX,
    Category.ADJ,
    Category.ADV,
    Category.DET,
    Category.PRON,
    Category.PREP,
    Category.OTHER,
)

GEN_WORDS = (
    "kite", "river", "stone", "lamp", "book", "cloud", "wolf", "engine",
    "salt", "pepper", "tower", "marsh", "violin", "copper", "badge", "ferry",
)


def random_structure(rng: random.Random, max_ring: int = 6, max_depth: int = 3) -> Synapper:
    """A valid-by-construction structure: one subject, one verb per clausal ring."""
    order = rng.choice(list(WordOrder))
    main = _random_clausal(rng, max_ring, max_depth)
    return Synapper(label="generated", word_order=order, main=main)


def _random_clausal(rng: random.Random, max_ring: int, depth: int) -> Loop:
    n = rng.randint(2, max_ring)
    roles = [Role.SUBJECT, Role.VERB] + [Role.OBJECT] * (n - 2)
    rng.shuffle(roles)
    members = tuple(_random_member(rng, role, depth) for role in roles)
    return Loop(kind=LoopKind.CLAUSAL, members=members)


def _random_phrasal(rng: random.Random, depth: int) -> Loop:
    n = rng.randint(1, 4)
    members = tuple(_random_member(rng, None, depth) for _ in range(n))
    return Loop(kind=LoopKind.PHRASAL, members=members, head_index=rng.randrange(n))


def _random_member(rng: random.Random, role: Role | None, depth: int) -> Constituent:
    if depth > 1 and rng.random() < 0.3:
        if rng.random() < 0.5:
            return Constituent(role=role, loop=_random_clausal(rng, 4, depth - 1))
        return Constituent(role=role, loop=_random_phrasal(rng, depth - 1))
    node = tuple(
        Token(rng.choice(GEN_WORDS), rng.choice(_GEN_CATEGORIES))
        for _ in range(rng.randint(1, 3))
    )
    branches = tuple(
        Branch(
            tokens=(Token(rng.choice(GEN_WORDS), rng.choice(_GEN_CATEGORIES)),),
            category=rng.choice(_GEN_CATEGORIES),
        )
        for _ in range(rng.randint(0, 2))
    )
    return Constituent(role=role, node=node, branches=branches)


def loops_of(loop: Loop) -> list[Loop]:
    """loop and every loop nested in it, at every depth."""
    out = [loop]
    for c in loop.members:
        if c.loop is not None:
            out += loops_of(c.loop)
    return out


def block_sequence(sentence) -> list[int]:
    """The block of each run of tokens that share one, in sentence order."""
    out: list[int] = []
    for t in sentence.placed:
        if not out or out[-1] != t.block:
            out.append(t.block)
    return out


def frames_while(call, *args):
    """call(*args) and how many frames of each code object it ran, by sys.setprofile.

    The collector is off meanwhile: finalizers it runs would add frames that
    are not the call's.
    """
    frames: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            frames[frame.f_code] += 1

    gc.disable()
    sys.setprofile(count)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, frames


def replaced(obj, **changes):
    """A copy of a value object with some fields changed.

    The copy is built by the class's own constructor, so its construction
    checks run on the new fields.
    """
    cls = type(obj)
    return cls(**({name: getattr(obj, name) for name in cls.__match_args__} | changes))


def check_value_semantics(obj, twin, unequal, text, derived=()):
    """obj is an immutable value with twin's fields, unequal to each of unequal.

    Equal objects hash alike; obj differs from a tuple of its own field
    values and from any object of another type; its repr is text; setting or
    deleting any field, derived ones among them, raises AttributeError; copy,
    deepcopy and pickle give equal objects.
    """
    assert obj is not twin and obj == twin and not obj != twin
    assert hash(obj) == hash(twin)
    fields = type(obj).__match_args__
    for other in (*unequal, tuple(getattr(obj, name) for name in fields), object(), None):
        assert obj != other and not obj == other
    assert repr(obj) == text
    for name in (*fields, *derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == twin
    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert copied == obj and type(copied) is type(obj)
