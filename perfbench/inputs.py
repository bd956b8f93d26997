"""Seeded inputs for the benchmark: structure documents, profiles, lexicons.

Everything here is plain data (dicts, JSON and TSV text) built from a
``random.Random``; nothing imports synapper. A pool's *shape* is fixed by
its slot schedule (token budget, ring size and nesting depth per slot); the
seed picks words, categories, roles, orders, loop kinds and how a budget
splits among members, so two seeds give pools of the same make-up and
their timings can be compared.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ORDERS = ("svo", "sov", "vso", "vos", "osv", "ovs")
# Token categories of generated structures. WH stays out so every structure
# can be turned into a question; ADJP is used only as a branch category.
TOKEN_CATEGORIES = ("N", "V", "AUX", "ADJ", "ADV", "DET", "PRON", "PREP", "OTHER")
BRANCH_CATEGORIES = ("DET", "ADJ", "ADJP", "ADV", "PREP", "PRON", "N", "OTHER")
WH_RULES = ("initial_inversion", "initial_plain", "pre_subject")

_SOURCE_WORDS = tuple(c1 + v1 + c2 + v2 for c1 in "bdkm" for v1 in "ao" for c2 in "lrst" for v2 in "ei")
_TARGET_SYLLABLES = tuple(c + v for c in "fghnpvz" for v in "aeiou")
PAYLOAD_WORDS = ("ka", "lo", "mu", "ne", "si", "ta", "wo", "yu")
SUFFIXES = ("da", "ni", "ga")

MAX_BUDGET = 300
MAX_RING = 8
MAX_DEPTH = 4
INSERTS_PER_PROFILE = 40


def slot_schedule(n: int) -> list[tuple[int, int, int]]:
    """(token budget, ring size, depth) per slot: budgets spread geometrically
    from 3 to 300 tokens, ring sizes 2..8 and depths 0..4 cycling."""
    out = []
    for k in range(n):
        budget = round(3 * (MAX_BUDGET / 3) ** (k / (n - 1)))
        out.append((budget, 2 + k % (MAX_RING - 1), k % (MAX_DEPTH + 1)))
    return out


def structure_doc(rng: random.Random, budget: int, ring: int, depth: int, label: str) -> dict:
    """One structure document in the serializer's normal form: label always
    present, no subject-final flag, head_index only on phrasal loops and
    branches only where a node has some."""
    ring = max(2, min(ring, budget))
    return {"label": label, "word_order": rng.choice(ORDERS), "loop": _clausal(rng, ring, depth, budget)}


def _split(rng: random.Random, budget: int, n: int) -> list[int]:
    shares = [1] * n
    for _ in range(max(0, budget - n)):
        shares[rng.randrange(n)] += 1
    return shares


def _clausal(rng: random.Random, n: int, depth: int, budget: int) -> dict:
    roles = ["subject", "verb"] + ["object"] * (n - 2)
    rng.shuffle(roles)
    members = [_member(rng, role, depth, share) for role, share in zip(roles, _split(rng, budget, n))]
    return {"kind": "clausal", "members": members}


def _phrasal(rng: random.Random, n: int, depth: int, budget: int) -> dict:
    members = [_member(rng, None, depth, share) for share in _split(rng, budget, n)]
    return {"kind": "phrasal", "head_index": rng.randrange(n), "members": members}


def _member(rng: random.Random, role: str | None, depth: int, budget: int) -> dict:
    member: dict = {} if role is None else {"role": role}
    if depth > 0 and (budget > 9 or (budget >= 6 and rng.random() < 0.5)):
        n = rng.randint(2, min(MAX_RING, budget // 2))
        nest = _clausal if rng.random() < 0.5 else _phrasal
        member["loop"] = nest(rng, n, depth - 1, budget)
        return member
    # A node takes its whole share, up to 9 tokens: 1 to 3 of its own plus
    # up to three branches of 1 or 2 tokens.
    size = rng.randint(max(1, min(3, budget - 6)), min(3, budget))
    member["node"] = [_token(rng) for _ in range(size)]
    left = min(budget - size, 6)
    if left:
        widths = [1] * rng.randint((left + 1) // 2, min(3, left))
        for k in rng.sample(range(len(widths)), left - len(widths)):
            widths[k] = 2
        member["branches"] = [
            {"category": rng.choice(BRANCH_CATEGORIES), "tokens": [_token(rng) for _ in range(w)]} for w in widths
        ]
    return member


def _token(rng: random.Random) -> dict:
    return {"surface": rng.choice(_SOURCE_WORDS), "category": rng.choice(TOKEN_CATEGORIES)}


def structure_pool(rng: random.Random, n: int) -> list[dict]:
    return [structure_doc(rng, b, r, d, f"gen-{k}") for k, (b, r, d) in enumerate(slot_schedule(n))]


def rotated_doc(rng: random.Random, doc: dict) -> dict:
    """The same rings stored from other starting members (heads moved along)."""
    return {**doc, "loop": _rotated_loop(rng, doc["loop"])}


def _rotated_loop(rng: random.Random, loop: dict) -> dict:
    members = [{**m, "loop": _rotated_loop(rng, m["loop"])} if "loop" in m else m for m in loop["members"]]
    k = rng.randrange(len(members))
    out = {**loop, "members": members[k:] + members[:k]}
    if "head_index" in loop:
        out["head_index"] = (loop["head_index"] - k) % len(members)
    return out


def perturbed_doc(rng: random.Random, doc: dict) -> dict:
    """A deep copy with one token's surface changed."""
    copy = json.loads(json.dumps(doc))
    token = rng.choice(doc_tokens(copy))
    token["surface"] += "q"
    return copy


def bare_profile_texts() -> list[str]:
    """The six bare word-order profiles: no branch rules, no morpheme rules."""
    return [json.dumps({"name": f"bare-{o}", "word_order": o, "wh_rule": "initial_plain"}) for o in ORDERS]


def lexicon_entries(rng: random.Random) -> dict[tuple[str, str], str]:
    """Every (source word, category) pair gets its own three-syllable target,
    so a target names its source pair and no target equals another."""
    pairs = [(w, c) for w in _SOURCE_WORDS for c in TOKEN_CATEGORIES]
    syll = _TARGET_SYLLABLES
    targets = rng.sample(range(len(syll) ** 3), len(pairs))
    return {
        pair: syll[t // len(syll) ** 2] + syll[t // len(syll) % len(syll)] + syll[t % len(syll)]
        for pair, t in zip(pairs, targets)
    }


def lexicon_tsv(entries: dict[tuple[str, str], str]) -> str:
    lines = ["# generated lexicon", "# source\tcategory\ttarget"]
    lines += [f"{s}\t{c}\t{t}" for (s, c), t in entries.items()]
    return "\n".join(lines) + "\n"


def rule_profile_doc(rng: random.Random, name: str, order: str, placement: str, wh_rule: str,
                     entries: dict[tuple[str, str], str]) -> dict:
    """A rule-heavy profile: pre, post and reversed branch rules, one drop
    rule first, tens of insert rules on distinct anchors, a suffix rule last."""
    cats = list(BRANCH_CATEGORIES)
    rng.shuffle(cats)
    branch_rules = [
        {"category": cats[0], "side": "pre"},
        {"category": cats[1], "side": "post", "post_order": "source"},
        {"category": cats[2], "side": "post", "post_order": "reversed"},
        {"category": cats[3], "side": "post", "post_order": "reversed"},
    ]
    drop = rng.choice(("DET", "PREP", "PRON", "AUX"))
    anchors = rng.sample(sorted(t for (_, c), t in entries.items() if c != drop), INSERTS_PER_PROFILE)
    rules: list[dict] = [{"kind": "drop_category", "selector": drop}]
    for k, anchor in enumerate(anchors):
        kind = "insert_after" if k % 4 == 3 else "insert_before"
        payload = " ".join(rng.sample(PAYLOAD_WORDS, rng.randint(1, 2)))
        rules.append({"kind": kind, "selector": anchor, "payload": payload})
    rules.append({"kind": "suffix_on_role", "selector": "subject", "payload": rng.choice(SUFFIXES)})
    for ordinal, rule in enumerate(rules):
        rule["ordinal"] = ordinal
    doc = {"name": name, "word_order": order, "wh_rule": wh_rule, "branch_rules": branch_rules, "morpheme_rules": rules}
    if placement != "default":
        doc["verb_placement"] = placement
    return doc


# Every word order with the verb where the order puts it, plus V1 and V2.
RULE_PROFILE_SHAPES = tuple((o, "default") for o in ORDERS) + (("svo", "v1"), ("sov", "v2"))


def rule_profiles(rng: random.Random, entries: dict[tuple[str, str], str]) -> list[dict]:
    return [
        rule_profile_doc(rng, f"gen-{order}-{placement}", order, placement, WH_RULES[k % 3], entries)
        for k, (order, placement) in enumerate(RULE_PROFILE_SHAPES)
    ]


def identity_lexicon_tsv(doc: dict) -> str:
    """source == target for every (surface, category) pair of one document."""
    pairs = {(t["surface"], t["category"]): t["surface"] for t in doc_tokens(doc)}
    return lexicon_tsv(pairs)


def doc_tokens(doc: dict) -> list[dict]:
    out: list[dict] = []
    _loop_tokens(doc["loop"], out)
    return out


def _loop_tokens(loop: dict, out: list[dict]) -> None:
    for m in loop["members"]:
        if "node" in m:
            out.extend(m["node"])
        else:
            _loop_tokens(m["loop"], out)
        for b in m.get("branches", ()):
            out.extend(b["tokens"])


def read_text(root: Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Hand-written references from fixtures/README.md, tests/test_acceptance.py
# and tests/test_cli.py. They are typed in here, not produced by the program.

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
CENA = "John Cena surprises 7-year-old boy with cancer on his birthday"
COLETTE_SVO = "The fact that Colette was Willy was a big secret"
COLETTE_SOV = "Colette Willy was that fact a big secret was"

# Bare word-order renderings, per fixture and order. Orders without a
# written rendering are still checked against the reference reading.
FIXTURE_ORDERS = {
    "horse": {"svo": "Jane has a very fast brown horse"},
    "tim": {"svo": "Tim is going to the hospital", "sov": "Tim the hospital to going is",
            "vso": "Is Tim the hospital to going"},
    "colette": {"sov": COLETTE_SOV},
    "cena_a": {"svo": CENA},
    "cena_b": {"svo": CENA},
    "space_news": {"svo": SPACE_NEWS_BASE},
    "mary": {"svo": "Mary loves chocolate", "sov": "Mary chocolate loves", "vso": "Loves Mary chocolate",
             "vos": "Loves chocolate Mary", "osv": "Chocolate Mary loves", "ovs": "Chocolate loves Mary"},
    "go": {o: "Go" for o in ORDERS},
}

# (fixture, profile, lexicon or None for the identity lexicon, rendering,
#  question with "why" or None where none is written down)
FIXTURE_TRANSLATIONS = (
    ("horse", "uz", "en-uz", "Janeda bir juda tez jigarrang ot bor", None),
    ("space_news", "en-articles", None, SPACE_NEWS_FULL, None),
    ("space_news", "en", None, SPACE_NEWS_BASE, None),
    ("horse", "en", None, "Jane has a very fast brown horse", None),
    ("horse", "fr", None, "Jane has a horse brown very fast", None),
    ("horse", "ja-gloss", None, "Jane very fast brown horse has", None),
    ("horse", "uz-gloss", None, "Jane very fast brown horse has", None),
    ("horse", "cy-gloss", None, "Has Jane horse brown very fast", None),
    ("tim", "en", None, "Tim is going to the hospital", "Why is Tim going to the hospital"),
    ("tim", "ja-gloss", None, "Tim the hospital to going is", "Why Tim the hospital to going is"),
    ("tim", "uz-gloss", None, None, "Why Tim the hospital to going is"),
    ("tim", "vso", None, "Is Tim the hospital to going", None),
    ("tim", "cy-gloss", None, "Is Tim going to the hospital", "Why is Tim going to the hospital"),
    ("colette", "en", None, COLETTE_SVO, None),
    ("colette", "fr", None, COLETTE_SVO, None),
    ("colette", "ja-gloss", None, COLETTE_SOV, None),
    ("colette", "uz-gloss", None, COLETTE_SOV, None),
    ("colette", "cy-gloss", None, "Was the fact that Colette was Willy a big secret", None),
    ("cena_a", "en", None, CENA, None),
    ("cena_b", "en", None, CENA, None),
)

_Q = "Why is Tim going to the hospital"
_MARY_ORDERS = "".join(f"{o.upper()}: {FIXTURE_ORDERS['mary'][o]}\n" for o in ("svo", "sov", "vso", "vos", "osv", "ovs"))


def _fx(name: str) -> str:
    return f"fixtures/{name}.json"


# A copy of fixtures/mary.json with its ring stored from the verb; run.py
# writes it, and `canon` must print the same line for it as for the fixture.
MARY_ROTATED = "perfbench/out/mary-rotated.json"


def rotated_once(doc: dict) -> dict:
    members = doc["loop"]["members"]
    return {**doc, "loop": {**doc["loop"], "members": members[1:] + members[:1]}}


def _pr(name: str) -> str:
    return f"profiles/{name}.json"


# One round of `python -m synapper` calls: all ten commands over the bundled
# fixtures, profiles and lexicon. Expected stdout is hand-written; where an
# entry holds None instead, `prob` is checked against exact integer
# arithmetic, and `canon` and `dot` by properties of the fixture document
# (see checks.py).
CLI_ROTATION = (
    (("validate", _fx("horse")), "OK\n"),
    (("validate", _fx("space_news")), "OK\n"),
    (("linearize", _fx("horse"), "--profile", _pr("fr")), "Jane has a horse brown very fast\n"),
    (("linearize", _fx("tim"), "--profile", _pr("vso")), "Is Tim the hospital to going\n"),
    (("linearize", _fx("colette"), "--profile", _pr("ja-gloss")), COLETTE_SOV + "\n"),
    (("linearize", _fx("space_news"), "--profile", _pr("en-articles")), SPACE_NEWS_FULL + "\n"),
    (("translate", _fx("horse"), "--lexicon", "lexicons/en-uz.tsv", "--profile", _pr("uz")),
     "Janeda bir juda tez jigarrang ot bor\n"),
    (("question", _fx("tim"), "--profile", _pr("en"), "--wh", "why"), _Q + "\n"),
    (("question", _fx("tim"), "--profile", _pr("ja-gloss"), "--wh", "why"), "Why Tim the hospital to going is\n"),
    (("declarativize", _fx("tim"), "--profile", _pr("cy-gloss"), "--question", _Q), "Is Tim going to the hospital\n"),
    (("declarativize", _fx("tim"), "--profile", _pr("en"), "--question", _Q), "Tim is going to the hospital\n"),
    (("compare", _fx("cena_a"), _fx("cena_b")), "DIFFERENT\n"),
    (("compare", _fx("cena_a"), _fx("cena_a")), "SAME\n"),
    (("canon", _fx("mary")), None),
    (("canon", MARY_ROTATED), None),
    (("dot", _fx("mary")), None),
    (("dot", _fx("go")), None),
    (("orders", _fx("mary")), _MARY_ORDERS),
    (("prob", "10"), None),
    # 1/177! and 1/178! are subnormal doubles; the CLI prints wrong digits
    # for both, so these two fail until chance.py computes them exactly.
    (("prob", "177"), None),
    (("prob", "178"), None),
)

CLI_PROFILES = ("cy-gloss", "en-articles", "en", "fr", "ja-gloss", "uz-gloss", "uz", "vso")
CLI_LEXICONS = ("en-uz",)
