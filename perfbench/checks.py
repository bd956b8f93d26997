"""Output checks computed apart from the program.

Each check works from the generated document, profile and lexicon (plain
dicts and text) and returns None when the output is right, or a short
message saying what is wrong. None of them calls synapper.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

from inputs import doc_tokens

_CLOCKWISE = {"svo", "vos", "osv"}


def render(tokens: list[str]) -> str:
    text = " ".join(tokens)
    return text[:1].upper() + text[1:]


def reference_reading(doc: dict, order: str) -> list[str]:
    """Surfaces of a structure read under a bare profile of ``order``.

    SVO, VOS and OSV read clockwise, the other three counterclockwise. A
    clausal loop starts at the subject (S-initial), the verb (V-initial) or
    the first object clockwise from the subject (O-initial; the subject if
    the loop has no object). A phrasal loop is read from its head clockwise;
    counterclockwise it is that reading reversed, so the head comes last, as
    the hand-written SOV rendering of colette.json has it. Branches come
    before their node in source order.
    """
    out: list[str] = []
    _read(doc["loop"], order, order in _CLOCKWISE, out)
    return out


def _read(loop: dict, order: str, cw: bool, out: list[str]) -> None:
    members = loop["members"]
    n = len(members)
    if loop["kind"] == "phrasal":
        seq = [(loop["head_index"] + i) % n for i in range(n)]
        if not cw:
            seq.reverse()
    else:
        roles = [m.get("role") for m in members]
        subject = roles.index("subject") if "subject" in roles else None
        verb = roles.index("verb") if "verb" in roles else None
        if order[0] == "s":
            candidates = [subject, verb]
        elif order[0] == "v":
            candidates = [verb, subject]
        else:
            origin = subject if subject is not None else 0
            first_object = next(
                ((origin + k) % n for k in range(1, n + 1) if roles[(origin + k) % n] == "object"), None
            )
            candidates = [first_object, subject, verb]
        start = next((c for c in candidates if c is not None), 0)
        step = 1 if cw else -1
        seq = [(start + step * i) % n for i in range(n)]
    for k in seq:
        m = members[k]
        for b in m.get("branches", ()):
            out.extend(t["surface"] for t in b["tokens"])
        if "node" in m:
            out.extend(t["surface"] for t in m["node"])
        else:
            _read(m["loop"], order, cw, out)


def _capitalized(surfaces) -> Counter:
    return Counter(s[:1].upper() + s[1:] for s in surfaces)


def check_orders(doc: dict, orders: tuple[str, ...], rendered: tuple[str, ...], written: dict[str, str]) -> str | None:
    stored = _capitalized(t["surface"] for t in doc_tokens(doc))
    for order, text in zip(orders, rendered):
        want = render(reference_reading(doc, order))
        if text != want:
            return f"{order}: got {text!r}, reference reading gives {want!r}"
        if _capitalized(text.split()) != stored:
            return f"{order}: the rendering does not keep the stored surfaces"
        if order in written and text != written[order]:
            return f"{order}: got {text!r}, hand-written rendering is {written[order]!r}"
    return None


# ---------------------------------------------------------------------------
# translate_rules


def _token_rows(doc: dict) -> list[tuple[str, str, bool, str | None]]:
    """(surface, category, in a multiword node, top-level role) per token."""
    rows: list[tuple[str, str, bool, str | None]] = []
    for m in doc["loop"]["members"]:
        _member_rows(m, m.get("role"), rows)
    return rows


def _member_rows(m: dict, role, rows: list) -> None:
    if "node" in m:
        unit = len(m["node"]) > 1
        rows.extend((t["surface"], t["category"], unit, role) for t in m["node"])
    else:
        for inner in m["loop"]["members"]:
            _member_rows(inner, role, rows)
    for b in m.get("branches", ()):
        rows.extend((t["surface"], t["category"], False, role) for t in b["tokens"])


def check_translation(doc: dict, lexicon: dict[tuple[str, str], str], profile: dict, wh: str,
                      sentence, question, back_is_skeleton: bool) -> str | None:
    """Properties of one translated sentence and its question.

    ``sentence`` and ``question`` are the program's LinearSentence results;
    only their surfaces, categories, roles and unit flags are read.
    """
    rules = sorted(profile.get("morpheme_rules", []), key=lambda r: r["ordinal"])
    targets = {lexicon[(s, c)] for s, c in lexicon_pairs(doc)}
    payload = {w for r in rules if r["kind"].startswith("insert") for w in r["payload"].split()}
    suffixes = [r["payload"] for r in rules if r["kind"] == "suffix_on_role"]
    dropped = {r["selector"] for r in rules if r["kind"] == "drop_category"}

    surfaces = [pt.surface for pt in sentence.placed]
    base = []
    suffixed = 0
    for s in surfaces:
        if s in targets or s in payload:
            base.append(s)
            continue
        stem = next((s[: -len(x)] for x in suffixes if s.endswith(x) and s[: -len(x)] in targets), None)
        if stem is None:
            return f"surface {s!r} is neither a target, a payload word nor a suffixed target"
        base.append(stem)
        suffixed += 1

    # Count model: the rules applied in ordinal order to the token multiset.
    rows = [(lexicon[(s, c)], c, unit, role) for s, c, unit, role in _token_rows(doc)]
    expected_suffixed = 0
    for r in rules:
        if r["kind"] == "drop_category":
            rows = [t for t in rows if t[2] or t[1] != r["selector"]]
        elif r["kind"].startswith("insert"):
            hits = sum(1 for t in rows if t[0] == r["selector"])
            rows += [(w, "OTHER", False, None) for w in r["payload"].split()] * hits
        elif any(t[3] == r["selector"] for t in rows):
            expected_suffixed += 1
    if len(surfaces) != len(rows):
        return f"{len(surfaces)} tokens, expected {len(rows)} after drops and inserts"
    if suffixed != expected_suffixed:
        return f"{suffixed} suffixed tokens, expected {expected_suffixed}"

    for r in rules:
        if not r["kind"].startswith("insert"):
            continue
        words = r["payload"].split()
        k = len(words)
        for i, s in enumerate(base):
            if s != r["selector"]:
                continue
            near = base[i - k : i] if r["kind"] == "insert_before" else base[i + 1 : i + 1 + k]
            if near != words:
                return f"{r['kind']} {r['selector']!r}: {words} not next to the anchor at {i}"

    for pt in sentence.placed:
        if pt.category.value in dropped and not pt.unit:
            return f"{pt.surface!r} keeps dropped category {pt.category.value}"

    q = question.placed
    wh_at = [i for i, pt in enumerate(q) if pt.category.value == "WH"]
    if len(wh_at) != 1 or q[wh_at[0]].surface != wh:
        return f"question holds {len(wh_at)} WH tokens"
    if profile["wh_rule"] == "pre_subject":
        subject_at = next((i for i, pt in enumerate(q) if pt.role is not None and pt.role.value == "subject"), 1)
        want_at = subject_at - 1
    else:
        want_at = 0
    if wh_at[0] != want_at:
        return f"WH at {wh_at[0]}, {profile['wh_rule']} puts it at {want_at}"
    rest = Counter(pt.surface for i, pt in enumerate(q) if i != wh_at[0])
    if rest != Counter(lexicon[p] for p in lexicon_pairs(doc)):
        return "question does not hold the translated tokens"
    if not back_is_skeleton:
        return "declarativize did not return the skeleton"
    return None


def read_lexicon_tsv(text: str) -> dict[tuple[str, str], str]:
    """The benchmark's own reading of a ``source<TAB>category<TAB>target`` lexicon."""
    rows = (line.split("\t") for line in text.splitlines() if line.strip() and not line.startswith("#"))
    return {(s.strip(), c.strip()): t.strip() for s, c, t in rows}


def lexicon_pairs(doc: dict) -> list[tuple[str, str]]:
    return [(t["surface"], t["category"]) for t in doc_tokens(doc)]


# ---------------------------------------------------------------------------
# serialize_canon


def dot_counts(doc: dict) -> tuple[int, int, int]:
    """(boxes, ring edges, clusters) a DOT drawing of ``doc`` must have."""
    counts = [0, 0, 0]

    def walk(loop: dict) -> None:
        n = len(loop["members"])
        if n > 1:
            counts[1] += n
        for m in loop["members"]:
            counts[0] += len(m.get("branches", ()))
            if "node" in m:
                counts[0] += 1
            else:
                counts[2] += 1
                walk(m["loop"])

    walk(doc["loop"])
    return counts[0], counts[1], counts[2]


def check_serialized(doc: dict, text: str, dot: str, canon: str, equal_rotated: bool, equal_perturbed: bool,
                     canon_rotated: str, canon_perturbed: str) -> str | None:
    if json.loads(text) != doc:
        return "serialized text does not load back to the generated document"
    if not equal_rotated or canon_rotated != canon:
        return "the rotated copy is not equal or canonicalizes differently"
    if equal_perturbed or canon_perturbed == canon:
        return "the perturbed copy compares or canonicalizes equal"
    return check_dot(doc, dot)


def check_dot(doc: dict, dot: str) -> str | None:
    """A DOT drawing of ``doc``: one box per node and branch, labeled with its
    tokens; a ring of edges round every loop of more than one member; one
    edge per branch; one cluster per nested loop."""
    lines = dot.splitlines()
    if lines[:1] != ["digraph synapper {"] or lines[-1:] != ["}"]:
        return "DOT output is not one digraph"
    labels = Counter(re.findall(r'\[label="([^"]*)"\]', dot))
    edges = sum(1 for line in lines if " -> " in line)
    clusters = sum(1 for line in lines if "subgraph cluster_" in line)
    members = list(_all_members(doc["loop"]))
    branches = sum(len(m.get("branches", ())) for m in members)
    want_labels = Counter(" ".join(t["surface"] for t in tokens) for tokens in _boxes(members))
    want_boxes, want_ring, want_clusters = dot_counts(doc)
    if (sum(labels.values()), edges - branches, clusters) != (want_boxes, want_ring, want_clusters):
        return (f"DOT has {sum(labels.values())} boxes, {edges - branches} ring edges, {clusters} clusters; "
                f"expected {dot_counts(doc)}")
    if labels != want_labels:
        return "DOT box labels are not the document's nodes and branches"
    return None


def _boxes(members):
    for m in members:
        if "node" in m:
            yield m["node"]
        for b in m.get("branches", ()):
            yield b["tokens"]


def _all_members(loop: dict):
    for m in loop["members"]:
        yield m
        if "loop" in m:
            yield from _all_members(m["loop"])


def check_canon(doc: dict, line: str) -> str | None:
    """``canon`` output for ``doc``: one line of JSON holding the document's
    word order and its rings, each up to rotation."""
    if not line.endswith("\n") or "\n" in line[:-1]:
        return "canonical form is not one line"
    try:
        got = json.loads(line)
        same = got["word_order"] == doc["word_order"] and _ring_key(got["loop"]) == _ring_key(doc["loop"])
    except (ValueError, KeyError, TypeError):
        same = False
    return None if same else "canonical form does not hold the document's word order and rings up to rotation"


def _ring_key(loop) -> tuple:
    """The benchmark's own rotation-free key of a loop: its kind and the least
    rotation of its members' keys. Tokens may be {surface, category} objects
    or [surface, category] pairs."""
    members = [_member_key(m) for m in loop["members"]]
    return loop["kind"], min(tuple(members[k:] + members[:k]) for k in range(len(members)))


def _member_key(m: dict) -> tuple:
    return (
        m.get("role") or "",
        tuple(_pair(t) for t in m.get("node", ())),
        _ring_key(m["loop"]) if "loop" in m else (),
        tuple((b["category"], tuple(_pair(t) for t in b["tokens"])) for b in m.get("branches", ())),
    )


def _pair(t) -> tuple[str, str]:
    return (t["surface"], t["category"]) if isinstance(t, dict) else tuple(t)


# ---------------------------------------------------------------------------
# cli_process


def prob_line(n: int) -> str:
    """``synapper prob n`` output from exact integer arithmetic: 1/n! to seven
    significant digits (round half to even), then the exact fraction."""
    d = math.factorial(n)
    digits = len(str(d))
    e = -digits + (1 if d == 10 ** (digits - 1) else 0)  # 10**e <= 1/d < 10**(e + 1)
    q, r = divmod(10 ** (6 - e), d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    if q == 10**7:
        q, e = 10**6, e + 1
    m = str(q)
    sign = "-" if e < 0 else "+"
    return f"{m[0]}.{m[1:]}e{sign}{abs(e)} (1/{d})\n"
