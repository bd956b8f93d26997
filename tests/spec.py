"""What README promises, written plainly: each fast layer must give what these functions give.

Each rule is one short function whose docstring quotes the README sentence it
implements, or states the rule where README leaves it out. Documents are dicts,
a sentence is a tuple of PlacedToken, and nothing is written for speed.
"""

import json
from collections.abc import Mapping

from synapper import (
    Branch, BranchSide, Category, Constituent, DegenerateStructureError, InversionMismatchError, Loop, LoopKind,
    MalformedDocumentError, MalformedSyntaxError, MissingLexemeError, MorphemeKind, NoWhFoundError, PlacedToken,
    PostOrder, Role, StructureValidationError, Synapper, SynapperError, Token, UnknownKeyError, UnknownWordOrderError,
    ValidationIssue, VerbPlacement, WhAlreadyPresentError, WhRule, WordOrder,
)

MAX_DEPTH = 100
NESTED_TOO_DEEP = "unreadable JSON: nested too deeply to decode"

# Reading a document
def loads(text):
    """README: "They read exactly what json.loads reads", after one byte order mark. Nesting past the
    decoder's depth is NESTED_TOO_DEEP from any caller; an int past int()'s limit, "unreadable JSON: <why>"."""
    try:
        return json.loads(text.removeprefix("\ufeff"))
    except json.JSONDecodeError as e:
        raise MalformedSyntaxError(f"invalid JSON: {e.msg}", e.lineno) from None
    except RecursionError:
        raise MalformedDocumentError("", NESTED_TOO_DEEP) from None
    except ValueError as e:
        raise MalformedDocumentError("", f"unreadable JSON: {e}") from None


def parse_structure(text):
    return build_synapper(loads(text))


def build_synapper(doc):
    """README: "what cannot be converted fails fast with the offending path, and every law of the
    converted structure is collected and reported together", as are unknown roles and categories."""
    check_object(doc, "", ["word_order", "loop"], ["label"])
    label = expect_text(doc.get("label", ""), "label")
    order = expect_text(doc["word_order"], "word_order")
    if order not in [o.value for o in WordOrder]:
        raise UnknownWordOrderError("word_order", f"unknown word order {order!r}")
    issues = []
    s = Synapper(label, WordOrder(order), convert_loop(doc["loop"], "loop", 1, issues))
    issues += structure_issues(s.main, "loop")
    if issues:
        raise StructureValidationError(issues)
    return s


def check_object(obj, path, required, optional):
    """README: "Any Mapping is read like a dict." Else "expected an object"; then the object's first
    key that is not listed, "unknown key 'k'" at its path; then the first required key missing."""
    if not isinstance(obj, Mapping):
        raise MalformedDocumentError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise UnknownKeyError(f"{path}.{key}" if path else str(key), f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise MalformedDocumentError(path, f"missing key {key!r}")


def expect_text(value, path):
    if not isinstance(value, str):
        raise MalformedDocumentError(path, "expected a string")
    return value


def convert_loop(raw, path, depth, issues):
    """README: "Loops nest at most 100 deep, the main loop counting as one". A head_index that is
    not exactly an int is "expected an integer", checked after the members."""
    if depth > MAX_DEPTH:
        raise MalformedDocumentError(path, f"loops nest deeper than {MAX_DEPTH} levels")
    check_object(raw, path, ["kind", "members"], ["head_index"])
    kind = expect_text(raw["kind"], f"{path}.kind")
    if kind not in [k.value for k in LoopKind]:
        raise MalformedDocumentError(f"{path}.kind", f"unknown loop kind {kind!r}")
    if kind == "clausal" and "head_index" in raw:
        raise UnknownKeyError(f"{path}.head_index", "head_index applies to phrasal loops only")
    if not isinstance(raw["members"], list):
        raise MalformedDocumentError(f"{path}.members", "expected an array")
    members = [convert_member(m, f"{path}.members[{i}]", depth, issues) for i, m in enumerate(raw["members"])]
    head = raw.get("head_index", 0)
    if type(head) is not int:
        raise MalformedDocumentError(f"{path}.head_index", "expected an integer")
    return Loop(LoopKind(kind), tuple(members), head)


def convert_member(raw, path, depth, issues):
    """A role (an unknown one is an issue and reads as object), then exactly one of node or loop."""
    check_object(raw, path, [], ["role", "node", "loop", "branches"])
    role = None
    if "role" in raw:
        text = expect_text(raw["role"], f"{path}.role")
        if text not in [r.value for r in Role]:
            issues.append(ValidationIssue("unknown-role", f"{path}.role", f"unknown role {text!r}"))
            text = "object"
        role = Role(text)
    if ("node" in raw) == ("loop" in raw):
        raise MalformedDocumentError(path, "expected exactly one of 'node' or 'loop'")
    if "loop" in raw:
        if "branches" in raw:
            raise UnknownKeyError(f"{path}.branches", "branches attach to nodes, not to nested loops")
        return Constituent(role, None, convert_loop(raw["loop"], f"{path}.loop", depth + 1, issues))
    node = convert_tokens(raw["node"], f"{path}.node", issues)
    if not isinstance(raw.get("branches", []), list):
        raise MalformedDocumentError(f"{path}.branches", "expected an array")
    branches = []
    for k, branch in enumerate(raw.get("branches", [])):
        at = f"{path}.branches[{k}]"
        check_object(branch, at, ["category", "tokens"], [])
        category = category_of(branch["category"], f"{at}.category", issues)
        branches.append(Branch(convert_tokens(branch["tokens"], f"{at}.tokens", issues), category))
    return Constituent(role, node, None, tuple(branches))


def convert_tokens(raw, path, issues):
    """A surface is not empty and holds no whitespace, checked after its category."""
    if not isinstance(raw, list):
        raise MalformedDocumentError(path, "expected an array of tokens")
    tokens = []
    for j, t in enumerate(raw):
        at = f"{path}[{j}]"
        check_object(t, at, ["surface", "category"], [])
        surface = expect_text(t["surface"], f"{at}.surface")
        category = category_of(t["category"], f"{at}.category", issues)
        if surface == "" or any(ch.isspace() for ch in surface):
            raise MalformedDocumentError(f"{at}.surface", "surface must be non-empty without whitespace")
        tokens.append(Token(surface, category))
    return tuple(tokens)


def category_of(raw, path, issues):
    text = expect_text(raw, path)
    if text not in [c.value for c in Category]:
        issues.append(ValidationIssue("unknown-category", path, f"unknown category {text!r}"))
        return Category.OTHER
    return Category(text)


def structure_issues(loop, path):
    """README: "the laws: a phrasal main loop (main-loop-not-clausal), an empty loop (empty-loop),
    ..., and an empty node or branch (empty-node)", in that order, loop by loop."""
    issues = []

    def issue(code, at, message):
        issues.append(ValidationIssue(code, at, message))

    roles = [m.role for m in loop.members]
    if path == "loop" and loop.kind is not LoopKind.CLAUSAL:
        issue("main-loop-not-clausal", "loop.kind", "the main loop must be clausal")
    if not roles:
        issue("empty-loop", f"{path}.members", "a loop needs at least one member")
    elif loop.kind is LoopKind.PHRASAL:
        if not 0 <= loop.head_index < len(roles):
            issue("head-out-of-range", f"{path}.head_index", "head_index out of range")
        for i, role in enumerate(roles):
            if role is not None:
                issue("role-in-phrasal-loop", f"{path}.members[{i}].role", "phrasal loop members are roleless")
    else:
        for i, role in enumerate(roles):
            if role is None:
                issue("missing-role", f"{path}.members[{i}]", "missing key 'role'")
        for role, name in (Role.SUBJECT, "subject"), (Role.VERB, "verb"):
            if roles.count(role) == 0 and (role is Role.VERB or len(roles) > 1):
                issue(f"missing-{name}", path, f"clausal loop has no {name}")
            if roles.count(role) > 1:
                issue(f"multiple-{name}s", path, f"clausal loop has more than one {name}")
    for i, m in enumerate(loop.members):
        if m.loop is not None:
            issues += structure_issues(m.loop, f"{path}.members[{i}].loop")
        elif not m.node:
            issue("empty-node", f"{path}.members[{i}].node", "a node needs at least one token")
        for k, b in enumerate(m.branches):
            if not b.tokens:
                issue("empty-node", f"{path}.members[{i}].branches[{k}].tokens", "a node needs at least one token")
    return issues


def loop_tokens(loop):
    """All tokens in stored order: each member's node tokens, or its nested loop's, then its branches' tokens."""
    out = []
    for m in loop.members:
        out += m.node if m.loop is None else loop_tokens(m.loop)
        for b in m.branches:
            out += b.tokens
    return out


# The ring reading
def reading(order):
    """(clockwise, role read first). README: "SVO, VOS and OSV read the ring clockwise; SOV, OVS and VSO
    read it counterclockwise. The starting member follows from the order (subject-, verb-, or object-initial)"."""
    first = {"s": Role.SUBJECT, "v": Role.VERB, "o": Role.OBJECT}[order.value[0]]
    return order in (WordOrder.SVO, WordOrder.VOS, WordOrder.OSV), first


def start_member(loop, first):
    """Where a clausal loop's reading starts: the first member with the role read first (an object, the
    first clockwise after the subject, or after member 0); else the subject, else the verb, else member 0."""
    n, roles = len(loop.members), [m.role for m in loop.members]
    if first is Role.OBJECT:
        after = roles.index(Role.SUBJECT) if Role.SUBJECT in roles else 0
        for step in range(1, n + 1):
            if roles[(after + step) % n] is Role.OBJECT:
                return (after + step) % n
    for role in (first, Role.SUBJECT, Role.VERB):
        if role in roles:
            return roles.index(role)
    return 0


def reading_order(loop, order):
    """A loop's member indices in reading order: a clausal loop goes round from its start member; a phrasal
    loop lists its members from the head on, or counterclockwise the exact reverse, so the head comes last."""
    n, (clockwise, first) = len(loop.members), reading(order)
    if loop.kind is LoopKind.PHRASAL:
        from_head = [(loop.head_index + i) % n for i in range(n)]
        return from_head if clockwise else from_head[::-1]
    start = start_member(loop, first)
    return [(start + i if clockwise else start - i) % n for i in range(n)]


def sentence_order(s, p):
    """README: "the walk, then the verb move": V1 puts the verb member first, V2 second."""
    order = reading_order(s.main, p.word_order)
    verbs = [i for i in order if s.main.members[i].role is Role.VERB]
    if p.verb_placement is not VerbPlacement.DEFAULT and len(order) > 1 and verbs:
        order.remove(verbs[0])
        order.insert(0 if p.verb_placement is VerbPlacement.V1 else 1, verbs[0])
    return order


def placement(p, category):
    """README: "per-category branch_rules (side: pre/post, post_order: source/reversed)". The first
    rule for a category wins; without one, before the node in source order."""
    for rule in p.branch_rules:
        if rule.category is category:
            return rule.side, rule.post_order
    return BranchSide.PRE, PostOrder.SOURCE


def branch_sides(c, p):
    """(branches before the node, after it), in stored order, except that the branches after it of
    the reversed categories, taken together, fill their own slots in reverse."""
    pre = [b for b in c.branches if placement(p, b.category)[0] is BranchSide.PRE]
    post = [b for b in c.branches if placement(p, b.category)[0] is BranchSide.POST]
    flipped = [b for b in post if placement(p, b.category)[1] is PostOrder.REVERSED]
    return pre, [flipped.pop() if placement(p, b.category)[1] is PostOrder.REVERSED else b for b in post]


def member_tokens(c, p):
    """(token, unit) pairs of a member: a nested loop's members in reading order, or a node between
    its branches. README: a multiword node "moves as a unit"; a branch's tokens are not units."""
    if c.loop is not None:
        return [pair for i in reading_order(c.loop, p.word_order) for pair in member_tokens(c.loop.members[i], p)]
    pre, post = branch_sides(c, p)
    return [(t, False) for b in pre for t in b.tokens] + [(t, len(c.node) > 1) for t in c.node] + [
        (t, False) for b in post for t in b.tokens
    ]


def write(s, p, order):
    """README: "The block is the ring index of the main-loop member a token comes from"; so is the role."""
    members = s.main.members
    pairs = [(i, t, unit) for i in order for t, unit in member_tokens(members[i], p)]
    placed = tuple(PlacedToken(t.surface, t.category, members[i].role, i, unit) for i, t, unit in pairs)
    if not placed:
        raise DegenerateStructureError("structure produced no tokens")
    return placed


def linearize(s, p):
    return write(s, p, sentence_order(s, p))


def interrogativize(s, wh, p):
    """README: "it decides where the WH word goes under the profile's wh_rule": initial_plain, first;
    initial_inversion, first, with the subject and the verb swapped after V1/V2; pre_subject, before
    the first token with the subject's role, or first. "A structure that already holds a WH token
    fails with WhAlreadyPresentError"."""
    if any(t.category is Category.WH for t in loop_tokens(s.main)):
        raise WhAlreadyPresentError("structure already contains a WH token")
    order = sentence_order(s, p)
    roles = [s.main.members[i].role for i in order]
    if p.wh_rule is WhRule.INITIAL_WITH_INVERSION and Role.SUBJECT in roles and Role.VERB in roles:
        subject, verb = roles.index(Role.SUBJECT), roles.index(Role.VERB)
        order[subject], order[verb] = order[verb], order[subject]
    placed = write(s, p, order)
    at = next((i for i, pt in enumerate(placed) if pt.role is Role.SUBJECT), 0) if p.wh_rule is WhRule.PRE_SUBJECT else 0
    return placed[:at] + (PlacedToken(wh.surface, Category.WH, None, -1, False),) + placed[at:]


def parse_question(text, s, p):
    """README: it "finds the WH word's slot from the structure and profile, rebuilds the question with
    the word found there, and compares the two renderings (runs of whitespace count as one space)"."""
    probe = interrogativize(s, Token("wh", Category.WH), p)
    words = text.split()
    if len(words) != len(probe):
        raise InversionMismatchError("question does not add exactly one token to the declarative")
    at = [pt.category for pt in probe].index(Category.WH)
    q = interrogativize(s, Token(words[at], Category.WH), p)
    rendering = " ".join(pt.surface for pt in q)
    if rendering[:1].upper() + rendering[1:] != " ".join(words):
        raise InversionMismatchError("question does not match the structure's interrogative form")
    return q


def declarativize(q, s, p):
    """README: it "rebuilds interrogativize(s, <q's first WH token>, p) and returns s when the two agree
    token for token (InversionMismatchError otherwise, NoWhFoundError when q has no WH token)"; a WH
    surface that is not one token agrees with nothing."""
    wh = next((t for t in q if t.category is Category.WH), None)
    if wh is None:
        raise NoWhFoundError("sentence has no WH token")
    if wh.surface == "" or any(ch.isspace() for ch in wh.surface):
        raise InversionMismatchError(f"WH surface {wh.surface!r} is not a single token")
    expected = interrogativize(s, Token(wh.surface, Category.WH), p)
    if [(t.surface, t.category) for t in q] != [(pt.surface, pt.category) for pt in expected]:
        raise InversionMismatchError("question does not match the skeleton's interrogative form")
    return s


# Translating
def substitute_lexemes(s, lex):
    """README: "A translation with uncovered pairs fails listing every missing (surface, category) at
    once", sorted by surface, then category text; else each token becomes lex's target, same category."""
    missing = {(t.surface, t.category) for t in loop_tokens(s.main) if lex.lookup(t.surface, t.category) is None}
    if missing:
        raise MissingLexemeError(sorted(missing, key=lambda pair: (pair[0], pair[1].value)))
    return Synapper(s.label, s.word_order, substitute_loop(s.main, lex))


def substitute_loop(loop, lex):
    def swap(tokens):
        return tuple(Token(lex.lookup(t.surface, t.category), t.category) for t in tokens)

    members = [
        Constituent(m.role, None, substitute_loop(m.loop, lex))
        if m.loop is not None
        else Constituent(m.role, swap(m.node), None, tuple(Branch(swap(b.tokens), b.category) for b in m.branches))
        for m in loop.members
    ]
    return Loop(loop.kind, tuple(members), loop.head_index)


# Morpheme rules
def apply_morpheme_rules(placed, p):
    """README: "Morpheme rules apply in ordinal order (listed order among equal ordinals), each as if
    it scanned the whole sequence left by the rules before it." """
    for rule in sorted(p.morpheme_rules, key=lambda r: r.ordinal):
        if rule.kind is MorphemeKind.DROP_CATEGORY:
            placed = drop_category(placed, Category(rule.selector))
        elif rule.kind is MorphemeKind.SUFFIX_ON_ROLE:
            placed = suffix_on_role(placed, Role(rule.selector), rule.payload)
        else:
            placed = insert(placed, rule.selector, rule.payload.split(), rule.kind is MorphemeKind.INSERT_BEFORE)
    return placed


def drop_category(placed, category):
    """README: a multiword node "survives category drops that would strip a freestanding article"."""
    return tuple(pt for pt in placed if pt.unit or pt.category is not category)


def insert(placed, anchor, words, before):
    """README: "An insert fires at every token whose surface equals its anchor", "never ... at the
    words it inserts itself. Inserted words have category OTHER", no role and block -1."""
    out = []
    for pt in placed:
        new = [PlacedToken(w, Category.OTHER, None, -1, False) for w in words] if pt.surface == anchor else []
        out += new + [pt] if before else [pt] + new
    return tuple(out)


def suffix_on_role(placed, role, suffix):
    """The suffix joins the last token that has the role; when none has it, nothing changes."""
    for i in reversed(range(len(placed))):
        if placed[i].role is role:
            return placed[:i] + (placed[i]._replace(surface=placed[i].surface + suffix),) + placed[i + 1 :]
    return placed


# Writing and comparing
def serialize_structure(s):
    """README: "The text equals json.dumps(doc, indent=2, ensure_ascii=False) plus a newline", the
    keys in README's order; label, head_index, role and branches each only when there is one."""
    doc = {"label": s.label} if s.label else {}
    doc |= {"word_order": s.word_order.value, "loop": loop_document(s.main)}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def loop_document(loop):
    doc = {"kind": loop.kind.value}
    if loop.kind is LoopKind.PHRASAL:
        doc["head_index"] = loop.head_index
    doc["members"] = [member_document(m, token_document, loop_document) for m in loop.members]
    return doc


def token_document(t):
    return {"surface": t.surface, "category": t.category.value}


def member_document(m, token, loop):
    """A member's document, its tokens written by token and a nested loop by loop."""
    doc = {} if m.role is None else {"role": m.role.value}
    if m.loop is None:
        doc["node"] = [token(t) for t in m.node]
    else:
        doc["loop"] = loop(m.loop)
    if m.branches:
        doc["branches"] = [{"category": b.category.value, "tokens": [token(t) for t in b.tokens]} for b in m.branches]
    return doc


def canonical_document(loop):
    """README: a token is "the pair [surface, category]. Each loop's members start at its anchor, the
    subject of a clausal loop (its first member when it has none) or the head of a phrasal one"."""
    roles = [m.role for m in loop.members]
    if loop.kind is LoopKind.PHRASAL:
        anchor = loop.head_index
    else:
        anchor = roles.index(Role.SUBJECT) if Role.SUBJECT in roles else 0
    members = loop.members[anchor:] + loop.members[:anchor]
    return {"kind": loop.kind.value, "members": [member_document(m, token_pair, canonical_document) for m in members]}


def token_pair(t):
    return [t.surface, t.category.value]


def canonical_form(s):
    """README: "json.dumps(doc, sort_keys=True, separators=(",", ":")) of the document below"."""
    doc = {"loop": canonical_document(s.main), "word_order": s.word_order.value}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def structural_equal(a, b):
    """README: "Two structures have the same canonical form exactly when structural_equal holds." """
    return a.word_order is b.word_order and canonical_document(a.main) == canonical_document(b.main)


def to_dot(s):
    """README: "boxes for nodes, arrows from branches into their node, ring edges closing each cycle,
    nested loops as labeled clusters." """
    lines = []
    dot_loop(s.main, "n", "  ", lines)
    return "\n".join(["digraph synapper {", "  node [shape=box];", *lines, "}"]) + "\n"


def dot_loop(loop, prefix, indent, lines):
    """The id edges into the loop point at. README: "the nested loop's member j is <id>m<j>"; "An edge
    into a member that holds a loop points at that loop's first stored member"."""
    if not loop.members:
        raise SynapperError("cannot draw an empty loop")
    ids = []
    for j, m in enumerate(loop.members):
        mid = f"{prefix}{j}"
        if m.loop is None:
            lines.append(f'{indent}{mid} [label="{dot_label(m.node)}"];')
            ids.append(mid)
        else:
            lines += [f"{indent}subgraph cluster_{mid} {{", f'{indent}  label="{m.loop.kind.value} loop";']
            ids.append(dot_loop(m.loop, mid + "m", indent + "  ", lines))
            lines.append(f"{indent}}}")
        for k, b in enumerate(m.branches):
            lines += [f'{indent}{mid}b{k} [label="{dot_label(b.tokens)}"];', f"{indent}{mid}b{k} -> {ids[-1]};"]
    if len(ids) > 1:
        lines += [f"{indent}{a} -> {ids[(j + 1) % len(ids)]};" for j, a in enumerate(ids)]
    return ids[0]


def dot_label(tokens):
    """README: "A box's label is its surfaces joined by one space, with \\ written \\\\ and " written \\"". """
    return " ".join(t.surface for t in tokens).replace("\\", "\\\\").replace('"', '\\"')
