"""Benchmark for synapper's read, rewrite, write and CLI paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; synapper is imported from the
checkout's ``src``. One process, one thread; child processes run one at a
time. Each run prints human-readable lines and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from opcount import OpCounter
from tracing import LAYERS, GcMeter, PassCounter, Spans, layer_name, median_us

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

POOL_ITEMS = 200  # generated structures per round of an in-process workload
SUBSET_SEED = 20240  # the counted pass always uses these inputs, whatever --seed is
SUBSET_ITEMS = 24
SETUP_REPEATS = 9
MIN_ITEMS = 200  # cli_process children; at least ten lie beyond the 95th percentile
PROBE_ROUNDS = 5  # in-process cli.run rounds over the rotation in a traced run
CHILD_REPEATS = 5  # control and import-only children in a traced run
WH_GENERATED = "kim"


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv: list[str], stdin_text: str | None = None) -> tuple[int, str, int, int]:
    """Run one child to completion: (exit code, stdout, CPU ns, peak RSS KiB).

    CPU is the child's own user+sys time and RSS its own peak, both from
    ``wait4``. Stderr passes through.
    """
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL if stdin_text is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        if stdin_text is not None:
            proc.stdin.write(stdin_text.encode("utf-8"))
            proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_ns = round((usage.ru_utime + usage.ru_stime) * 1e9)
    return proc.returncode, out.decode("utf-8"), cpu_ns, usage.ru_maxrss


def bench_child(*args: str, stdin_text: str | None = None) -> tuple[str, int]:
    code, out, cpu_ns, _ = run_child([sys.executable, str(HERE / "child.py"), *args], stdin_text)
    if code != 0:
        raise SystemExit(f"child.py {' '.join(args[:2])} exited with {code}")
    return out, cpu_ns


def load_synapper():
    sys.path.insert(0, str(SRC))
    try:
        import synapper
        import synapper.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"cannot import synapper from {SRC}: {e}")
    if Path(synapper.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported synapper from {synapper.__file__}, not from {SRC}")
    return synapper


# ---------------------------------------------------------------------------
# Workloads. Each builds its inputs in __init__ (no layer calls), parses its
# profiles and lexicons in setup(), builds in-memory structures in prepare(),
# and times run() on each item.


class InProcess:
    module = "synapper"
    known_faults: frozenset = frozenset()

    def __init__(self, syn):
        self.syn = syn
        self.profile_texts: list[str] = []
        self.lexicon_texts: list[str] = []

    def setup_job(self) -> str:
        jobs = [("p", t) for t in self.profile_texts] + [("l", t) for t in self.lexicon_texts]
        return "\0".join([self.module] + [f for job in jobs for f in job])

    def setup(self) -> None:
        self.profiles = [self.syn.parse_profile(t) for t in self.profile_texts]
        self.lexicons = [self.syn.parse_lexicon(t) for t in self.lexicon_texts]

    def prepare(self) -> None:
        pass

    def measure(self, x) -> tuple[int, int, object]:
        """(CPU ns, wall-clock ns, output) of one run of ``x``."""
        w0 = time.perf_counter_ns()
        t0 = time.thread_time_ns()
        out = self.run(x)
        t1 = time.thread_time_ns()
        return t1 - t0, time.perf_counter_ns() - w0, out

    def key(self, out):
        return out

    def fault(self, x) -> bool:
        return False


class ParseOrders(InProcess):
    """JSON text -> parse_structure -> linearize under six bare orders -> render."""

    name = "parse_orders"

    def __init__(self, syn, seed: int, n: int):
        super().__init__(syn)
        rng = random.Random(seed)
        self.items = [(json.dumps(doc), doc, {}) for doc in inputs.structure_pool(rng, n)]
        for name, written in inputs.FIXTURE_ORDERS.items():
            text = inputs.read_text(ROOT, f"fixtures/{name}.json")
            self.items.append((text, json.loads(text), written))
        self.profile_texts = inputs.bare_profile_texts()

    def run(self, x):
        syn = self.syn
        s = syn.parse_structure(x[0])
        return tuple(syn.linearize(s, p).render() for p in self.profiles)

    def check(self, x, out) -> str | None:
        return checks.check_orders(x[1], inputs.ORDERS, out, x[2])


class TranslateRules(InProcess):
    """In-memory structure -> substitute_lexemes -> linearize -> morpheme
    rules -> render, then interrogativize and declarativize: the steps of
    ``translate`` spelled out, so the translated structure can go on to the
    WH transforms."""

    name = "translate_rules"

    def __init__(self, syn, seed: int, n: int):
        super().__init__(syn)
        rng = random.Random(seed)
        entries = inputs.lexicon_entries(rng)
        generated = inputs.rule_profiles(rng, entries)
        self.lexicon_texts = [inputs.lexicon_tsv(entries)]
        self.profile_texts = [json.dumps(p) for p in generated]
        profile_docs = list(generated)
        # plan: (doc, lexicon index, lexicon entries, profile index, wh, rendering, question)
        self.plan = [
            (doc, 0, entries, k % len(generated), WH_GENERATED, None, None)
            for k, doc in enumerate(inputs.structure_pool(rng, n))
        ]
        named: dict[str, int] = {}
        for fixture, profile, lexicon, rendering, question in inputs.FIXTURE_TRANSLATIONS:
            text = inputs.read_text(ROOT, f"fixtures/{fixture}.json")
            doc = json.loads(text)
            if profile not in named:
                named[profile] = len(self.profile_texts)
                self.profile_texts.append(inputs.read_text(ROOT, f"profiles/{profile}.json"))
                profile_docs.append(json.loads(self.profile_texts[-1]))
            tsv = inputs.read_text(ROOT, f"lexicons/{lexicon}.tsv") if lexicon else inputs.identity_lexicon_tsv(doc)
            self.lexicon_texts.append(tsv)
            self.plan.append((doc, len(self.lexicon_texts) - 1, checks.read_lexicon_tsv(tsv), named[profile], "why",
                              rendering, question))
        self.profile_docs = profile_docs
        seen: set[int] = set()
        self.reusing = 0
        for step in self.plan:
            self.reusing += step[3] in seen
            seen.add(step[3])

    def prepare(self) -> None:
        syn = self.syn
        self.items = [
            (syn.build_synapper(doc), self.lexicons[li], self.profiles[pi], syn.wh_token(wh), k)
            for k, (doc, li, _, pi, wh, _, _) in enumerate(self.plan)
        ]

    def run(self, x):
        syn = self.syn
        s, lex, p, wh, _ = x
        target = syn.substitute_lexemes(s, lex)
        sentence = syn.apply_morpheme_rules(syn.linearize(target, p), p)
        question = syn.interrogativize(target, wh, p)
        back = syn.declarativize(question, target, p)
        return sentence.render(), question.render(), back is target, sentence, question

    def key(self, out):
        return out[:3]

    def check(self, x, out) -> str | None:
        doc, _, entries, pi, wh, rendering, question = self.plan[x[4]]
        if rendering is not None and out[0] != rendering:
            return f"got {out[0]!r}, hand-written rendering is {rendering!r}"
        if question is not None and out[1] != question:
            return f"got question {out[1]!r}, hand-written question is {question!r}"
        return checks.check_translation(doc, entries, self.profile_docs[pi], wh, out[3], out[4], out[2])


class SerializeCanon(InProcess):
    """In-memory structure -> serialize_structure, to_dot, canonical_form,
    structural_equal against a rotated and a perturbed copy."""

    name = "serialize_canon"

    def __init__(self, syn, seed: int, n: int):
        super().__init__(syn)
        rng = random.Random(seed)
        docs = inputs.structure_pool(rng, n)
        self.docs = [(d, inputs.rotated_doc(rng, d), inputs.perturbed_doc(rng, d)) for d in docs]

    def prepare(self) -> None:
        build = self.syn.build_synapper
        self.items = [(build(d), build(r), build(p), d) for d, r, p in self.docs]

    def run(self, x):
        syn = self.syn
        s, rotated, perturbed, _ = x
        return (
            syn.serialize_structure(s),
            syn.to_dot(s),
            syn.canonical_form(s),
            syn.structural_equal(s, rotated),
            syn.structural_equal(s, perturbed),
        )

    def check(self, x, out) -> str | None:
        canon = self.syn.canonical_form
        return checks.check_serialized(x[3], *out, canon(x[1]), canon(x[2]))


class CliProcess:
    """One ``python -m synapper <command>`` child per item, in a rotation of
    all ten commands that the seed shuffles."""

    name = "cli_process"
    module = "synapper.cli"
    known_faults = frozenset({("prob", "177"), ("prob", "178")})

    def __init__(self, syn, seed: int, n: int):
        self.syn = syn
        self.items = list(inputs.CLI_ROTATION)
        random.Random(seed).shuffle(self.items)
        self.peak_kib = 0
        mary = "fixtures/mary.json"
        OUT.mkdir(exist_ok=True)
        rotated = json.dumps(inputs.rotated_once(json.loads(inputs.read_text(ROOT, mary))))
        (ROOT / inputs.MARY_ROTATED).write_text(rotated, encoding="utf-8")
        # The document each `canon` and `dot` call reads, and the fixture
        # whose canonical line it must print.
        self.docs = {argv[1]: json.loads(inputs.read_text(ROOT, argv[1]))
                     for argv, _ in self.items if argv[0] in ("canon", "dot")}
        self.canon_of = {inputs.MARY_ROTATED: mary}
        self.canon_lines: dict[str, str] = {}

    def setup_job(self) -> str:
        jobs = [("p", inputs.read_text(ROOT, f"profiles/{p}.json")) for p in inputs.CLI_PROFILES]
        jobs += [("l", inputs.read_text(ROOT, f"lexicons/{x}.tsv")) for x in inputs.CLI_LEXICONS]
        return "\0".join([self.module] + [f for job in jobs for f in job])

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def measure(self, x) -> tuple[int, int, object]:
        w0 = time.perf_counter_ns()
        code, out, cpu_ns, peak = run_child([sys.executable, "-m", "synapper", *x[0]])
        wall_ns = time.perf_counter_ns() - w0
        self.peak_kib = max(self.peak_kib, peak)
        return cpu_ns, wall_ns, (code, out)

    def key(self, out):
        return out

    def check(self, x, out) -> str | None:
        argv, want = x
        code, stdout = out
        if argv[0] == "canon":
            path = self.canon_of.get(argv[1], argv[1])
            if self.canon_lines.setdefault(path, stdout) != stdout:
                error = f"not the line `canon {path}` prints"
            else:
                error = checks.check_canon(self.docs[argv[1]], stdout)
        elif argv[0] == "dot":
            error = checks.check_dot(self.docs[argv[1]], stdout)
        else:
            if want is None:
                want = checks.prob_line(int(argv[1]))
            error = None if stdout == want else f"expected {want!r}"
        if code != 0 or error is not None:
            return f"synapper {' '.join(argv)}: exit {code}, stdout {stdout!r}: {error}"
        return None

    def fault(self, x) -> bool:
        return x[0] in self.known_faults


WORKLOADS = {w.name: w for w in (ParseOrders, TranslateRules, SerializeCanon, CliProcess)}
IN_PROCESS = ("parse_orders", "translate_rules", "serialize_canon")


def build(syn, name: str, seed: int, n: int, spans: Spans | None = None):
    wl = WORKLOADS[name](syn, seed, n)
    if spans is not None:
        spans.active = True
    wl.setup()
    if spans is not None:
        spans.active = False
    wl.prepare()
    return wl


class Tally:
    """Attempted and failed operations; ``correct`` stays true while every
    failure is a known fault (see inputs.CLI_ROTATION)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []

    def add(self, wl, x, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if not wl.fault(x):
            self.correct = False
            if len(self.messages) < 5:
                self.messages.append(f"{wl.name}: {error}")

    def merge(self, side: "Tally") -> None:
        """Take the correctness of operations outside the timed rounds."""
        self.correct = self.correct and side.correct
        self.messages += side.messages[: 5 - len(self.messages)]


def timed_rounds(wl, seconds: float, min_items: int, tally: Tally, spans: Spans | None = None, after_round=None):
    """A checked warm-up round, then whole timed rounds until ``seconds`` have
    passed and at least ``min_items`` items ran. Returns each item's CPU ns
    and wall-clock ns, one entry per round.

    Every output is checked: the warm-up round fully, later rounds by
    equality with the warm-up round's checked output. ``after_round`` is
    called between rounds, outside any timed item.
    """
    expected = []
    for x in wl.items:
        out = wl.measure(x)[2]
        expected.append((wl.key(out), wl.check(x, out)))
    times: list[list[int]] = [[] for _ in wl.items]
    walls: list[list[int]] = [[] for _ in wl.items]
    measure, key = wl.measure, wl.key
    deadline = time.monotonic() + seconds
    done = 0
    if spans is not None:
        spans.active = True
    while True:
        for x, (want, error), t, w in zip(wl.items, expected, times, walls):
            if spans is not None:
                spans.item = done
            ns, wall_ns, out = measure(x)
            t.append(ns)
            w.append(wall_ns)
            done += 1
            tally.add(wl, x, error if key(out) == want else error or "output differs from the warm-up round")
        if time.monotonic() >= deadline and done >= min_items:
            break
        if after_round is not None:
            after_round()
    if spans is not None:
        spans.active = False
    return times, walls


def time_metrics(wl, times: list[list[int]]) -> tuple[float, float, float]:
    """(items per CPU second, p50 ms, p95 ms).

    An in-process item is one input, run once per round; its CPU time is
    its fastest round, and p50 and p95 are taken over the items. On a shared
    machine the slower rounds measure other tenants more than the item, so
    costs that land in only some rounds (garbage collections, allocator
    growth) are left out too; the traced run reports collections apart, as
    ``gc.*``. A cli_process item is one child process, and every child counts.
    """
    if isinstance(wl, CliProcess):
        samples = [ns for t in times for ns in t]
    else:
        samples = [min(t) for t in times]
    return (
        len(samples) / (sum(samples) / 1e9),
        statistics.median(samples) / 1e6,
        statistics.quantiles(samples, n=20)[18] / 1e6,
    )


def counted_ops(wl, tally: Tally, spans: Spans | None = None, passes: PassCounter | None = None) -> int:
    """Total interpreter ops over one pass of ``wl.items`` (after one uncounted
    pass, so lazy state is filled). Outputs are checked like timed ones."""
    if isinstance(wl, CliProcess):
        total = 0
        for x in wl.items:
            out, _ = bench_child("count-cli", *x[0])
            head, _, stdout = out.partition("\n")
            ops, code = head.split("\t")
            total += int(ops)
            tally.add(wl, x, wl.check(x, (int(code), stdout)))
        return total
    for x in wl.items:
        wl.run(x)
    counter = OpCounter()
    if spans is not None:
        spans.clock = lambda: counter.n
        spans.install()
        spans.active = True
    if passes is not None:
        passes.install()
    outs = []
    try:
        with counter:
            for x in wl.items:
                outs.append(wl.run(x))
    finally:
        if passes is not None:
            passes.uninstall()
        if spans is not None:
            spans.active = False
            spans.uninstall()
    for x, out in zip(wl.items, outs):
        tally.add(wl, x, wl.check(x, out))
    return counter.n


class SetupSampler:
    """The set-up, each time in a fresh child, SETUP_REPEATS times spread
    evenly over the timed rounds: this machine's speed shifts from one
    moment to the next, and a median over the whole run is steadier than
    one taken in a single burst."""

    def __init__(self, wl, seconds: float):
        self.job = wl.setup_job()
        self.every = seconds / SETUP_REPEATS
        self.start = time.monotonic()
        self.runs: list[list[str]] = []

    def between_rounds(self) -> None:
        due = int((time.monotonic() - self.start) / self.every) + 1 if self.every else 0
        while len(self.runs) < min(due, SETUP_REPEATS):
            self._sample()

    def _sample(self) -> None:
        self.runs.append(bench_child("setup", stdin_text=self.job)[0].split())

    def medians(self) -> tuple[float, float]:
        """Median CPU and wall-clock seconds."""
        while len(self.runs) < SETUP_REPEATS:
            self._sample()
        return (statistics.median(float(r[0]) for r in self.runs),
                statistics.median(float(r[1]) for r in self.runs))


def end_to_end(syn, name: str, seed: int, seconds: float, min_items: int) -> tuple[Tally, dict]:
    wl = build(syn, name, seed, POOL_ITEMS)
    subset = build(syn, name, SUBSET_SEED, SUBSET_ITEMS)
    report_inputs(wl)
    gc.collect()
    gc.freeze()
    tally, side = Tally(), Tally()
    setup = SetupSampler(wl, seconds)
    times, walls = timed_rounds(wl, seconds, min_items, tally, after_round=setup.between_rounds)
    setup_s, setup_wall = setup.medians()
    if isinstance(wl, CliProcess):
        peak_kib = wl.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Counting last: once sys.settrace has run, CPython 3.11 runs the same
    # code about a third slower for the rest of the process.
    ops = counted_ops(subset, side) / len(subset.items)
    tally.merge(side)
    items_per_s, p50, p95 = time_metrics(wl, times)
    twins = dict(zip(("items_per_s", "item_p50_ms", "item_p95_ms"), time_metrics(wl, walls)), setup_s=setup_wall)
    print("wall-clock twins:", json.dumps(twins))
    metrics = {
        "items_per_s": (items_per_s, "items/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p95_ms": (p95, "ms"),
        "py_ops_per_item": (ops, "ops"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return tally, metrics


def report_inputs(wl) -> None:
    if isinstance(wl, TranslateRules):
        print(f"{wl.name}: {len(wl.plan)} items over {len(wl.profile_texts)} profiles; "
              f"{wl.reusing} ({100 * wl.reusing / len(wl.plan):.1f}%) reuse a profile an earlier item used")
    print(f"{wl.name}: {len(wl.items)} items per round")


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.

CPU_LAYERS = tuple(layer_name(module, func) for module, func in LAYERS)
OPS_LAYERS = tuple(
    layer for layer in CPU_LAYERS
    if layer not in ("linearize.render", "io_formats.parse_profile", "io_formats.parse_lexicon")
)


def traced(syn, name: str, seed: int, seconds: float, min_items: int) -> tuple[Tally, dict]:
    """Spans around every layer call. Sources, in this order:

    1. this workload's own setup and timed rounds, as in an untraced run;
    2. five traced rounds over the fixed subset of each other in-process
       workload, for the layers this workload never calls;
    3. the CLI probe: cli.run in-process over the rotation.

    A layer's cpu_us comes from the first source that called it. The gc.*
    figures come from the first source that runs in this process: the
    timed rounds of an in-process workload, the CLI probe for cli_process.
    Op counts come the same way from counted passes over the fixed subsets
    (this workload's first) and one counted rotation of cli.run, so they
    repeat exactly. All counting comes after all timing. The run reports the tally
    of its own timed rounds; any failed check elsewhere clears ``correct``.
    """
    tally, side = Tally(), Tally()
    others = [w for w in IN_PROCESS if w != name]

    spans = Spans(time.thread_time_ns)
    spans.install()
    wl = build(syn, name, seed, POOL_ITEMS, spans)
    gc.collect()
    gc.freeze()
    in_process = name in IN_PROCESS
    collector = GcMeter()
    with collector if in_process else contextlib.nullcontext():
        times = timed_rounds(wl, seconds, min_items, tally, spans)[0]
    spans.uninstall()
    items_per_s = time_metrics(wl, times)[0]
    time_sources = [spans]
    for other in others:
        spans = Spans(time.thread_time_ns)
        spans.install()
        timed_rounds(build(syn, other, SUBSET_SEED, SUBSET_ITEMS, spans), 0, 5 * SUBSET_ITEMS, side, spans)
        spans.uninstall()
        time_sources.append(spans)
    probe = CliProbe(syn, side)
    with contextlib.nullcontext() if in_process else collector:
        time_sources.append(probe.timed())
    executions = sum(map(len, times)) if in_process else PROBE_ROUNDS * len(probe.wl.items)
    children = probe.children()

    op_sources = []
    passes = PassCounter()
    for w in ([name] if in_process else []) + others:
        spans = Spans(None)
        counted_ops(build(syn, w, SUBSET_SEED, SUBSET_ITEMS), side, spans,
                    passes if w == "translate_rules" else None)
        op_sources.append(spans)
    op_sources.append(probe.counted())
    tally.merge(side)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}.tsv", "w", encoding="utf-8") as f:
        f.write("source\trow\tname\tstart\tend\tparent\titem\tsize\n")
        for k, s in enumerate(time_sources):
            s.write(f, f"cpu{k}")
        for k, s in enumerate(op_sources):
            s.write(f, f"ops{k}")

    cpu = [s.self_values() for s in time_sources]
    ops = [s.self_values() for s in op_sources]
    sizes = [s.sizes() for s in op_sources]

    def first(sources, layer):
        return next(src[layer] for src in sources if layer in src)

    def mean(values):
        return sum(values) / len(values)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in CPU_LAYERS:
        metrics[f"{layer}.cpu_us"] = (median_us(first(cpu, layer)), "us")
    for layer in OPS_LAYERS:
        metrics[f"{layer}.py_ops"] = (mean(first(ops, layer)), "ops")
    metrics["linearize.linearize.tokens_out"] = (mean(first(sizes, "linearize.linearize")), "tokens")
    metrics["io_formats.serialize_structure.bytes_out"] = (
        mean(first(sizes, "io_formats.serialize_structure")), "bytes")
    applies = len(first(ops, "translate.apply_morpheme_rules"))
    metrics["translate.rule_passes"] = (passes.passes / applies, "passes")
    metrics["translate.useful_pass_ratio"] = (passes.useful / passes.passes, "ratio")
    metrics["gc.collections_per_item"] = (collector.collections / executions, "count")
    metrics["gc.cpu_us_per_item"] = (collector.cpu_ns / 1000 / executions, "us")
    metrics.update(children)
    metrics["trace.items_per_s"] = (items_per_s, "items/s")
    return tally, metrics


class CliProbe:
    """cli.run in-process over the rotation (timed, then counted), plus the
    interpreter-start control, import-only children and the import op count."""

    def __init__(self, syn, tally: Tally):
        self.syn = syn
        self.tally = tally
        self.wl = CliProcess(syn, 0, 0)

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.syn.cli.run(list(argv))
        return code, out.getvalue()

    def rotation(self, spans: Spans, rounds: int, counter=None) -> Spans:
        items = self.wl.items
        for x in items:
            self.call(x[0])
        spans.install()
        spans.active = True
        outs = []
        with counter or contextlib.nullcontext():
            for _ in range(rounds):
                outs += [self.call(x[0]) for x in items]
        spans.active = False
        spans.uninstall()
        for x, out in zip(items * rounds, outs):
            self.tally.add(self.wl, x, self.wl.check(x, out))
        return spans

    def timed(self) -> Spans:
        return self.rotation(Spans(time.thread_time_ns), PROBE_ROUNDS)

    def counted(self) -> Spans:
        counter = OpCounter()
        return self.rotation(Spans(lambda: counter.n), 1, counter)

    def children(self) -> dict:
        def cpu(argv):
            return statistics.median(run_child(argv)[2] for _ in range(CHILD_REPEATS))

        control = cpu([sys.executable, "-c", "pass"])
        imported = cpu([sys.executable, "-c", "import synapper.cli"])
        ops, modules = bench_child("count-import")[0].split("\t")
        return {
            "cli.interp_start_ms": (control / 1e6, "ms"),
            "cli.import_ms": ((imported - control) / 1e6, "ms"),
            "cli.import_py_ops": (float(ops), "ops"),
            "cli.modules_loaded": (float(modules), "count"),
        }


# ---------------------------------------------------------------------------


def smoke() -> int:
    """Every workload, untraced and traced, one round each, under two
    PYTHONHASHSEED values; fails on any output check and on any op count
    that differs between the two hash seeds."""
    exact = ("py_ops", "py_ops_per_item", "import_py_ops", "modules_loaded", "rule_passes",
             "useful_pass_ratio", "tokens_out", "bytes_out")
    ok = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            seen = []
            for hash_seed in ("0", "1"):
                argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                        "--seconds", "0", "--trace", trace, "--min-items", "1"]
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    print(f"FAIL {name} trace={trace} PYTHONHASHSEED={hash_seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
                    ok = False
                    continue
                seen.append({k: v["value"] for k, v in result["metrics"].items() if k.rsplit(".", 1)[-1] in exact})
            if len(seen) == 2 and seen[0] != seen[1]:
                diff = {k: (seen[0][k], seen[1][k]) for k in seen[0] if seen[0][k] != seen[1].get(k)}
                print(f"FAIL {name} trace={trace}: op counts differ between hash seeds: {diff}")
                ok = False
            elif len(seen) == 2:
                print(f"ok   {name} trace={trace}: {len(seen[0])} exact counts agree across hash seeds")
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-items", type=int, default=MIN_ITEMS)
    ap.add_argument("--smoke", action="store_true", help="short check of every workload; exits 1 on a failure")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    syn = load_synapper()
    run = traced if args.trace else end_to_end
    tally, metrics = run(syn, args.workload, args.seed, args.seconds, args.min_items)
    for message in tally.messages:
        print("check failed:", message, file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
