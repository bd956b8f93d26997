"""Spans around calls into synapper's public functions, recorded from outside.

``Spans.install`` swaps each named function for a wrapper in every synapper
module that holds a reference to it (``from .x import f`` copies the name),
and ``uninstall`` puts the originals back. The program has no hooks of its
own. A span row is (name, start, end, parent row, item); ``clock`` is either
the thread CPU clock in ns or an ``OpCounter`` reading, so the same code
gives CPU self time and exact self op counts. Rows live in an array in
memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from array import array

# (module, function) pairs timed as layers. ``render`` is a method of
# LinearSentence and is patched on the class.
LAYERS = (
    ("synapper.io_formats", "parse_structure"),
    ("synapper.model", "build_synapper"),
    ("synapper.linearize", "linearize"),
    ("synapper.linearize", "render"),
    ("synapper.translate", "substitute_lexemes"),
    ("synapper.translate", "apply_morpheme_rules"),
    ("synapper.transform", "interrogativize"),
    ("synapper.transform", "declarativize"),
    ("synapper.io_formats", "serialize_structure"),
    ("synapper.io_formats", "to_dot"),
    ("synapper.model", "canonical_form"),
    ("synapper.model", "structural_equal"),
    ("synapper.io_formats", "parse_profile"),
    ("synapper.io_formats", "parse_lexicon"),
    ("synapper.cli", "run"),
    ("synapper.chance", "chance_probability"),
)

# Per-call counts read off a layer's result.
_SIZES = {
    "linearize.linearize": lambda out: len(out.placed),
    "io_formats.serialize_structure": lambda out: len(out.encode("utf-8")),
}

_W = 6  # name, start, end, parent, item, size


def layer_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{func}"


class Spans:
    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.rows = array("q")
        self.stack = [-1]
        self.item = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn, size=None):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self.stack, self.clock

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(rows) // _W
            rows.extend((nid, clock(), 0, stack[-1], self.item, 0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rows[idx * _W + 2] = clock()
            if size is not None:
                rows[idx * _W + 5] = size(out)
            return out

        return wrapper

    def install(self) -> None:
        for module, func in LAYERS:
            name = layer_name(module, func)
            if func == "render":
                cls = sys.modules["synapper.linearize"].LinearSentence
                self._patches.append((cls, "render", cls.render))
                cls.render = self._record(name, cls.render)
                continue
            orig = getattr(sys.modules[module], func)
            patch_everywhere(orig, self._record(name, orig, _SIZES.get(name)), self._patches)

    def uninstall(self) -> None:
        unpatch(self._patches)

    def self_values(self) -> dict[str, list[int]]:
        """Per layer name, each call's own cost: its span minus its child spans."""
        rows = self.rows
        n = len(rows) // _W
        child = [0] * n
        for i in range(n):
            parent = rows[i * _W + 3]
            if parent >= 0:
                child[parent] += rows[i * _W + 2] - rows[i * _W + 1]
        out: dict[str, list[int]] = {}
        for i in range(n):
            name = self.names[rows[i * _W]]
            out.setdefault(name, []).append(rows[i * _W + 2] - rows[i * _W + 1] - child[i])
        return out

    def sizes(self) -> dict[str, list[int]]:
        rows = self.rows
        out: dict[str, list[int]] = {}
        for i in range(len(rows) // _W):
            name = self.names[rows[i * _W]]
            if name in _SIZES:
                out.setdefault(name, []).append(rows[i * _W + 5])
        return out

    def write(self, f, source: str) -> None:
        """Append one TSV line per span: source, row, name, start, end,
        parent row, item, size."""
        rows = self.rows
        for i in range(len(rows) // _W):
            r = rows[i * _W : i * _W + _W]
            f.write(f"{source}\t{i}\t{self.names[r[0]]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}\t{r[5]}\n")


def patch_everywhere(orig, wrapped, patches: list) -> None:
    """Replace every reference to ``orig`` held by a synapper module."""
    for key, module in sorted(sys.modules.items()):
        if key == "synapper" or key.startswith("synapper."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapped)


def unpatch(patches: list) -> None:
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)
    patches.clear()


def median_us(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1000.0


class PassCounter:
    """Counts morpheme passes and the passes that changed the sequence.

    A pass is one call of ``translate._apply_rule``, the engine's one rule
    over the whole sequence. ``translate.rule_passes`` and
    ``translate.useful_pass_ratio`` are defined by that helper; a program
    without it stops the run rather than report a different measure under
    the same names.
    """

    def __init__(self):
        self.passes = 0
        self.useful = 0
        self._patches: list = []

    def install(self) -> None:
        orig = getattr(sys.modules["synapper.translate"], "_apply_rule", None)
        if orig is None:
            raise SystemExit("translate.rule_passes: synapper.translate._apply_rule is gone; "
                             "redefine the metric for the new morpheme engine")

        def wrapper(placed, rule):
            out = orig(placed, rule)
            self.passes += 1
            if len(placed) != len(out) or any(a.surface != b.surface for a, b in zip(placed, out)):
                self.useful += 1
            return out

        patch_everywhere(orig, wrapper, self._patches)

    def uninstall(self) -> None:
        unpatch(self._patches)


class GcMeter:
    """Collections the cyclic garbage collector makes while installed, and
    the thread CPU time they take."""

    def __init__(self):
        self.collections = 0
        self.cpu_ns = 0
        self._t0 = 0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.thread_time_ns()
        else:
            self.collections += 1
            self.cpu_ns += time.thread_time_ns() - self._t0

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
