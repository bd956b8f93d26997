"""The benchmark's pass counter still fits the morpheme engine it wraps.

``perfbench/tracing.py`` counts morpheme passes by wrapping
``translate._apply_rule(sentence, step)``, taking ``len()`` of the sentence
it is given and of the one it returns, and reading ``.surface`` off each
token they yield. The file is loaded by path and used as it is, so a change
to that contract fails here rather than only in traced benchmark runs.
"""

import importlib.util

from synapper import apply_morpheme_rules, linearize
from conftest import ROOT, load_profile, load_structure


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pass_counter_wraps_one_linearize_and_rules_call():
    s, p = load_structure("space_news"), load_profile("en-articles")
    counter = _tracing().PassCounter()
    counter.install()
    try:
        counted = apply_morpheme_rules(linearize(s, p), p)
    finally:
        counter.uninstall()
    assert counter.passes == len(p.passes)
    assert counter.useful == counter.passes
    assert counted == apply_morpheme_rules(linearize(s, p), p)
