"""Work done in a fresh interpreter, one job per process.

    child.py setup              stdin: module NUL (kind NUL text)*; prints the CPU and
                                wall-clock seconds spent importing the module and
                                parsing every profile (kind p) and lexicon (kind l)
    child.py count-cli ARGS...  runs ``python -m synapper ARGS...`` under the op
                                counter; prints "ops<TAB>exit code" and the CLI's stdout
    child.py count-import       prints "ops<TAB>modules" for ``import synapper.cli``

The interpreter finds synapper through PYTHONPATH, which the parent sets to
the checkout's ``src``. Only ``sys``, ``time`` and the op counter are loaded
before the measured part.
"""

import sys
import time

from opcount import OpCounter


def setup() -> None:
    fields = sys.stdin.read().split("\0")
    module, jobs = fields[0], fields[1:]
    w0 = time.perf_counter()
    t0 = time.process_time()
    __import__(module)
    from synapper.io_formats import parse_lexicon, parse_profile

    for kind, text in zip(jobs[::2], jobs[1::2]):
        (parse_profile if kind == "p" else parse_lexicon)(text)
    t1 = time.process_time()
    sys.stdout.write(f"{t1 - t0!r} {time.perf_counter() - w0!r}\n")


def count_cli(args: list[str]) -> None:
    import contextlib
    import io
    import runpy

    out = io.StringIO()
    sys.argv = ["synapper", *args]
    code = 0
    with contextlib.redirect_stdout(out):
        with OpCounter() as counter:
            try:
                runpy.run_module("synapper", run_name="__main__", alter_sys=True)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
    sys.stdout.write(f"{counter.n}\t{code}\n{out.getvalue()}")


def count_import() -> None:
    before = len(sys.modules)
    with OpCounter() as counter:
        import synapper.cli  # noqa: F401
    sys.stdout.write(f"{counter.n}\t{len(sys.modules) - before}\n")


if __name__ == "__main__":
    job = sys.argv[1]
    if job == "setup":
        setup()
    elif job == "count-cli":
        count_cli(sys.argv[2:])
    elif job == "count-import":
        count_import()
    else:
        raise SystemExit(f"unknown job {job!r}")
