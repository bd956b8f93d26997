"""Exact interpreter-op counts through ``sys.settrace`` opcode events.

The tests' own copy of ``perfbench/opcount.py``, so the suite imports nothing
from ``perfbench/``. It imports nothing beyond ``sys``, so a child process
can load it before it imports synapper without changing what that import
loads. Frames whose code lives in this directory (the tests and their
helpers) are not counted: the count is the bytecode the program, and the
standard library it calls, executes.
"""

import sys

_TESTS_DIR = __file__.rsplit("/", 1)[0] + "/"


class OpCounter:
    def __init__(self):
        self.n = 0

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.n += 1
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(_TESTS_DIR):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        return False
