"""Exact interpreter-op counts through ``sys.settrace`` opcode events.

Imports nothing beyond ``sys``, so a child process can load it before it
imports synapper without changing what that import loads. Frames whose code
lives in this benchmark's own files are not counted: the count is the
bytecode the program (and the standard library it calls) executes.
"""

import sys

_BENCH_DIR = __file__.rsplit("/", 1)[0] + "/"


class OpCounter:
    def __init__(self):
        self.n = 0

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.n += 1
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(_BENCH_DIR):
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
