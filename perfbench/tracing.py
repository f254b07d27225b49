"""Tracing for the benchmark: spans around the benchmark's own calls into
hgs, and deterministic-profiler statistics for the functions below them.

Spans are recorded only by the main thread (the benchmark is one closed-loop
caller).  The profiler is attached from here, never from inside hgs: one
cProfile.Profile for the calling thread, and one more for every thread
started while profiling is on, so the worker threads of `hgs sinc` are
counted as well.
"""

from __future__ import annotations

import concurrent.futures
import cProfile
import inspect
import sys
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Span recorder plus per-thread profiler; inert until enabled."""

    def __init__(self):
        self.enabled = False
        self.pass_id = None
        self.spans = []
        self._stack = []
        self._profiles = []
        self._lock = threading.Lock()

    def span(self, name):
        """Context manager recording one span while tracing is enabled."""
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name):
        rec = {"name": name, "pass": self.pass_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def traced(self, pass_id):
        """Enable spans and profile this thread and every thread started
        inside the block."""
        main = cProfile.Profile()
        self._profiles.append((True, main))

        def start_thread_profiler(frame, event, arg):
            sys.setprofile(None)
            prof = cProfile.Profile()
            with self._lock:
                self._profiles.append((False, prof))
            prof.enable()

        self.enabled, self.pass_id = True, pass_id
        threading.setprofile(start_thread_profiler)
        main.enable()
        try:
            yield
        finally:
            main.disable()
            threading.setprofile(None)
            self.enabled, self.pass_id = False, None

    def span_table(self):
        """Spans with their self time (duration minus the children's)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [dict(rec, self_s=rec["end"] - rec["start"] - child[i])
                for i, rec in enumerate(self.spans)]

    def profile_tables(self):
        """{(file, line, name): [calls, self_s, total_s]} summed over every
        traced block, once over all threads and once over the main thread
        alone."""
        merged, main = {}, {}
        for is_main, prof in self._profiles:
            prof.create_stats()
            for key, (_cc, nc, tt, ct, _callers) in prof.stats.items():
                for table in (merged, main) if is_main else (merged,):
                    acc = table.setdefault(key, [0, 0.0, 0.0])
                    acc[0] += nc
                    acc[1] += tt
                    acc[2] += ct
        return merged, main


def code_key(func):
    """The key cProfile files a Python function under."""
    code = inspect.unwrap(func).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


# Main-thread time blocked on the `hgs sinc` pool: waiting on futures, and
# joining the workers when the pool closes.
POOL_WAIT = (concurrent.futures.Future.result,
             concurrent.futures.ThreadPoolExecutor.shutdown)


def layer_metrics(tracer, layers):
    """<name>.{calls,self_s,total_s} for every (name, function) in layers,
    and cli.pool_wait_s, over every traced block."""
    merged, main = tracer.profile_tables()
    out = {}
    for name, func in layers:
        calls, self_s, total_s = merged.get(code_key(func), (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    wait = sum(main.get(code_key(f), (0, 0.0, 0.0))[2] for f in POOL_WAIT)
    out["cli.pool_wait_s"] = (wait, "s")
    return out
