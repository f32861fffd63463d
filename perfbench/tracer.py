"""Out-of-program tracing: timing wrappers at the program's import sites.

The tracer replaces public functions in the namespaces that call them
(``crawlcount.estimator``, ``crawlcount.oracle`` and, for the benchmark's
own ``count_profile`` calls, ``crawlcount``) with wrappers that
record one span per call: name, start, end, parent span, run id, the change
in ``ledger.oracle_calls`` across the call, the level the call worked on and
an outcome (accepted, copies found, collision attempts).  Calls made inside
``crawlcount.instances`` itself are not seen, which is intended: a
``seg_neighborhood`` span is a hood-cache miss of the estimator.

The estimator's middle levels run inline in ``build_layers``.  Their phase
spans run from the end of ``initial_layer`` (or of the previous level) to
the return of ``LayerState.build`` for the level, which every level calls
once when it is complete.

A name that no longer exists is skipped and listed in ``missing``, so the
report marks the metrics that depend on it instead of failing.
"""

from __future__ import annotations

import gzip
import importlib
import time
from typing import Callable


def _instance_level(args, result):
    return len(args[2].vertices), None


def _extension(args, result):
    return len(args[2].vertices) + 1, result is not None


def _edgecount(args, result):
    return None, result.attempts


def _enumeration(args, result):
    return args[3], len(result)


# (namespace the call is looked up in, span name as layer.function, ledger
# argument position, info(args, result) -> (level, outcome))
TARGETS: tuple[tuple[str, str, int | None, Callable | None], ...] = (
    ("crawlcount.estimator", "estimator.estimate_edge_count", 1, _edgecount),
    ("crawlcount.estimator", "estimator.simple_random_walk", 1, None),
    ("crawlcount.estimator", "estimator.initial_layer", 1, None),
    ("crawlcount.estimator", "estimator.final_level_successes", 1, None),
    ("crawlcount.estimator", "estimator.seg_degree", 1, _instance_level),
    ("crawlcount.estimator", "estimator.seg_neighborhood", 1, _instance_level),
    ("crawlcount.estimator", "estimator.check_extension", 1, _extension),
    ("crawlcount.oracle", "oracle.enumerate_instances", None, _enumeration),
    ("crawlcount.oracle", "oracle.assign", 1, _instance_level),
    # The benchmark calls count_profile through the package.  Its span is
    # the parent of the two above and its self time is count_profile's own
    # loop (level sets, assignment-chain tallies).
    ("crawlcount", "oracle.count_profile", None, None),
)
LEVEL_HOOK = "estimator.LayerState.build"
PHASE = "estimator.level"

# Span tuple layout.
SID, NAME, START, END, PARENT, RUN, CALLS, LEVEL, OUTCOME = range(9)


class Tracer:
    """Collects spans in memory while installed; write them out with ``dump``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._run = -1
        self._ledger = None
        self._phase: tuple[int, float, int, int] | None = None  # sid, start, calls, level
        self._restore: list[tuple[object, str, object]] = []

    # ---- install / uninstall ----

    def install(self) -> None:
        self.missing.clear()
        for namespace, label, ledger_pos, info in TARGETS:
            name = label.rsplit(".", 1)[1]
            try:
                mod = importlib.import_module(namespace)
                fn = getattr(mod, name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            self._restore.append((mod, name, fn))
            setattr(mod, name, self._wrap(label, fn, ledger_pos, info))
        try:
            cls = importlib.import_module("crawlcount.estimator").LayerState
            raw = cls.__dict__["build"]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(LEVEL_HOOK)
        else:
            self._restore.append((cls, "build", raw))
            cls.build = staticmethod(self._level_hook(raw.__func__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ---- runs ----

    def begin_run(self, run_id: int) -> None:
        self._run = run_id
        self._ledger = None
        self._stack.clear()
        self._phase = None

    def end_run(self) -> None:
        self._close_phase(time.perf_counter())

    # ---- recording ----

    def _calls(self) -> int:
        return getattr(self._ledger, "oracle_calls", 0)

    def _open_phase(self, now: float, level: int) -> None:
        sid = self._next
        self._next += 1
        self._phase = (sid, now, self._calls(), level)
        self._stack.append(sid)

    def _close_phase(self, now: float, members: int | None = None) -> None:
        if self._phase is None:
            return
        sid, start, calls, level = self._phase
        self._phase = None
        self._stack.remove(sid)
        self.spans.append(
            (sid, PHASE, start, now, -1, self._run, self._calls() - calls, level, members)
        )

    def _drop_phase(self) -> None:
        """Forget the phase opened after the last middle level: the final loop follows."""
        if self._phase is not None:
            self._stack.remove(self._phase[0])
            self._phase = None

    def _wrap(self, label: str, fn, ledger_pos: int | None, info):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        opens_phase = label == "estimator.initial_layer"
        ends_phases = label == "estimator.final_level_successes"

        def wrapper(*args, **kwargs):
            if ends_phases:
                self._drop_phase()
            ledger = None
            if ledger_pos is not None and len(args) > ledger_pos:
                ledger = self._ledger = args[ledger_pos]
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            c0 = getattr(ledger, "oracle_calls", 0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            level = outcome = None
            if info is not None:
                try:
                    level, outcome = info(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            spans.append(
                (sid, label, t0, t1, parent, self._run,
                 getattr(ledger, "oracle_calls", 0) - c0, level, outcome)
            )
            if opens_phase:
                self._open_phase(t1, 3)
            elif not stack and self._phase is None:
                # Holding the ledger past the run would move the freeing of
                # its sets (0.1-0.3 s on crawl-1m) out of the timed run.
                self._ledger = None
            return result

        return wrapper

    def _level_hook(self, build):
        def hooked(*args, **kwargs):
            layer = build(*args, **kwargs)
            level = getattr(layer, "level", 0)
            if self._phase is not None and level >= 3:
                now = time.perf_counter()
                self._close_phase(now, len(getattr(layer, "members", ())))
                self._open_phase(now, level + 1)
            return layer

        return hooked

    # ---- output ----

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        child = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
        return {s[SID]: s[END] - s[START] - child.get(s[SID], 0.0) for s in self.spans}

    def dump(self, path: str, origin: float) -> None:
        """Write every span as gzip CSV, times in seconds from ``origin``."""
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,self_s,parent,run,oracle_calls,level,outcome\n")
            for s in sorted(self.spans, key=lambda s: s[SID]):
                fh.write(
                    f"{s[SID]},{s[NAME]},{s[START] - origin:.7f},{s[END] - origin:.7f},"
                    f"{own[s[SID]]:.7f},{s[PARENT]},{s[RUN]},{s[CALLS]},"
                    f"{'' if s[LEVEL] is None else s[LEVEL]},"
                    f"{'' if s[OUTCOME] is None else int(s[OUTCOME])}\n"
                )
