"""Spans around the public functions of each ``cnzsynth`` module.

The program is not edited: ``install`` swaps the module attributes that hold
a traced function (in its own module and in every module that imported it
by name, such as ``cnzsynth.simulator.validate``) for a wrapper that records
a span, and ``uninstall`` puts the originals back. Spans live in memory and
are written out once, when the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _text_bytes(text) -> int:
    return len(text.encode("utf-8"))


def _branch_attrs(args, kwargs, records) -> dict:
    return {
        "records": len(records),
        "bytes": sum(r.final_state.nbytes for r in records),
        "nonzero": sum(int(np.count_nonzero(r.final_state)) for r in records),
        "amplitudes": sum(r.final_state.size for r in records),
    }


def _verdict_attrs(args, kwargs, verdict) -> dict:
    groups = len(verdict.branch_reports)
    return {"groups": groups, "group_bytes": groups * 4 ** len(args[0].data_qubits) * 16}


#: (defining module, function, recorder of per-call counts from args and result)
TARGETS = (
    ("cnzsynth.circuit", "validate", None),
    ("cnzsynth.synthesis", "synth_cnz", lambda a, k, r: {"ops": len(r.ops)}),
    ("cnzsynth.resources", "count", None),
    ("cnzsynth.codec", "parse_text", lambda a, k, r: {"bytes": _text_bytes(a[0])}),
    ("cnzsynth.codec", "emit_text", lambda a, k, r: {"bytes": _text_bytes(r)}),
    ("cnzsynth.codec", "parse_quirk_url", lambda a, k, r: {"bytes": _text_bytes(a[0])}),
    ("cnzsynth.codec", "export_quirk_url", lambda a, k, r: {"bytes": _text_bytes(r)}),
    ("cnzsynth.simulator", "run_branches", _branch_attrs),
    ("cnzsynth.verify", "check_implements", _verdict_attrs),
    ("cnzsynth.cli", "main", None),
)


class Tracer:
    """Records spans (name, start, end, parent) and per-call counts.

    ``overhead_s`` accumulates the time the wrappers spend outside the
    wrapped call, including the count recorders; the fixed cost of entering
    a wrapper is calibrated once and added per span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.overhead_s = 0.0
        self.entry_cost_s = self._calibrate()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self._stack.append(idx)
        return idx

    @contextmanager
    def root(self, name: str):
        """A root span (``setup`` or ``pass``) around the calls made inside it."""
        idx = self._open(name)
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, recorder=None):
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if recorder is not None:
                self.attrs[idx] = recorder(args, kwargs, result)
            self.overhead_s += (t0 - entered) + (time.perf_counter() - t1)
            return result

        return traced

    def _calibrate(self, calls: int = 20000) -> float:
        """Per-call cost of a wrapper beyond what it measures itself."""
        def noop():
            return None

        traced = self.wrap("calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - t0
        unmeasured = wrapped - bare - self.overhead_s
        for seq in (self.names, self.start, self.end, self.parent, self.attrs):
            seq.clear()
        self.overhead_s = 0.0
        return max(0.0, unmeasured / calls)

    def install(self) -> None:
        """Wrap every target of a loaded module wherever a ``cnzsynth`` module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cnzsynth" or name.startswith("cnzsynth.")]
        for module_name, func, recorder in TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], func)
            traced = self.wrap(f"{module_name.split('.')[1]}.{func}", original, recorder)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans_overhead_s(self) -> float:
        return self.overhead_s + self.entry_cost_s * len(self.names)

    def summarize(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root kind, per span name: calls, total and self seconds, summed counts."""
        root = []
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            root.append(self.names[i] if p < 0 else root[p])
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, name in enumerate(self.names):
            if self.parent[i] < 0:
                continue
            row = out[root[i]][name]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[i]
            for key, value in (self.attrs[i] or {}).items():
                row[key] += value
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": None if self.parent[i] < 0 else self.parent[i],
                    **(self.attrs[i] or {}),
                }) + "\n")
