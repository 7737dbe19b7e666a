"""Spans recorded from outside prymlab, around calls to its public functions.

`Tracer.install` rebinds a library function, in every loaded prymlab module
that holds it, to a wrapper that records one span per call; `uninstall` puts
the originals back.  The library itself is not edited: calls between modules
go through module globals, so rebinding the global catches them at the layer
boundary.  Spans stay in memory until `write` is called at the end of a run.

A span is [name, detail, start_ns, end_ns, parent_index]; parent_index is -1
for a root.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, detail=None) -> Iterator[None]:
        index = self._open(name, detail)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, detail) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, detail, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = time.perf_counter_ns()

    def _wrap(self, fn: Callable, label: Callable) -> Callable:
        def traced(*args, **kwargs):
            name, detail = label(args, kwargs)
            index = self._open(name, detail)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def install(self, module_name: str, function: str,
                label: Optional[Callable] = None) -> None:
        """Trace prymlab.<module_name>.<function> wherever prymlab binds it.

        `label(args, kwargs)` returns (span name, detail); by default the name
        is "<module_name>.<function>" with no detail.
        """
        original = getattr(sys.modules[f"prymlab.{module_name}"], function)
        if label is None:
            fixed = (f"{module_name}.{function}", None)
            label = lambda args, kwargs: fixed  # noqa: E731
        wrapper = self._wrap(original, label)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "prymlab" and not mod_name.startswith("prymlab."):
                continue
            if vars(module).get(function) is original:
                setattr(module, function, wrapper)
                self._patched.append((module, function, original))

    def uninstall(self) -> None:
        for module, function, original in reversed(self._patched):
            setattr(module, function, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def inclusive_ms(self) -> Dict[str, float]:
        """Total duration per name, counting only the outermost span of a name."""
        out: Dict[str, float] = {}
        spans = self.spans
        for name, _detail, start, end, parent in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][4]
            if parent < 0:
                out[name] = out.get(name, 0.0) + (end - start) / 1e6
        return out

    def self_ms(self) -> Dict[str, float]:
        """Total self time per name."""
        child_ns = [0] * len(self.spans)
        for _name, _detail, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = {}
        for (name, _detail, start, end, _parent), inner in zip(self.spans, child_ns):
            out[name] = out.get(name, 0.0) + (end - start - inner) / 1e6
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def max_ms(self, name: str) -> float:
        return max(
            ((end - start) / 1e6 for n, _d, start, end, _p in self.spans if n == name),
            default=0.0,
        )

    def write(self, path) -> None:
        """One JSON line per span: [index, parent, name, detail, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, detail, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, detail, start, end]) + "\n")
