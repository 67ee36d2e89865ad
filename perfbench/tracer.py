"""In-memory spans around functions that callers look up at call time.

A span is (name, start, end, parent); parent is the index of the span that
was open when this one started, or -1. Spans are kept in a list and
written out once, when the traced run ends. Single-threaded use only:
the traced run calls qdist with jobs=1, so no work leaves the process.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def timed(
        self,
        fn: Callable,
        name: str,
        skip: Callable[[tuple, dict], bool] | None = None,
        record: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """fn with a span around each call. Calls for which skip(args, kwargs)
        is true get no span; record(args, kwargs, result) runs after the span
        closes, so its cost falls into the caller's time, not fn's."""

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if record is not None:
                record(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iterator(self, fn: Callable, name: str) -> Callable:
        """For a generator function: one span around each step of the
        iteration, none while the caller holds the yielded item."""

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------------------

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        """Set a module attribute until restore()."""
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def patch_item(self, mapping: dict, key: Any, new: Any) -> None:
        """Set a dict entry until restore()."""
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ---------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, covered):
            out[name] += end - start - inner
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def inclusive_under(self, match: Callable[[str], bool], ancestor: str) -> float:
        """Summed duration of the outermost spans whose name matches and that
        run inside a span named `ancestor`."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if not match(name):
                continue
            inside = False
            p = parent
            while p >= 0:
                pname = self.spans[p][0]
                if match(pname):
                    break  # counted with its matching ancestor
                if pname == ancestor:
                    inside = True
                    break
                p = self.spans[p][3]
            if inside:
                total += end - start
        return total

    def covered(self) -> float:
        """Time inside any span: the summed duration of the outermost ones."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans], fh
            )
