"""Spans around the calls into chowdefect's modules, recorded from outside the program.

The tracer replaces module attributes by name with wrappers that open a
span on entry and close it on exit; `restore` puts the originals back.
A name that no longer exists is recorded in `absent` and skipped, so a
change that deletes a code path does not break the benchmark: the time
it took simply stays in its caller's self time.

Spans live in one list until the run ends.  Each is
[name, stmt, phase, parent, start, end, child_s, info]: `stmt` and
`phase` are whatever the benchmark set before the root call, `parent`
indexes the enclosing span (-1 for a root), `child_s` sums the
durations of direct children and `info` holds counts taken at the span.
Calls are single threaded and strictly nested, so a span's self time is
its duration minus `child_s`.
"""

from __future__ import annotations

import functools
import inspect
import time

NAME, STMT, PHASE, PARENT, START, END, CHILD_S, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stmt: str | None = None
        self.phase: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.stmt, self.phase, parent, time.perf_counter(), None, 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, info: dict | None = None) -> None:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span[END] = end
        span[INFO] = info
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += end - span[START]

    @staticmethod
    def self_s(span: list) -> float:
        return span[END] - span[START] - span[CHILD_S]

    # -- patching by name

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original), or record it as absent."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrapper factories for patch()

    def calls(self, name: str, count=None):
        """One span per call; count(result) -> dict is stored as the span's info."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                info = None
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        info = count(result)
                    return result
                finally:
                    self._close(idx, info)

            return wrapper

        return make

    def pulls(self, name: str):
        """For a function returning an iterator of column blocks: one span per block pulled."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._pull_spans(name, iter(fn(*args, **kwargs)))

            return wrapper

        return make

    def _pull_spans(self, name: str, blocks):
        while True:
            idx = self._open(name)
            try:
                block = next(blocks)
            except StopIteration:
                self._close(idx)
                return
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, {"columns": int(block.shape[1])})
            yield block

    def rank_calls(self, name: str):
        """For rank_from_column_blocks: one span per call, with counts taken
        through its public progress hook.

        Per block the hook reports (done, total, rank); clearing that block
        cost 2 * n_rows * rank_before * width flops.  The caller's own hook,
        if any, still runs.  Without a `progress` parameter only the time is
        recorded.
        """

        def make(fn):
            sig = inspect.signature(fn)
            hooked = {"n_rows", "progress"} <= sig.parameters.keys()
            if not hooked:
                self.absent.append(f"{fn.__module__}.{fn.__name__}(progress)")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                info = {"flop": 0, "done": 0, "rank_before": 0}
                if hooked:
                    bound = sig.bind(*args, **kwargs)
                    n_rows = bound.arguments["n_rows"]
                    user_hook = bound.arguments.get("progress")

                    def hook(done, total, rank):
                        info["flop"] += 2 * n_rows * info["rank_before"] * (done - info["done"])
                        info["done"] = done
                        info["rank_before"] = rank
                        if user_hook is not None:
                            user_hook(done, total, rank)

                    bound.arguments["progress"] = hook
                    args, kwargs = bound.args, bound.kwargs
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                    info["rank"] = int(result)
                    return result
                finally:
                    self._close(idx, info)

            return wrapper

        return make
