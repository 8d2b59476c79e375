"""Outside-in span recording for the traced benchmark run.

Wrappers are set on the library's module attributes (and on a few class
attributes) for the length of the traced phase and removed afterwards.
Every wrapped call records one span:

    [name, start_ns, end_ns, parent, op, attrs]

`parent` is the index of the enclosing span (-1 for none) and `op` the id
of the benchmark op the span belongs to. Spans stay in memory until the
run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

MARK = "__bench_span_wrapper__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.max_qubits = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, attrs) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = attrs
        self._stack.pop()

    @contextmanager
    def op_span(self, op: int):
        """Root span of one benchmark op; spans opened inside carry its id."""
        self.op = op
        idx = self._enter("bench.op")
        try:
            yield
        finally:
            self._exit(idx, None)
            self.op = None

    def wrap(self, fn, name, attrs=None):
        """Return `fn` recording a span per call. `name` is a string or a
        function of the call's positional arguments; `attrs(args, result)`
        returns the span's attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, None)
                raise
            self._exit(idx, attrs(args, result) if attrs else None)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_qubits(self, init):
        """Wrap a state constructor to keep the largest register built
        inside an op."""

        @functools.wraps(init)
        def wrapper(state, *args, **kwargs):
            init(state, *args, **kwargs)
            if self.op is not None and state.num_qubits > self.max_qubits:
                self.max_qubits = state.num_qubits

        setattr(wrapper, MARK, True)
        return wrapper

    # --- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, targets, state_class) -> None:
        """targets: (owner, attribute, span name, attrs function) tuples."""
        for owner, attr, name, attrs in targets:
            self._replace(owner, attr, self.wrap(vars(owner)[attr], name, attrs))
        self._replace(state_class, "__init__",
                      self._count_qubits(vars(state_class)["__init__"]))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "attrs": attrs}) + "\n")


def leftover_wrappers(modules) -> list[str]:
    """Names of span wrappers still set on the modules or their classes."""
    found = []
    for mod in modules:
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
