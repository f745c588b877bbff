"""In-memory span tracer that wraps survtree's functions from the outside.

`Tracer.install()` replaces every public function of every survtree module
(and the CLI's command handlers) with a wrapper that records a span: name,
start, end and the enclosing span. The wrapper is bound wherever the
original is: in the defining module, in every module that imported it with
`from .x import y`, and in module-level dispatch tables such as
`cli._COMMANDS`, so no call goes around it. `uninstall()` puts the originals
back. Spans stay in flat arrays until `write()`; self time (span time minus
child spans) and call counts are summed as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "survtree"


def _metric_name(module_name: str, func_name: str) -> str:
    short = module_name[len(PACKAGE) + 1:]
    if short == "cli" and func_name.startswith("_cmd_"):
        return "cli." + func_name[len("_cmd_"):]
    return f"{short}.{func_name}"


def _traced_functions():
    """(metric name, function) for every public function survtree defines,
    plus the CLI command handlers."""
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith(PACKAGE + "."):
            continue
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module_name:
                continue
            if name.startswith("_") and not name.startswith("_cmd_"):
                continue
            yield _metric_name(module_name, name), obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, child seconds]
        self._fit_depth = 0
        self._patches: list[tuple[dict, object, object, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> list:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        index, child = frame
        self.span_start[index] = start
        self.span_end[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    def _wrap(self, name: str, func):
        name_id = self._name_id(name)
        observe = _OBSERVERS.get(name)
        is_fit = name == "partition.fit"
        perf_counter = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            if is_fit:
                self._fit_depth += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                if is_fit:
                    self._fit_depth -= 1
                self._close(frame, name, start, end)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Bind a tracing wrapper in place of every traced function."""
        if self._patches:
            return
        replacements = {id(func): (func, self._wrap(name, func)) for name, func in _traced_functions()}
        namespaces = [
            vars(module)
            for module_name, module in sys.modules.items()
            if module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
        ]
        tables = [
            value
            for ns in namespaces
            for key, value in ns.items()
            if isinstance(value, dict) and not key.startswith("__")
        ]
        for namespace in namespaces + tables:
            for key, value in list(namespace.items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    wrapper = replacements[id(value)][1]
                    self._patches.append((namespace, key, value, wrapper))
                    namespace[key] = wrapper
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            if self._fit_depth:
                self.counts["permstat.philox_streams"] += 1
            return philox(*args, **kwargs)

        self._patches.append((vars(np.random), "Philox", philox, counting_philox))
        vars(np.random)["Philox"] = counting_philox

    def uninstall(self) -> None:
        for namespace, key, original, wrapper in reversed(self._patches):
            if namespace[key] is wrapper:
                namespace[key] = original
        self._patches.clear()

    def write(self, path: str) -> None:
        """Every recorded span as CSV: span, parent, name, start_s, end_s
        (seconds from the first span's start)."""
        origin = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f}\n"
                )


# counters read from a traced call's arguments and result

def _observe_load_csv(counts, args, kwargs, result):
    dataset, dropped = result
    counts["data.rows_loaded"] += dataset.n
    counts["data.rows_dropped"] += dropped


def _observe_pvalue_montecarlo(counts, args, kwargs, result):
    counts["permstat.mc_replicates"] += int(args[3] if len(args) > 3 else kwargs["B"])


def _observe_fit(counts, args, kwargs, result):
    counts["partition.nodes"] += len(result.nodes)
    counts["partition.leaves"] += len(result.leaves())


def _observe_write_atomic(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["treedoc.bytes_written"] += len(text.encode("utf-8"))


_OBSERVERS = {
    "data.load_csv": _observe_load_csv,
    "permstat.pvalue_montecarlo": _observe_pvalue_montecarlo,
    "partition.fit": _observe_fit,
    "treedoc.write_atomic": _observe_write_atomic,
}
