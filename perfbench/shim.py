"""In-memory span tracing of the package's layers, from outside the package.

Hooks replace public functions at their module attributes (or a class
method) with timing wrappers. Every call becomes one span: name, start,
end, parent span and operation id. A hook whose target no longer exists is
skipped, so its count reads 0 and the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

# (module, attribute or Class.method, span name). The package's harness
# binds its callees as globals of bnsl.bench and the CLI binds its own, so
# each binding is hooked separately and no call is counted twice.
HOOKS = (
    ("bnsl.learner", "learn_exact", "learner.learn"),
    ("bnsl.learner", "compute_local_scores", "scores.table"),
    ("bnsl.scores", "contingency", "dataset.contingency"),
    ("bnsl.regret", "RegretCache.get", "regret.get"),
    ("bnsl.bench", "learn_exact", "learner.learn"),
    ("bnsl.bench", "sample", "model.sample"),
    ("bnsl.bench", "fit_snml", "model.fit"),
    ("bnsl.bench", "fit_bpp", "model.fit"),
    ("bnsl.bench", "mean_test_loglik", "model.predict"),
    ("bnsl.bench", "to_cpdag", "structure.cpdag"),
    ("bnsl.bench", "cpdag_shd", "structure.cpdag"),
    ("bnsl.cli", "load_dataset", "dataset.load"),
    ("bnsl.cli", "learn_exact", "learner.learn"),
)


def _entry_count(table) -> int:
    """Families in a local-score table; 0 if the table type has no count."""
    try:
        return int(table.entry_count())
    except (AttributeError, TypeError):
        return 0


def _rows(args) -> int:
    try:
        return int(args[0].n_rows)
    except (AttributeError, IndexError, TypeError):
        return 0


# Counters kept at a hook, keyed by span name: (counter, f(args, result)).
COUNTERS = {
    "scores.table": ("scores.families", lambda args, out: _entry_count(out)),
    "dataset.contingency": ("dataset.rows_scanned",
                            lambda args, out: _rows(args)),
}


class Tracer:
    """Span recorder. Spans live in parallel lists until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[int, dict[str, int]] = {}
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                key, count = counter
                per_op = self.counters.setdefault(self.op, {})
                per_op[key] = per_op.get(key, 0) + count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name in hooks:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def summary(self, op: int) -> dict:
        """For one operation: per span name its calls, total and self
        seconds, plus the counters. Self time is a span's duration minus
        its direct children's."""
        out: dict[str, dict] = {}
        child_time: dict[int, float] = {}
        for i in range(len(self.names)):
            if self.ops[i] != op:
                continue
            d = self.ends[i] - self.starts[i]
            if self.parents[i] >= 0:
                child_time[self.parents[i]] = (
                    child_time.get(self.parents[i], 0.0) + d)
        for i in range(len(self.names)):
            if self.ops[i] != op:
                continue
            d = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child_time.get(i, 0.0)
        return {"spans": out, "counters": dict(self.counters.get(op, {}))}

    def dump(self, path: str) -> None:
        """Write all spans as columns; times are microseconds from the
        first span."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        code = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "spans": [[code[n], round((s - t0) * 1e6), round((e - t0) * 1e6),
                       p, o]
                      for n, s, e, p, o in zip(self.names, self.starts,
                                               self.ends, self.parents,
                                               self.ops)],
            "counters": self.counters,
            "missing_hooks": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
