"""In-memory perf_counter_ns spans around mvamp's layer functions.

The tracer replaces a function in every mvamp module that looks it up by
name (and a handle method on its class), so calls made inside the package
pass through a span. Nothing in the package changes on disk, no RNG is
touched and no ledger is charged: a traced campaign must reproduce the
untraced one exactly, which the benchmark checks.

A span's self time is its duration minus the durations of the spans it
directly encloses. Spans are aggregated per name as they close.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from mvamp.oracle import MatrixOracleHandle, VectorOracleHandle

# int64 kernels are exact while n_terms * (p - 1)^2 stays below this.
INT64_LIMIT = 2**63

# layer -> (defining module, public functions that layer exposes)
FUNCTION_LAYERS = {
    "oracle.build": (
        "mvamp.oracle",
        (
            "wrap_matrix", "wrap_vector", "concat_rows", "concat_cols", "concat_vectors",
            "embed_block_matrix", "extract_block", "extract_submatrix", "extract_submatrix_cols",
            "extract_subvector", "pad_square_matrix", "pad_vector", "sum_vector_oracles",
        ),
    ),
    "linalg.kernel": ("mvamp.linalg", ("matvec_values", "vecmat_values", "dot_values")),
    "linalg.sample": ("mvamp.linalg", ("random_matrix", "random_vector")),
    "solver.invoke": ("mvamp.solver", ("invoke",)),
    "verify": ("mvamp.verify", ("verify_product", "verified_call")),
    "reduction.strip": ("mvamp.reduction", ("solve_strip",)),
    "reduction.split": ("mvamp.reduction", ("solve_strip_any_matrix", "solve_block_any_input")),
    "reduction.block": ("mvamp.reduction", ("solve_block",)),
    "reduction.assembly": ("mvamp.reduction", ("worst_case_matvec", "boost")),
}
READ_METHODS = (
    (MatrixOracleHandle, "read_all"),
    (MatrixOracleHandle, "to_matrix"),
    (VectorOracleHandle, "read_all"),
    (VectorOracleHandle, "to_vector"),
)


def _terms(name: str, args) -> int:
    """Length of the sums a kernel call forms, from its arguments."""
    if name == "matvec_values":
        return args[0].shape[1]
    if name == "vecmat_values":
        return args[1].shape[0]
    return args[0].shape[0]


class Tracer:
    """Aggregated spans: calls, total and self nanoseconds per span name."""

    def __init__(self):
        self._stack: list = []
        self.layer_of: dict = {}
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.events: Counter = Counter()

    def wrap(self, layer: str, name: str, fn, after=None):
        """Return fn inside a span; after(parent_layer, args, result) runs on return."""
        self.layer_of[name] = layer
        stack, calls, total_ns, self_ns = self._stack, self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                total_ns[name] += dur
                self_ns[name] += dur - frame[1]
                calls[name] += 1
            if after is not None:
                after(parent[0] if parent is not None else None, args, out)
            return out

        return span

    def _after(self, layer: str, attr: str):
        events = self.events
        if layer == "oracle.read":
            def count_entries(parent_layer, args, out):
                if parent_layer != "oracle.read":  # to_vector reads through read_all
                    events["entries_read"] += getattr(out, "values", out).size
            return count_entries
        if layer == "linalg.kernel":
            def count_fallback(parent_layer, args, out):
                if _terms(attr, args) * (args[-1] - 1) ** 2 >= INT64_LIMIT:
                    events["fallback_calls"] += 1
            return count_fallback
        if attr == "verify_product":
            def count_accept(parent_layer, args, out):
                events["verify_accepted"] += bool(out)
            return count_accept
        if attr == "solve_strip":
            def count_yield(parent_layer, args, out):
                events["strip_returned"] += out is not None
            return count_yield
        return None

    @contextmanager
    def installed(self):
        """Patch every lookup site of the traced functions; restore on exit."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "mvamp" or n.startswith("mvamp.")]
        try:
            for layer, (home, attrs) in FUNCTION_LAYERS.items():
                for attr in attrs:
                    orig = getattr(sys.modules[home], attr)
                    name = f"{home.split('.')[-1]}.{attr}"
                    wrapped = self.wrap(layer, name, orig, self._after(layer, attr))
                    for mod in modules:
                        if mod.__dict__.get(attr) is orig:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, orig))
            for cls, attr in READ_METHODS:
                orig = cls.__dict__[attr]
                name = f"oracle.{cls.__name__}.{attr}"
                setattr(cls, attr, self.wrap("oracle.read", name, orig, self._after("oracle.read", attr)))
                undo.append((cls, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for n, ns in self.self_ns.items() if self.layer_of[n] == layer) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in self.calls.items() if self.layer_of[n] == layer)

    def counts(self) -> dict:
        """Every count the trace took; equal across repeats of one campaign."""
        return {**{f"calls:{n}": c for n, c in self.calls.items()}, **dict(self.events)}

    def table(self) -> str:
        lines = [f"{'span':44} {'layer':20} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for name in sorted(self.calls, key=lambda n: -self.self_ns[n]):
            lines.append(
                f"{name:44} {self.layer_of[name]:20} {self.calls[name]:>10} "
                f"{self.total_ns[name] / 1e9:>10.4f} {self.self_ns[name] / 1e9:>10.4f}"
            )
        return "\n".join(lines)


def layer_metrics(tracer: Tracer, totals: dict) -> dict:
    """Per-layer values of one traced campaign; totals are its StageStats sums."""
    invokes = tracer.calls["solver.invoke"]
    verifies = tracer.calls["verify.verify_product"]
    return {
        "oracle.build_s": (tracer.layer_self_s("oracle.build"), "s"),
        "oracle.handles_built": (tracer.layer_calls("oracle.build"), "count"),
        "oracle.read_s": (tracer.layer_self_s("oracle.read"), "s"),
        "oracle.entries_read": (tracer.events["entries_read"], "count"),
        "solver.invoke_self_s": (tracer.layer_self_s("solver.invoke"), "s"),
        "solver.invoke_calls": (invokes, "count"),
        "solver.us_per_invoke": (tracer.total_ns["solver.invoke"] / 1e3 / invokes, "us"),
        "verify.self_s": (tracer.layer_self_s("verify"), "s"),
        "verify.calls": (verifies, "count"),
        "verify.accept_ratio": (tracer.events["verify_accepted"] / verifies, "ratio"),
        "linalg.kernel_s": (tracer.layer_self_s("linalg.kernel"), "s"),
        "linalg.kernel_calls": (tracer.layer_calls("linalg.kernel"), "count"),
        "linalg.fallback_calls": (tracer.events["fallback_calls"], "count"),
        "linalg.sample_s": (tracer.layer_self_s("linalg.sample"), "s"),
        "reduction.strip_self_s": (tracer.layer_self_s("reduction.strip"), "s"),
        "reduction.split_self_s": (tracer.layer_self_s("reduction.split"), "s"),
        "reduction.block_self_s": (tracer.layer_self_s("reduction.block"), "s"),
        "reduction.assembly_self_s": (tracer.layer_self_s("reduction.assembly"), "s"),
        "reduction.stage1_attempts": (totals["stage1_iters"], "count"),
        "reduction.strip_solves": (tracer.calls["reduction.solve_strip"], "count"),
        "reduction.strip_yield": (tracer.events["strip_returned"] / totals["stage1_iters"], "ratio"),
        "reduction.block_iters_per_solve": (
            totals["stage3_iters"] / tracer.calls["reduction.solve_block"], "ratio"
        ),
        "harness.build_s": (tracer.layer_self_s("harness.build"), "s"),
    }
