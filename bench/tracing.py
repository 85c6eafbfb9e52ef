"""Per-layer tracing of the tautring modules, from outside the program.

`Tracer.install` replaces chosen functions with wrappers in every
tautring module namespace that holds them, which is where their callers
look them up; `Tracer.restore` puts the originals back.  Public
functions get spans (name, start, end, parent, command id); the hot
private helpers `_mul_monomials`, `_mono_pairing` and `_bareiss` are only
counted.  Work the tracer itself does after a call (sizing a Gram matrix,
reading Bareiss entry sizes) is recorded as a `trace.hook` span, so it is
charged to no layer's self time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "grammar", "kimura", "motives", "calculus", "algebra", "linalg")

# Every public function the CLI reaches that does real work gets a span, so
# that cli.main's self time is the CLI's own (parsing, rendering) and each
# layer's total covers its work; REPORTED below picks the ones reported singly.
SPANNED = {
    "cli": ("main",),
    "grammar": ("parse_class", "format_class"),
    "motives": (
        "compose", "tensor", "transpose", "act", "diagonal_class", "ck_projectors", "verify_ck",
        "small_diagonal", "verify_mck", "expand_diagonal_times_h", "solve_gamma3", "euler_char",
    ),
    "kimura": (
        "kimura_element", "falling_factorial_pairing", "verify_kimura_vanishing", "scan_injectivity",
    ),
    "calculus": ("integrate", "pullback", "pushforward", "pair", "gram", "is_zero_in_cohomology"),
    "algebra": ("multiply", "enumerate_basis"),
    "linalg": ("rank_kernel", "solve_linear"),
}

COUNTED = {
    "algebra": ("_mul_monomials",),
    "calculus": ("_mono_pairing",),
    "linalg": ("_bareiss",),
}

HOOK = "trace.hook"
SPAN_FIELDS = ("name", "start", "end", "parent", "cmd")


def _modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tautring" or name.startswith("tautring."))]


class Tracer:
    """Spans and counts of one traced replay; create, install, run, restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # SPAN_FIELDS, parent and cmd as indices (-1: none)
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.max_entry_bits = 0
        self.max_dim = 0
        self.cmd = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cmd]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                self._hook(after, args, result)
            return result

        return wrapper

    def _count(self, key: str, fn, after=None):
        """Count calls, and calls with a result other than None under
        `key` + ".nonzero"; `after` runs as a hook span."""
        counts = self.counts
        nonzero = key.removesuffix("calls") + "nonzero"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if result is not None:
                counts[nonzero] += 1
            if after is not None:
                self._hook(after, args, result)
            return result

        return wrapper

    def _hook(self, after, args, result) -> None:
        start = perf_counter()
        after(args, result)
        self.spans.append([HOOK, start, perf_counter(), self.stack[-1] if self.stack else -1, self.cmd])

    # -- what the hooks measure -------------------------------------------

    def _matrix(self, matrix) -> None:
        self.counts["linalg.cells"] += matrix.rows * matrix.cols
        self.max_dim = max(self.max_dim, matrix.rows, matrix.cols)

    def _after_rank_kernel(self, args, result) -> None:
        self._matrix(args[0])
        self.counts["linalg.kernel_vectors"] += len(result[1])

    def _after_solve_linear(self, args, result) -> None:
        self._matrix(args[0])

    def _after_bareiss(self, args, result) -> None:
        rows = args[0]
        bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    def _after_gram(self, args, result) -> None:
        entries = result.gram.entries
        self.counts["calculus.gram_entries"] += result.gram.rows * result.gram.cols
        self.counts["calculus.gram_nonzero"] += sum(1 for row in entries for v in row if v)

    def _after_enumerate_basis(self, args, result) -> None:
        self.counts["algebra.basis_monomials"] += len(result)

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded tautring module that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import tautring.cli  # noqa: F401  (loads every layer)

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"tautring.{layer}"]
            for fname in SPANNED.get(layer, ()):
                fn = getattr(mod, fname)
                after = getattr(self, f"_after_{fname}", None)
                wrappers[id(fn)] = self._span(f"{layer}.{fname}", fn, after)
            for fname in COUNTED.get(layer, ()):
                fn, public = getattr(mod, fname), fname.lstrip("_")
                after = getattr(self, f"_after_{public}", None)
                wrappers[id(fn)] = self._count(f"{layer}.{public}.calls", fn, after)
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def per_function(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds); self time is a span's
        duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        return {name: (calls[name], self_s[name]) for name in calls}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer measures (see README.md)."""
        fns = self.per_function()
        out: dict[str, float] = {}
        for name in REPORTED:
            calls, self_s = fns.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS[1:]:  # cli.main is the only cli span
            out[f"{layer}.self_s"] = sum(s for name, (_, s) in fns.items()
                                         if name.startswith(layer + "."))
        c = self.counts
        out.update({
            "linalg.cells": c["linalg.cells"],
            "linalg.max_dim": self.max_dim,
            "linalg.max_entry_bits": self.max_entry_bits,
            "linalg.kernel_vectors": c["linalg.kernel_vectors"],
            "calculus.gram_entries": c["calculus.gram_entries"],
            "calculus.gram_nonzero_ratio": _ratio(c["calculus.gram_nonzero"], c["calculus.gram_entries"]),
            "calculus.mono_pairing.calls": c["calculus.mono_pairing.calls"],
            "algebra.basis_monomials": c["algebra.basis_monomials"],
            "algebra.mul_monomials.calls": c["algebra.mul_monomials.calls"],
            "algebra.mul_monomials.nonzero_ratio": _ratio(
                c["algebra.mul_monomials.nonzero"], c["algebra.mul_monomials.calls"]),
        })
        return out


# Spanned functions whose calls and self time are reported as metrics.
REPORTED = (
    "linalg.rank_kernel", "linalg.solve_linear",
    "calculus.gram", "calculus.is_zero_in_cohomology", "calculus.pair",
    "calculus.pullback", "calculus.pushforward",
    "algebra.enumerate_basis", "algebra.multiply",
    "kimura.verify_kimura_vanishing", "kimura.kimura_element", "kimura.scan_injectivity",
    "motives.compose", "motives.tensor", "motives.solve_gamma3",
    "grammar.format_class", "grammar.parse_class",
    "cli.main",
)


def _ratio(part: int, whole: int) -> float:
    """part / whole, or 0 where nothing was attempted."""
    return part / whole if whole else 0.0
