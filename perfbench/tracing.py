"""In-memory spans around ncphase's public functions.

``Tracer.installed()`` wraps every public module-level function of the
layers listed in ``LAYERS`` and rebinds the wrapper under every name that
holds the original in any loaded ``ncphase`` module, so a call made through
a name bound by ``from .fock import spectrum`` (as ``cli`` does) is traced
too.  Each span records (name, start, end, parent, op); ``op`` is the index
of the benchmark operation that was running, so the spans of one operation
share it.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("parsing", "algebra", "maps", "symmetry", "hamiltonian", "fock", "uncertainty", "cli")

# Per-symbol helpers called inside normal ordering's inner loop, millions of
# times per pass; a span around each would cost more than the work it times.
UNWRAPPED = frozenset({"algebra.rank", "algebra.generator_alphabet", "algebra.powers_of"})

# Entries below this share of a matrix's largest entry do not count as
# nonzero, so the count does not depend on roundoff in cancelling sums.
NNZ_RELATIVE_FLOOR = 1e-12

# Per-layer metrics: name -> (unit, better).  "_s" metrics are inclusive
# time of the outermost spans of that function, except the cli ones, which
# are self time (argument handling and output formatting).
PER_LAYER = {
    "fock.evaluate_s": ("s", "lower"),
    "fock.evaluate_calls": ("count", "lower"),
    "fock.diagonalize_s": ("s", "lower"),
    "fock.classify_s": ("s", "lower"),
    "fock.classified_ratio": ("ratio", "higher"),
    "fock.unclassified": ("count", "lower"),
    "fock.level_table_csv_s": ("s", "lower"),
    "fock.dimension": ("count", "lower"),
    "fock.matrix_nnz": ("count", "lower"),
    "cli.cmd_spectrum_s": ("s", "lower"),
    "cli.cmd_sweep_s": ("s", "lower"),
    "cli.cmd_verify_s": ("s", "lower"),
    "hamiltonian.build_hamiltonian_s": ("s", "lower"),
    "maps.substitute_s": ("s", "lower"),
    "maps.substitute_terms_out": ("count", "lower"),
    "algebra.normal_order_s": ("s", "lower"),
    "algebra.normal_order_calls": ("count", "lower"),
    "algebra.commutator_s": ("s", "lower"),
    "parsing.parse_s": ("s", "lower"),
    "symmetry.is_invariant_s": ("s", "lower"),
    "uncertainty.brute_force_min_product_s": ("s", "lower"),
    "uncertainty.scan_state_calls": ("count", "lower"),
    "uncertainty.expectation_calls": ("count", "lower"),
    "uncertainty.rho_inner_calls": ("count", "lower"),
    "uncertainty.rho_inner_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# The per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "fock.dimension",
    "fock.matrix_nnz",
    "uncertainty.rho_inner_calls",
    "algebra.normal_order_calls",
    "maps.substitute_terms_out",
)


def _observe_matrix(matrix, counts: Counter) -> None:
    dimension = matrix.shape[0]
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    nnz = int(np.count_nonzero(np.abs(matrix) > NNZ_RELATIVE_FLOOR * scale))
    counts["fock.dimension"] = max(counts["fock.dimension"], dimension)
    counts["fock.matrix_nnz"] = max(counts["fock.matrix_nnz"], nnz)


def _observe_table(table, counts: Counter) -> None:
    counts["fock.classified_rows"] += len(table.rows)
    counts["fock.unclassified"] += len(table.unclassified)


def _observe_substitution(expression, counts: Counter) -> None:
    counts["maps.substitute_terms_out"] += len(expression.terms)


OBSERVERS = {
    "fock.evaluate": _observe_matrix,
    "fock.classify": _observe_table,
    "maps.substitute": _observe_substitution,
}


class Tracer:
    """Records spans and counts while installed; the spans stay in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        observer = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, self.op])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            if observer is not None:
                # Booked as a child span, so it leaves the parents' self time.
                observed = clock()
                observer(result, self.counts)
                spans.append(["trace.observe", observed, clock(), parent, self.op])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ncphase.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        patches = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "ncphase" or module_name.startswith("ncphase.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    namespace[attr] = entry[1]
                    patches.append((namespace, attr, value))
        try:
            yield self
        finally:
            for namespace, attr, value in patches:
                namespace[attr] = value


def inclusive_times(spans: list) -> Counter:
    """Summed duration of each name's spans that have no same-name ancestor."""
    totals: Counter = Counter()
    for name, start, end, parent, _op in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] += end - start
    return totals


def self_times(spans: list) -> Counter:
    """Summed duration of each name's spans minus their direct children."""
    totals: Counter = Counter()
    for name, start, end, _parent, _op in spans:
        totals[name] += end - start
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            totals[spans[parent][0]] -= end - start
    return totals


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Every per-layer metric except trace.overhead_ratio, from one traced pass."""
    inclusive, own = inclusive_times(spans), self_times(spans)
    calls = Counter(span[0] for span in spans)
    metrics = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_ratio":
            continue
        if metric.endswith("_s"):
            name = metric[: -len("_s")]
            metrics[metric] = own[name] if name.startswith("cli.") else inclusive[name]
        elif metric.endswith("_calls"):
            metrics[metric] = calls[metric[: -len("_calls")]]
        elif metric == "fock.classified_ratio":
            pairs = counts["fock.classified_rows"] + counts["fock.unclassified"]
            metrics[metric] = counts["fock.classified_rows"] / pairs if pairs else 0.0
        else:
            metrics[metric] = counts[metric]
    return metrics
