"""Span tracing of the library's layers, installed from outside the library.

The library imports across modules with ``from .x import f``, so wrapping a
function in its home module alone would miss calls made through the other
modules' own bindings.  ``Tracer.install`` therefore rebinds every attribute
of every loaded ``toricplex`` module that is the original function object,
and ``uninstall`` puts the originals back.

One span is recorded per wrapped call: name, start, end, parent span and the
query id shared by all spans of one query.  Spans are kept in flat arrays in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute) of every wrapped function; ``Class.method`` names a method.
TARGETS = (
    ("toricplex.exact.matrices", "snf_poly"),
    ("toricplex.exact.matrices", "snf_int"),
    ("toricplex.exact.matrices", "rank"),
    ("toricplex.exact.matrices", "row_echelon"),
    ("toricplex.simplicial", "SimplicialComplex.link"),
    ("toricplex.simplicial", "reduced_homology_integral"),
    ("toricplex.aomoto", "aomoto_betti_aah"),
    ("toricplex.aomoto", "aomoto_betti_direct"),
    ("toricplex.aomoto", "truncated_quotient"),
    ("toricplex.jumploci", "strata"),
    ("toricplex.zcover", "torsion_multiplicities"),
    ("toricplex.zcover", "free_ranks"),
    ("toricplex.zcover", "monodromy_trivial"),
    ("toricplex.zcover", "finite_dim_test"),
    ("toricplex.kernels", "fp_r"),
    ("toricplex.kernels", "finitely_presented"),
    ("toricplex.lieranks", "holonomy_dims"),
    ("toricplex.lieranks", "lcs_ranks"),
    ("toricplex.lieranks", "chen_ranks"),
)

# Functions whose first argument is a matrix: their ``cells`` stat counts its entries.
MATRIX_ARG = {"snf_poly", "snf_int", "rank", "row_echelon"}

# Unit of each per-layer stat, by the last part of the metric name.
STAT_UNITS = {"calls": "count", "self_s": "s", "cells": "count", "hit_ratio": "ratio",
              "cache_entries": "count", "evals_per_member": "evals/member",
              "empty_ratio": "ratio", "unknown_ratio": "ratio"}

QUERY = "query"   # the benchmark's root span around each query


def span_name(module: str, attr: str) -> str:
    """The module path without the package prefix, plus the function name."""
    short = module.removeprefix("toricplex.").replace("exact.matrices", "exact")
    return f"{short}.{attr.split('.')[-1]}"


class Tracer:
    def __init__(self):
        self.names = [QUERY] + [span_name(m, a) for m, a in TARGETS]
        self.name_col = array("b")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("l")
        self.query_col = array("l")
        self.cells = {}          # span name -> matrix entries passed in
        self.results = {}        # span name -> list of results kept for ratio stats
        self._stack = [-1]       # open spans; -1 is the root
        self._query = -1
        self._query_span = -1
        self._query_start = 0
        self._restore = []       # (owner, attribute, original)

    # -- recording --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1])
        self.query_col.append(self._query)
        self.start_col.append(0)
        self.end_col.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int) -> None:
        self._stack.pop()
        self.start_col[idx] = start
        self.end_col[idx] = end

    def begin_query(self, query_id: int) -> None:
        self._query = query_id
        self._query_span = self._open(0)
        self._query_start = perf_counter_ns()

    def end_query(self) -> None:
        self._close(self._query_span, self._query_start, perf_counter_ns())

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        count_cells = name.rsplit(".", 1)[1] in MATRIX_ARG
        keep = name in RESULT_STATS
        if count_cells:
            self.cells[name] = 0
        if keep:
            self.results[name] = []
        tracer = self

        def traced(*args, **kwargs):
            if count_cells:
                rows = args[0]
                tracer.cells[name] += len(rows) * len(rows[0]) if rows and rows[0] else 0
            idx = tracer._open(name_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, perf_counter_ns())
            if keep:
                tracer.results[name].append(RESULT_STATS[name](result))
            return result

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "toricplex" or key.startswith("toricplex."))]
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_col)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer stats named ``<module>.<function>.<stat>``; call after
        ``uninstall``, so the cache statistics come from the originals."""
        n = len(self.name_col)
        names = self.name_col
        dur = array("q", map(int.__sub__, self.end_col, self.start_col))
        child = array("q", bytes(8 * n))
        calls = [0] * len(self.names)
        evals_in_strata = 0
        strata_id = self.names.index("jumploci.strata")
        aah_id = self.names.index("aomoto.aomoto_betti_aah")
        for k in range(n):
            calls[names[k]] += 1
            p = self.parent_col[k]
            if p >= 0:
                child[p] += dur[k]
                if names[k] == aah_id and names[p] == strata_id:
                    evals_in_strata += 1
        self_ns = [0] * len(self.names)
        for k in range(n):
            self_ns[names[k]] += dur[k] - child[k]
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_ns[i] / 1e9
            if name in self.cells:
                out[f"{name}.cells"] = self.cells[name]
        for name, cached in lru_caches().items():
            info = cached.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"{name}.cache_entries"] = info.currsize
        members = sum(self.results["jumploci.strata"])
        out["jumploci.strata.evals_per_member"] = evals_in_strata / members if members else 0.0
        out["zcover.torsion_multiplicities.empty_ratio"] = _ratio(
            self.results["zcover.torsion_multiplicities"])
        out["kernels.finitely_presented.unknown_ratio"] = _ratio(
            self.results["kernels.finitely_presented"])
        return out

    def write(self, path: Path) -> None:
        """Spans as little-endian int64 columns after a one-line JSON header."""
        cols = {"name": self.name_col, "start_ns": self.start_col, "end_ns": self.end_col,
                "parent": self.parent_col, "query": self.query_col}
        header = {"names": self.names, "count": len(self.name_col),
                  "columns": list(cols), "dtype": "<i8"}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in cols.values():
                data = array("q", col)
                if sys.byteorder != "little":
                    data.byteswap()
                data.tofile(fh)


def _ratio(pairs) -> float:
    num = sum(a for a, _ in pairs)
    den = sum(b for _, b in pairs)
    return num / den if den else 0.0


# Span name -> what each call's result contributes to the ratio stats:
# maximal members found; (Smith forms without torsion, Smith forms);
# (UNKNOWN verdicts, verdicts).
RESULT_STATS = {
    "jumploci.strata": lambda family: len(family.members),
    "zcover.torsion_multiplicities":
        lambda per_degree: (sum(1 for m in per_degree if not m), len(per_degree)),
    "kernels.finitely_presented": lambda report: (report.verdict == "UNKNOWN", 1),
}


def lru_caches() -> dict:
    """The library's lru-cached layers by span name (``aomoto_betti_aah``
    reads through the cache of ``_aah_table``)."""
    return {
        "simplicial.reduced_homology_integral":
            sys.modules["toricplex.simplicial"].reduced_homology_integral,
        "aomoto.aomoto_betti_aah": sys.modules["toricplex.aomoto"]._aah_table,
    }
