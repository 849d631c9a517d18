"""Spans around the engine's layer boundaries, for the traced benchmark run.

`Tracer.install()` wraps public functions of the engine at every module
attribute through which callers look them up (for example
`monogenic.hwv.penrose_transform` and `monogenic.dirac.matrix_rank`), so no
file under `src/` changes.  Each call becomes one span: name, start, end,
parent span, operation id and a few exact counts.  `LaurentPoly.__mul__` is
counted (calls and term pairs) but not spanned: it runs far more often than
anything else and its time stays in the self time of its caller.

Spans are kept in memory and written out when the run ends; `layer_metrics`
turns the spans of one or more processes into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def _cells(args, kwargs, result):
    rows = args[0]
    n_cols = kwargs.get("n_cols", args[1] if len(args) > 1 else None)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    return {"cells": len(rows) * n_cols, "cols": n_cols, "out": len(result) if isinstance(result, list) else result}


def _terms_out(args, kwargs, result):
    terms = result.terms if hasattr(result, "terms") else result.body.terms
    return {"terms": len(terms)}


def _transform_io(args, kwargs, result):
    body = args[0].body
    key = hashlib.sha1(repr(sorted(body.terms.items())).encode()).hexdigest()
    return {
        "key": key,
        "kept": sum(len(p.terms) for p in result.components),
    }


def _count(args, kwargs, result):
    return {"out": len(result)}


# (span name, module, attribute, attrs recorder); the module is imported lazily.
LAYERS = (
    ("laurent.substitute", "monogenic.laurent", "LaurentPoly.substitute", _terms_out),
    ("laurent.matrix_rank", "monogenic.laurent", "matrix_rank", _cells),
    ("laurent.exact_nullspace", "monogenic.laurent", "exact_nullspace", _cells),
    ("laurent.rref", "monogenic.laurent", "rref", None),
    ("charts.correspondence_substitution", "monogenic.charts", "correspondence_substitution", None),
    ("cochain.g0_action", "monogenic.cochain", "g0_action", _terms_out),
    ("transform.penrose_transform", "monogenic.transform", "penrose_transform", _transform_io),
    ("dirac.column_image", "monogenic.dirac", "_column_image", None),
    ("dirac.graded_kernel_dim", "monogenic.dirac", "graded_kernel_dim", None),
    ("dirac.apply_2dirac", "monogenic.dirac", "apply_2dirac", None),
    ("dirac.build_dirac", "monogenic.dirac", "build_dirac", None),
    ("hwv.hwv_complete", "monogenic.hwv", "hwv_complete", None),
    ("hwv.stacked_rows", "monogenic.hwv", "_stacked_rows", None),
    ("hwv.candidate_exponents", "monogenic.hwv", "candidate_exponents", _count),
    ("calibration.find_calibration", "monogenic.calibration", "find_calibration", None),
    ("calibration.third_item_discrepancy", "monogenic.calibration", "third_item_discrepancy", None),
    ("expr.parse_section", "monogenic.expr", "parse_section", None),
    ("expr.parse_spinor", "monogenic.expr", "parse_spinor", None),
    ("cli.emit", "monogenic.cli", "_emit", None),
)


# The per-layer metrics, in report order (run.py adds trace.overhead_s).
PER_LAYER = (
    "laurent.mul.calls", "laurent.mul.term_pairs",
    "laurent.substitute.calls", "laurent.substitute.self_s", "laurent.substitute.terms_out",
    "laurent.matrix_rank.calls", "laurent.matrix_rank.self_s", "laurent.matrix_rank.cells",
    "laurent.exact_nullspace.calls", "laurent.exact_nullspace.self_s", "laurent.exact_nullspace.cells",
    "laurent.rref.calls", "laurent.rref.self_s",
    "charts.correspondence_substitution.first_s",
    "cochain.g0_action.calls", "cochain.g0_action.self_s", "cochain.g0_action.terms_out",
    "transform.penrose_transform.calls", "transform.penrose_transform.self_s",
    "transform.distinct_ratio", "transform.residue_yield",
    "transform.residue_terms", "transform.integrand_terms",
    "dirac.column_image.calls", "dirac.column_image.self_s", "dirac.graded_kernel_dim.self_s",
    "dirac.blocks", "dirac.block_cols_max",
    "dirac.apply_2dirac.calls", "dirac.apply_2dirac.self_s", "dirac.build_dirac.self_s",
    "hwv.hwv_complete.calls", "hwv.hwv_complete.self_s", "hwv.stacked_rows.self_s",
    "hwv.candidates", "hwv.solution_dim", "hwv.trivial_dim",
    "calibration.find_calibration.s", "calibration.third_item_discrepancy.s",
    "cli.import_s", "expr.parse.s", "cli.emit.s",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op = None
        self.enabled = True  # off while the benchmark checks answers
        self.mul_calls = 0
        self.mul_term_pairs = 0
        self.import_s = 0.0

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever a loaded engine module binds it."""
        import monogenic  # noqa: F401  (loads the package and its modules)
        from monogenic.laurent import LaurentPoly

        engine = [m for n, m in sys.modules.items() if n == "monogenic" or n.startswith("monogenic.")]
        for name, module_name, attribute, attrs in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:  # monogenic.cli is only loaded by the CLI
                continue
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), attrs))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, attrs)
            for mod in engine:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        original_mul = LaurentPoly.__mul__

        def mul(left, right):
            if self.enabled and isinstance(right, LaurentPoly):
                self.mul_calls += 1
                self.mul_term_pairs += len(left.terms) * len(right.terms)
            return original_mul(left, right)

        LaurentPoly.__mul__ = mul

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "mul_calls": self.mul_calls,
            "mul_term_pairs": self.mul_term_pairs,
            "import_s": self.import_s,
        }


def write_spans(path, processes: list[dict]) -> None:
    """One JSON line per span: process, name, start, end, parent, op, attrs."""
    with open(path, "w") as out:
        for proc, dump in enumerate(processes):
            for name, start, end, parent, op, attrs in dump["spans"]:
                out.write(json.dumps([proc, name, start, end, parent, op, attrs]) + "\n")


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Aggregate the span dumps of one or more processes into per-layer metrics."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    m = {
        "laurent.mul.calls": 0,
        "laurent.mul.term_pairs": 0,
        "laurent.substitute.terms_out": 0,
        "laurent.matrix_rank.cells": 0,
        "laurent.exact_nullspace.cells": 0,
        "charts.correspondence_substitution.first_s": 0.0,
        "cochain.g0_action.terms_out": 0,
        "transform.integrand_terms": 0,
        "transform.residue_terms": 0,
        "dirac.blocks": 0,
        "dirac.block_cols_max": 0,
        "hwv.candidates": 0,
        "hwv.solution_dim": 0,
        "hwv.trivial_dim": 0,
        "cli.import_s": 0.0,
    }
    distinct: set[str] = set()
    for dump in processes:
        spans = dump["spans"]
        m["laurent.mul.calls"] += dump["mul_calls"]
        m["laurent.mul.term_pairs"] += dump["mul_term_pairs"]
        m["cli.import_s"] += dump["import_s"]
        child_s = [0.0] * len(spans)
        nullspaces_seen: dict[int, int] = {}
        first_substitution = True
        for _name, start, end, parent, _op, _attrs in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, parent, _op, attrs) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_s[index]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "laurent.substitute":
                m["laurent.substitute.terms_out"] += attrs["terms"]
                if parent_name == "transform.penrose_transform":
                    m["transform.integrand_terms"] += attrs["terms"]
            elif name == "laurent.matrix_rank":
                m["laurent.matrix_rank.cells"] += attrs["cells"]
                if parent_name == "dirac.graded_kernel_dim":
                    m["dirac.blocks"] += 1
                    m["dirac.block_cols_max"] = max(m["dirac.block_cols_max"], attrs["cols"])
            elif name == "laurent.exact_nullspace":
                m["laurent.exact_nullspace.cells"] += attrs["cells"]
                if parent_name == "hwv.hwv_complete":
                    # hwv_complete solves the raising system first, then the class system.
                    seen = nullspaces_seen.get(parent, 0)
                    nullspaces_seen[parent] = seen + 1
                    key = "hwv.solution_dim" if seen == 0 else "hwv.trivial_dim"
                    m[key] += attrs["out"]
            elif name == "charts.correspondence_substitution" and first_substitution:
                m["charts.correspondence_substitution.first_s"] += duration
                first_substitution = False
            elif name == "cochain.g0_action":
                m["cochain.g0_action.terms_out"] += attrs["terms"]
            elif name == "transform.penrose_transform":
                distinct.add(attrs["key"])
                m["transform.residue_terms"] += attrs["kept"]
            elif name == "hwv.candidate_exponents" and parent_name == "hwv.hwv_complete":
                m["hwv.candidates"] += attrs["out"]

    for layer in ("laurent.substitute", "laurent.matrix_rank", "laurent.exact_nullspace",
                  "laurent.rref", "cochain.g0_action", "transform.penrose_transform",
                  "dirac.column_image", "dirac.apply_2dirac", "hwv.hwv_complete"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in ("laurent.substitute", "laurent.matrix_rank", "laurent.exact_nullspace",
                  "laurent.rref", "cochain.g0_action", "transform.penrose_transform",
                  "dirac.column_image", "dirac.apply_2dirac", "hwv.hwv_complete",
                  "dirac.graded_kernel_dim", "dirac.build_dirac", "hwv.stacked_rows"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for metric, layers in (
        ("calibration.find_calibration.s", ("calibration.find_calibration",)),
        ("calibration.third_item_discrepancy.s", ("calibration.third_item_discrepancy",)),
        ("expr.parse.s", ("expr.parse_section", "expr.parse_spinor")),
        ("cli.emit.s", ("cli.emit",)),
    ):
        m[metric] = sum(total_s.get(layer, 0.0) for layer in layers)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    m["transform.distinct_ratio"] = ratio(len(distinct), m["transform.penrose_transform.calls"])
    m["transform.residue_yield"] = ratio(m["transform.residue_terms"], m["transform.integrand_terms"])
    return {name: m[name] for name in PER_LAYER}
