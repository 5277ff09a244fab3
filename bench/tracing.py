"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the functions in ``LAYERS`` by rebinding every name
that refers to them: ``from .x import y`` binds a second name in the
importing module, so each ``higherlocal`` module is scanned for attributes
that are the original function, and class attributes are scanned for
methods (``TowerElement.__rmul__`` is ``__mul__``).  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited, and an untraced run never
calls ``install``.

Every wrapped call pushes a frame, so a layer's self time is its duration
minus the time of the wrapped calls nested in it.  Calls, work counts and
self time are summed per layer; coarse layers also keep one span record
(name, start, end, parent span, task id) for the spans file.  The hot
series layers keep sums only, since they run millions of times.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _nnz_rows(args, kwargs) -> int:
    rows = args[0] if args else kwargs["rows"]
    return sum(len(r) for r in rows)


def _nnz_columns(result) -> int:
    return sum(len(col) for col in result.columns)


def _term_pairs(args, kwargs) -> int:
    a, b = args[0], args[1]
    nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    return len(a.coeffs) * nb


# (layer, module, attribute, keep span records, work count before the call,
#  work count from the result)
LAYERS: Tuple[Tuple[str, str, str, bool, Optional[Callable], Optional[Callable]], ...] = (
    ("specfile.parse_specfile", "specfile", "parse_specfile", True, None, None),
    ("cli.run", "cli", "run", True, None, None),
    ("connection.check_flatness", "connection", "Connection.check_flatness", True, None, None),
    ("epsilon.epsilon_degree", "epsilon", "epsilon_degree", True, None, None),
    ("derham.cohomology_dims", "derham", "cohomology_dims", True, None, None),
    ("derham.induced_inner_connections", "derham", "induced_inner_connections", True, None, None),
    ("derham.check_multicomplex", "derham", "check_multicomplex", True, None, None),
    ("tate.reduce_outer_window", "tate", "reduce_outer_window", True, None, None),
    ("tate.operator_index", "tate", "operator_index", True, None, None),
    ("tate.realize_window", "tate", "realize_window", True, None, _nnz_columns),
    ("linalg.sparse_echelon", "linalg", "sparse_echelon", True, _nnz_rows, None),
    ("linalg.kernel_q", "linalg", "kernel_q", True, None, None),
    ("dmodule.find_cyclic_vector", "dmodule", "find_cyclic_vector", True, None, lambda result: 1),
    ("dmodule.to_scalar_operator", "dmodule", "to_scalar_operator", True, None, None),
    ("dmodule.newton_polygon", "dmodule", "newton_polygon", True, None, None),
    ("linalg.rank_kernel_det", "linalg", "rank_kernel_det", True, None, None),
    ("linalg.solve", "linalg", "solve", True, None, None),
    ("series.invert", "series", "TowerElement.invert", False, None, None),
    ("series.mul", "series", "TowerElement.__mul__", False, _term_pairs, None),
)

PACKAGE = "higherlocal"


def resolve(module: str, attr: str):
    """The original object behind ``module.attr`` (``attr`` may be Class.method)."""
    obj = sys.modules[f"{PACKAGE}.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(original) -> List[Tuple[object, str]]:
    """Every (namespace, name) in the package bound to ``original``."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
            elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        found.append((value, ckey))
    # a class reachable from several modules is listed once per module
    return list(dict.fromkeys(found))


class LayerStats:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Span recorder; spans and sums stay in memory until ``write_spans``."""

    def __init__(self):
        self.layers: Dict[str, LayerStats] = {name: LayerStats() for name, *_ in LAYERS}
        self.spans: List[list] = []  # [name, start, end, parent index, task id]
        self.task_id: Optional[str] = None
        self.candidates_tried = 0
        self.windows_realized = 0
        self._stack: List[list] = []  # frames: [time in child spans, record index]
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, layer, fn, keep, pre, post):
        stats = self.layers[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            rec = None
            if keep:
                rec = len(spans)
                spans.append([layer, 0.0, 0.0, parent, tracer.task_id])
            frame = [0.0, rec if keep else parent]
            if pre is not None:
                stats.work += pre(args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[rec][1] = t0
                    spans[rec][2] = t1
            if post is not None:
                stats.work += post(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_candidates(self, gen_fn):
        tracer = self

        def counted(*args, **kwargs):
            for cand in gen_fn(*args, **kwargs):
                tracer.candidates_tried += 1
                yield cand

        counted.__wrapped__ = gen_fn
        return counted

    def _count_windows(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "top")
            if mode == "bottom":
                tracer.windows_realized += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, original, replacement):
        for ns, name in bindings(original):
            self._saved.append((ns, name, original))
            setattr(ns, name, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module, attr, keep, pre, post in LAYERS:
                original = resolve(module, attr)
                wrapped = self._wrap(layer, original, keep, pre, post)
                if layer == "tate.realize_window":
                    wrapped = self._count_windows(wrapped)
                self._rebind(original, wrapped)
            self._rebind(
                resolve("dmodule", "_candidate_vectors"),
                self._count_candidates(resolve("dmodule", "_candidate_vectors")),
            )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            ns, name, original = self._saved.pop()
            setattr(ns, name, original)

    # -- results ----------------------------------------------------------------

    def per_layer(self, tasks: int, overhead: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics, normalized per traced task: {name: (value, unit)}."""
        L = self.layers
        per = 1.0 / tasks
        out: Dict[str, Tuple[float, str]] = {}

        def calls(layer):
            out[f"{layer}.calls"] = (L[layer].calls * per, "calls/task")

        def self_s(layer):
            out[f"{layer}.self_s"] = (L[layer].self_s * per, "s/task")

        calls("linalg.sparse_echelon")
        self_s("linalg.sparse_echelon")
        out["linalg.sparse_echelon.nnz_in"] = (L["linalg.sparse_echelon"].work * per, "nnz/task")
        self_s("linalg.kernel_q")
        calls("tate.realize_window")
        self_s("tate.realize_window")
        out["tate.realize_window.nnz_out"] = (L["tate.realize_window"].work * per, "nnz/task")
        calls("tate.operator_index")
        oi = L["tate.operator_index"].calls
        out["tate.operator_index.windows"] = (
            self.windows_realized / oi if oi else 0.0,
            "windows/call",
        )
        calls("series.mul")
        self_s("series.mul")
        out["series.mul.term_pairs"] = (L["series.mul"].work * per, "pairs/task")
        calls("series.invert")
        self_s("series.invert")
        for layer in ("linalg.rank_kernel_det", "linalg.solve"):
            calls(layer)
            self_s(layer)
        self_s("dmodule.find_cyclic_vector")
        out["dmodule.cyclic_candidates_tried"] = (self.candidates_tried * per, "candidates/task")
        accepted = L["dmodule.find_cyclic_vector"].work
        out["dmodule.cyclic_accept_ratio"] = (
            accepted / self.candidates_tried if self.candidates_tried else 0.0,
            "ratio",
        )
        self_s("dmodule.to_scalar_operator")
        self_s("dmodule.newton_polygon")
        calls("tate.reduce_outer_window")
        self_s("tate.reduce_outer_window")
        self_s("derham.induced_inner_connections")
        self_s("derham.check_multicomplex")
        self_s("derham.cohomology_dims")
        calls("specfile.parse_specfile")
        self_s("specfile.parse_specfile")
        self_s("cli.run")
        self_s("connection.check_flatness")
        self_s("epsilon.epsilon_degree")
        out["trace_overhead"] = (overhead, "ratio")
        return out

    def write_spans(self, path, header: dict):
        """One JSON line for ``header``, then one per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "task": task}
                    )
                    + "\n"
                )
