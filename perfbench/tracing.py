"""Span recorder for the benchmark's traced mode.

The package is not instrumented.  Instead, :meth:`Tracer.install` replaces
public functions by recording wrappers at every name an ``orthograph.*``
module binds, so a call that goes through any module's global (``strong_bj``
calling ``bj_orthogonal``, ``Element.norm`` calling ``_linalg.opnorm``) is
recorded.  The set of functions is found at run time: every name in the
package's ``__all__`` or a submodule's ``__all__``, plus every function
defined in ``orthograph._linalg``.  Refactors that move or add functions stay
traced without edits here.

Each span is (name, start, end, parent, op id, raised) and lives in flat
typed arrays until :meth:`Tracer.summary` reduces them after the timed
section; :meth:`Tracer.save` writes them out.
"""

import importlib
import inspect
import math
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

PATH_OPS = ("paths.connect", "paths.connect_direct_sum", "paths.non_isolated_witness")
PATH_FUNCS = PATH_OPS + ("paths.verify_path", "paths.third_projection")
GRAPH_FUNCS = ("graph.build_graph", "graph.augment_with_paths")
LAYERS = ("cli", "graph", "paths", "orthogonality", "algebra", "_linalg", "sampling")
REGIMES = tuple("orthogonality.regime." + r for r in ("vacuous", "interior", "fast_true", "fast_false", "minimizer"))
# Counters each result hook adds to.  They start at zero when the hook's
# function is wrapped, so a counter is missing only when its function is.
HOOK_COUNTERS = {
    "orthogonality.strong_bj": REGIMES,
    "orthogonality.bj_orthogonal": REGIMES,
    "_linalg.sigma_max": ("linalg.sigma_max.matrices",),
    "algebra.projective_equal": ("graph.dedupe_checks", "graph.dedupe_hits"),
    "graph.augment_with_paths": ("graph.vertices_added",),
}


def _regime(dec) -> str:
    """The regime that produced an OrthDecision, read off its fields."""
    if dec.support_min is None:
        return "vacuous"
    if dec.drop is not None:
        return "minimizer"
    if not dec.verdict:
        return "fast_false"
    # the interior regime reports the support functional itself as margin
    return "interior" if dec.margin == dec.support_min else "fast_true"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.ops_started = 0
        self.counts: Counter = Counter()
        self.path_edges: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's functions in place.  Wrappers are made once per
        function, so installing again after :meth:`uninstall` keeps recording
        into the same names."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        targets = set(package.__all__)
        for mod in modules:
            targets.update(getattr(mod, "__all__", ()))
        linalg = importlib.import_module(f"{package.__name__}._linalg")
        targets.update(
            n for n, f in vars(linalg).items()
            if inspect.isfunction(f) and f.__module__ == linalg.__name__
        )
        wrappers = self._wrappers
        for mod in modules:
            for attr in sorted(targets):
                fn = vars(mod).get(attr)
                if not inspect.isfunction(fn) or not fn.__module__.startswith(package.__name__):
                    continue
                if id(fn) not in wrappers:
                    label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(label, fn)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        self.counts.update(dict.fromkeys(HOOK_COUNTERS.get(label, ()), 0))
        clock = time.perf_counter
        stack, names = self.stack, self.names
        name, start, end, parent, op, raised = (
            self.name, self.start, self.end, self.parent, self.op, self.raised)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                p = parent[idx]
                hook(idx, args, result, names[name[p]] if p >= 0 else "")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks: counts recorded where the work happens --------------

    def _hook_orthogonality_strong_bj(self, idx, args, result, parent):
        self.counts["orthogonality.regime." + _regime(result)] += 1

    def _hook_orthogonality_bj_orthogonal(self, idx, args, result, parent):
        if parent != "orthogonality.strong_bj":
            self.counts["orthogonality.regime." + _regime(result)] += 1

    def _hook__linalg_sigma_max(self, idx, args, result, parent):
        self.counts["linalg.sigma_max.matrices"] += math.prod(args[0].shape[:-2])

    def _hook_algebra_projective_equal(self, idx, args, result, parent):
        if parent.startswith("graph."):
            self.counts["graph.dedupe_checks"] += 1
            self.counts["graph.dedupe_hits"] += bool(result)

    def _hook_graph_augment_with_paths(self, idx, args, result, parent):
        self.counts["graph.vertices_added"] += result.order - args[0].order

    def _hook_paths_connect(self, idx, args, result, parent):
        self.path_edges[idx] = result.length

    _hook_paths_connect_direct_sum = _hook_paths_connect

    def _hook_paths_non_isolated_witness(self, idx, args, result, parent):
        self.path_edges[idx] = 1

    # -- reduction -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    @staticmethod
    def _ancestor_flag(nid: np.ndarray, parent: np.ndarray, is_marked: np.ndarray) -> np.ndarray:
        """For each span, whether some ancestor's name is marked."""
        has = parent >= 0
        par = np.where(has, parent, 0)
        flag = has & is_marked[nid[par]]
        while True:
            grown = flag | (has & flag[par])
            if np.array_equal(grown, flag):
                return flag
            flag = grown

    def summary(self) -> dict[str, float]:
        """Per-layer counts and times, keyed by metric name."""
        a = self.arrays()
        nid = a["name"]
        parent = a["parent"]
        dur = a["end"] - a["start"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        self_s = dur - child[: dur.size]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_s, minlength=k)
        errors = np.bincount(nid, weights=a["raised"], minlength=k)
        ids = {n: i for i, n in enumerate(self.names)}

        out: dict[str, float] = {}
        for label, i in ids.items():
            key = label.replace("_linalg.", "linalg.")
            out[f"{key}.calls"] = int(calls[i])
            out[f"{key}.total_s"] = float(total[i])
            out[f"{key}.self_s"] = float(selfs[i])
            out[f"{key}.errors"] = int(errors[i])
        for layer in LAYERS:
            members = [i for label, i in ids.items() if label.startswith(layer + ".")]
            if members:
                out[f"{layer.lstrip('_')}.self_s"] = float(selfs[members].sum())
        out.update(self.counts)
        out["trace.spans"] = int(nid.size)
        if "graph.dedupe_checks" in self.counts:
            checks = self.counts["graph.dedupe_checks"]
            out["graph.dedupe_hit_frac"] = self.counts["graph.dedupe_hits"] / checks if checks else 0.0
        # Derived metrics are left out, not zeroed, when a function they are
        # read from is no longer wrapped.
        ms = ids.get("orthogonality.mutual_strong")
        if ms is None:
            return out

        def mark(labels):
            m = np.zeros(k, dtype=bool)
            m[[ids[x] for x in labels if x in ids]] = True
            return m

        is_ms = nid == ms
        if any(x in ids for x in PATH_OPS):
            under_path = self._ancestor_flag(nid, parent, mark(PATH_FUNCS))
            top_path = mark(PATH_OPS)[nid] & ~under_path
            path_decisions = int(np.sum(is_ms & under_path))
            paths_built = int(np.sum(top_path))
            edges = sum(self.path_edges.get(int(i), 0) for i in np.nonzero(top_path)[0])
            out["paths.path_decisions"] = path_decisions
            out["paths.decisions_per_path"] = path_decisions / paths_built if paths_built else 0.0
            out["paths.edge_yield"] = edges / path_decisions if path_decisions else 0.0
        if any(x in ids for x in GRAPH_FUNCS):
            graph_parent = np.zeros(nid.size, dtype=bool)
            graph_parent[has] = mark(GRAPH_FUNCS)[nid[parent[has]]]
            out["graph.pair_decisions"] = int(np.sum(is_ms & graph_parent))
        return out
