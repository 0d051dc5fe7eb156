"""In-memory span recorder that wraps the program's public names.

Each wrapped name is replaced at the import site where its caller looks it
up (``aeqslearn.learner.agreement_vector`` is the name the trainers call), so
a span covers exactly the calls from that site.  Spans carry name, start,
end, parent and op id; they are kept in typed arrays and written out once,
at the end.  A layer's self time is its span's duration minus the time its
child spans cover.  ``QueryCounter.charge`` is attributed to the innermost
open span.  A name that no longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import time
from array import array
from collections import Counter

# layer -> import sites (module, attribute) whose calls it times
FUNCTION_SITES = {
    "cli.main": [("aeqslearn.cli", "main")],
    "learner.first_algorithm": [("aeqslearn.learner", "first_algorithm"),
                                ("aeqslearn.cli", "first_algorithm")],
    "learner.second_algorithm": [("aeqslearn.learner", "second_algorithm"),
                                 ("aeqslearn.cli", "second_algorithm")],
    "learner.brute_force_optimum": [("aeqslearn.learner", "brute_force_optimum"),
                                    ("aeqslearn.cli", "brute_force_optimum")],
    "learner.verify_condition_star": [("aeqslearn.learner", "verify_condition_star")],
    "learner.enumerate_pool": [("aeqslearn.learner", "enumerate_pool"),
                               ("aeqslearn.cli", "enumerate_pool")],
    "learner.build_joint_state": [("aeqslearn.learner", "build_joint_state")],
    "learner.finalize_preparation": [("aeqslearn.learner", "finalize_preparation")],
    "qqaf.agreement_vector": [("aeqslearn.learner", "agreement_vector")],
    "qqaf.agreement_count": [("aeqslearn.learner", "agreement_count")],
    "qqaf.Machine": [("aeqslearn.learner", "Machine")],
    "gates.symbol_unitary": [("aeqslearn.qqaf", "symbol_unitary")],
    "qsub.quantum_count": [("aeqslearn.learner", "quantum_count")],
    "qsub.amplitude_estimation": [("aeqslearn.learner", "amplitude_estimation"),
                                  ("aeqslearn.qsub", "amplitude_estimation")],
    "qsub.amplitude_amplify": [("aeqslearn.learner", "amplitude_amplify")],
    "qsub.find_maximum": [("aeqslearn.learner", "find_maximum")],
    "relations.parse_relation": [("aeqslearn.cli", "parse_relation")],
}
# counted, not timed: thousands of calls per op, all inside qqaf.Machine's span
COUNT_ONLY = {"gates.symbol_unitary"}
# layer -> (module, class, method)
METHOD_SITES = {
    "qsub.GoodSubspace.mask": ("aeqslearn.qsub", "GoodSubspace", "mask"),
}
QUERY_SITE = ("aeqslearn.qsub", "QueryCounter", "charge")
STATE_SITE = ("aeqslearn.qcore", "StateVector", "__init__")


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _short_hash(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Tracer:
    """Records spans and computed counts for the calls made while op >= 0."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self._child_ns = array("q")
        self._stack: list[int] = []
        self.op = -1
        self.layers: dict[str, list[int]] = {}  # layer -> [calls, incl_ns, self_ns]
        self.counts: Counter = Counter()
        self.queries: Counter = Counter()
        self.absent: list[str] = []
        self._cells: dict[str, int] = {}  # distinct (machine, relation, eta) -> cells
        self._machine_keys: dict[int, tuple] = {}
        self._unitary_keys: set = set()
        self._restore: list[tuple] = []

    # --- spans -------------------------------------------------------------

    def _open(self, layer: str) -> int:
        nid = self._name_ids.get(layer)
        if nid is None:
            nid = self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self._child_ns.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.end[idx] = end
        dur = end - self.start[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self._child_ns[parent] += dur
        if self.op_id[idx] >= 0:
            stats = self.layers.setdefault(self.names[self.name_id[idx]], [0, 0, 0])
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - self._child_ns[idx]

    def _spanned(self, fn, layer: str, hook=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if hook is not None and self.op >= 0:
                hook(*args, **kwargs)
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _counted(self, fn, hook):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.op >= 0:
                hook(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # --- computed counts ---------------------------------------------------

    def _agreement_hook(self, mach, rel, params, *_, **__):
        cells = 1 << rel.n
        self.counts["cells"] += cells
        self.counts["matvecs"] += cells * (rel.n + 2)
        key = self._machine_keys.get(id(mach))
        if key is None:  # the Machine is held in the value, so its id stays unique
            key = self._machine_keys[id(mach)] = (
                _short_hash(repr(mach.encoding).encode()), mach)
        self._cells[_short_hash(key[0].encode(), rel.members.tobytes(),
                                str(rel.n).encode(), repr(params.eta).encode())] = cells

    def _unitary_hook(self, design, n, *_, **__):
        self.counts["symbol_unitary_calls"] += 1
        self._unitary_keys.add((design, n))

    def _find_maximum_hook(self, values, *_, **__):
        n_items = len(values)
        self.counts["find_maximum_n_sum"] += n_items
        self.counts["find_maximum_n_max"] = max(self.counts["find_maximum_n_max"], n_items)

    def _mask_hook(self, _subspace, dim, *_, **__):
        self.counts["mask_entries"] += dim

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {"qqaf.agreement_vector": self._agreement_hook,
                 "qqaf.agreement_count": self._agreement_hook,
                 "gates.symbol_unitary": self._unitary_hook,
                 "qsub.find_maximum": self._find_maximum_hook,
                 "qsub.GoodSubspace.mask": self._mask_hook}
        for layer, sites in FUNCTION_SITES.items():
            found = False
            for mod_name, attr in sites:
                mod = _module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                found = True
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, self._counted(fn, hooks[layer]) if layer in COUNT_ONLY
                        else self._spanned(fn, layer, hooks.get(layer)))
            if not found:
                self.absent.append(layer)
        for layer, site in METHOD_SITES.items():
            self._patch_method(site, layer,
                               lambda fn, layer=layer: self._spanned(fn, layer, hooks.get(layer)))
        self._patch_method(QUERY_SITE, "queries", self._charge_wrapper)
        self._patch_method(STATE_SITE, "qcore.StateVector", self._state_wrapper)

    def _patch_method(self, site, label, make_wrapper) -> None:
        mod_name, cls_name, attr = site
        cls = getattr(_module(mod_name), cls_name, None)
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            self.absent.append(label)
            return
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, make_wrapper(fn))

    def _charge_wrapper(self, fn):
        @functools.wraps(fn)
        def charge(counter, calls, *args, **kwargs):
            if self.op >= 0:
                layer = self.names[self.name_id[self._stack[-1]]] if self._stack else "none"
                self.queries[layer] += calls
            return fn(counter, calls, *args, **kwargs)
        return charge

    def _state_wrapper(self, fn):
        @functools.wraps(fn)
        def init(state, *args, **kwargs):
            if self.op >= 0:
                self.counts["statevectors"] += 1
            return fn(state, *args, **kwargs)
        return init

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # --- output ------------------------------------------------------------

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["distinct_cells"] = sum(self._cells.values())
        counts["symbol_unitary_distinct"] = len(self._unitary_keys)
        return {"layers": self.layers, "counts": counts, "queries": dict(self.queries),
                "absent": self.absent, "spans": len(self.start)}

    def write_spans(self, fh) -> None:
        """One tab-separated line per span: op, index, parent, name, start_ns, end_ns."""
        names = self.names
        for i in range(len(self.start)):
            fh.write(f"{self.op_id[i]}\t{i}\t{self.parent[i]}\t{names[self.name_id[i]]}"
                     f"\t{self.start[i]}\t{self.end[i]}\n")


def merge_summaries(parts: list[dict]) -> dict:
    """Sum per-process summaries; distinct counts are per process, so they add."""
    layers: dict[str, list[int]] = {}
    counts: Counter = Counter()
    queries: Counter = Counter()
    absent: set[str] = set()
    spans = 0
    for part in parts:
        for layer, stats in part["layers"].items():
            acc = layers.setdefault(layer, [0, 0, 0])
            for i in range(3):
                acc[i] += stats[i]
        n_max = max(counts["find_maximum_n_max"], part["counts"].get("find_maximum_n_max", 0))
        counts.update(part["counts"])
        counts["find_maximum_n_max"] = n_max
        queries.update(part["queries"])
        absent.update(part["absent"])
        spans += part["spans"]
    return {"layers": layers, "counts": dict(counts), "queries": dict(queries),
            "absent": sorted(absent), "spans": spans}
