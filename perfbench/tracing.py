"""Spans around the public functions of each signrank module.

``Tracer.install`` replaces each traced function in every signrank module
namespace that holds it (so calls made through a name imported elsewhere,
such as ``realize.condense``, are traced too) and puts the originals back
on ``uninstall``.  Spans are kept in flat arrays -- name, start, end, parent
-- and written out once at the end.  A span opened on a worker thread with
nothing open on that thread takes the innermost span open on the thread
that created the tracer as its parent (the search that started the
pool).  Self time is a span's duration minus the part of it that its
children cover; children on parallel threads overlap, so self times can
then add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np

MODULES = ("pattern", "realize", "kernels", "exactnum", "geometry", "fixtures", "svg", "cli")

# <module>.<name> -> the attribute path inside that module
TRACED = (
    "pattern.condense", "pattern.term_rank", "pattern.is_mr2", "pattern.max_sns_submatrix",
    "pattern.is_sns", "pattern.is_equivalent", "pattern.mr_bounds", "pattern.load_pattern",
    "realize.search_realization", "realize.rationalize", "realize.rational_rank",
    "realize.solve_zero_columns", "exactnum.rational_round", "realize.RationalCertificate.verify",
    "realize.save_certificate", "kernels.descent", "kernels.solve_dependent",
    "geometry.encode_configuration", "geometry.dualize", "geometry.stack",
    "geometry.load_configuration", "fixtures.derive_perles_check", "svg.render_svg",
)

# span name -> how to read a yes/no outcome from the return value
OUTCOMES = {
    "pattern.is_mr2": bool,
    "pattern.is_sns": bool,
    "realize.search_realization": lambda result: result is not None,
}

# names reported under the module a user looks for them in
REPORT_AS = {"exactnum.rational_round": "realize.rational_round"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        outcome_of = OUTCOMES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            outer = stack or self._main_stack
            with self._lock:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(outer[-1] if outer else -1)
                self.start.append(0.0)
                self.end.append(0.0)
                self.outcome.append(-1)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if outcome_of is not None:
                self.outcome[idx] = 1 if outcome_of(result) else 0
            return result

        return traced

    def span(self, name: str, t0: float, t1: float):
        """Record an externally timed root span (for example a subprocess)."""
        with self._lock:
            self.name_id.append(self._id(name))
            self.parent.append(-1)
            self.start.append(t0)
            self.end.append(t1)
            self.outcome.append(-1)

    def install(self):
        """Patch every TRACED name wherever a signrank module holds it."""
        modules = {m: importlib.import_module(f"signrank.{m}") for m in MODULES}
        modules[""] = importlib.import_module("signrank")
        for dotted in TRACED:
            home, *path = dotted.split(".")
            owner = modules[home]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapped = self.wrap(REPORT_AS.get(dotted, dotted), original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapped)
                continue
            # the home module's private aliases (kernels._descent_numpy and
            # the like) are internal calls and stay untraced
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original and (module is not owner or attr == path[-1]):
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8).copy(),
        }

    def save(self, path):
        data = self.arrays()
        np.savez_compressed(path, names=np.array(data.pop("names")), **data)


def load(path):
    with np.load(path) as data:
        out = {key: data[key] for key in data.files}
    out["names"] = [str(v) for v in out["names"]]
    return out


def summarize(parts):
    """Per-name calls, self time, total time and outcome counts over one or
    more span sets (each as returned by ``Tracer.arrays`` or ``load``)."""
    stats: dict[str, dict] = {}
    for data in parts:
        nid, parent, start, end = data["name_id"], data["parent"], data["start"], data["end"]
        dur = end - start
        covered = np.zeros_like(dur)
        children = np.nonzero(parent >= 0)[0]
        order = children[np.lexsort((start[children], parent[children]))].tolist()
        parents, starts, ends = parent.tolist(), start.tolist(), end.tolist()
        last_parent, reach = -1, 0.0
        for c in order:
            p = parents[c]
            if p != last_parent:
                last_parent, reach = p, starts[p]
            lo = max(starts[c], reach)
            if ends[c] > lo:
                covered[p] += ends[c] - lo
                reach = ends[c]
        own = dur - covered
        for k, name in enumerate(data["names"]):
            sel = nid == k
            if not sel.any():
                continue
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "yes": 0})
            entry["calls"] += int(sel.sum())
            entry["self_s"] += float(own[sel].sum())
            entry["total_s"] += float(dur[sel].sum())
            entry["yes"] += int((data["outcome"][sel] == 1).sum())
    return stats
