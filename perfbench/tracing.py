"""In-memory spans around calls into qcorr's public functions.

The package is not modified: `install` replaces module attributes with
timing wrappers, in every qcorr module that holds a reference to the
function (so `from .states import build_werner` inside the CLI is traced
too). A span is (name, start, end, parent, operation id, tag); the tag is
the local dimension for the calls whose cost depends on it.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array

LAYERS = ("cli", "states", "linalg", "closed_forms", "oracle")

# Layers whose public functions are traced only in part: the CLI through
# its entry point, linalg through the four routines the oracle leans on.
SELECTED = {
    "cli": ("main",),
    "linalg": ("von_neumann_entropy", "partial_trace", "partial_transpose",
               "hermitian_eigensystem"),
}
# Parameter records are counted through their validation hook.
TRACED_METHODS = (("states", "PseudoPureParams", "__post_init__"),
                  ("states", "WernerParams", "__post_init__"))


def _measured_dim(args) -> int:
    return int(args[0].dims[1])


def _pp_dim(args) -> int:
    return int(args[0].d)


TAGS = {
    "oracle.discord_numeric": _measured_dim,
    "oracle.gd_numeric": _measured_dim,
    "oracle.negativity_numeric": _measured_dim,
    "oracle.minimize_conditional_entropy": _measured_dim,
    "closed_forms.pp_negativity": _pp_dim,
}


class Recorder:
    """Spans of one process, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.op_id = -1
        self.restarts: list[tuple[int, tuple[float, ...]]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of `fn`."""
        self.names.append(name)
        nid = len(self.names) - 1
        tag_of = TAGS.get(name)
        keep_restarts = name == "oracle.minimize_conditional_entropy"
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        rec = self

        def traced(*args, **kwargs):
            i = len(start)
            rec.name.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec.op_id)
            rec.tag.append(tag_of(args) if tag_of else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep_restarts:
                rec.restarts.append((rec.tag[i], tuple(result.per_restart_values)))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, parent_bias: float = 0.0, own_bias: float = 0.0) -> list[float]:
        """Span duration minus its direct children, less the tracer's own cost.

        Each child span charges `parent_bias` seconds of wrapper bookkeeping
        to its parent, and each span carries `own_bias` seconds of it
        inside its own duration; both come from `calibrate`.
        """
        own = [e - s for s, e in zip(self.start, self.end)]
        out = [t - own_bias for t in own]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i] + parent_bias
        return out

    def write_csv(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op,tag\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]},"
                         f"{self.tag[i]}\n")


def calibrate(calls: int = 2000, rounds: int = 9) -> tuple[float, float]:
    """Tracer cost per span in seconds, as (charged to the parent, inside the span).

    Times a loop of plain calls to an empty function against a loop of
    wrapped calls. What the wrapped loop costs beyond the plain one is
    bookkeeping; the part inside the recorded spans is the span's own share,
    the rest lands in the caller's self time. Median over `rounds`.
    """
    def empty():
        return None

    rec = Recorder()
    traced = rec.wrap("calibrate.empty", empty)
    clock = time.perf_counter
    parent, own = [], []
    for _ in range(rounds):
        first = len(rec.start)
        t0 = clock()
        for _ in range(calls):
            empty()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        inside = sum(rec.end[i] - rec.start[i] for i in range(first, len(rec.start)))
        plain = (t1 - t0) / calls
        own.append(max(0.0, inside / calls - plain))
        parent.append(max(0.0, ((t2 - t1) - inside) / calls))
    return statistics.median(parent), statistics.median(own)


def install(rec: Recorder):
    """Wrap the public functions of every qcorr layer; returns the undo function."""
    pkg = importlib.import_module("qcorr")
    undo = []
    modules = {layer: importlib.import_module(f"qcorr.{layer}") for layer in LAYERS}
    holders = list(modules.values()) + [pkg]
    for layer, mod in modules.items():
        names = SELECTED.get(layer) or [
            attr for attr, obj in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        ]
        for attr in names:
            original = getattr(mod, attr)
            traced = rec.wrap(f"{layer}.{attr}", original)
            for holder in holders:
                if vars(holder).get(attr) is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, traced)
    for layer, cls_name, method in TRACED_METHODS:
        cls = getattr(modules[layer], cls_name)
        undo.append((cls, method, getattr(cls, method)))
        setattr(cls, method, rec.wrap(f"{layer}.{cls_name}", getattr(cls, method)))

    def uninstall():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return uninstall
