"""Outside-in spans around the public functions of torusquant's layers.

The package binds its functions with ``from .x import y``, so one function
object is reachable under several names (``bks_matrix`` is bound in
``quantize``, ``representations``, ``verify``, ``cli`` and the package root).
``Tracer.install`` replaces every binding of each traced function with a
timing wrapper, and ``Tracer.uninstall`` puts the originals back.  Class
attributes (``PhaseSum.build``, ``Lagrangian.make``, ``Intertwiner.scaled``)
are replaced on the class itself.

Spans nest through one stack: a span's self time is its duration minus the
time covered by the spans that start and end inside it.  Only totals per
function are kept (calls, self time, failures), because a pairing pass makes
hundreds of thousands of ``PhaseSum.build`` calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from types import FunctionType

DESK_SUITES = (
    "unitarity",
    "triple",
    "corrected",
    "gauss",
    "tau",
    "mu",
    "heisenberg",
    "mp",
    "counting",
)
# (module, function) pairs, in the order the per-layer metrics are reported
TRACED = (
    ("exact", "PhaseSum.build"),
    ("exact", "coset_reps"),
    ("exact", "snf"),
    ("exact", "hnf"),
    ("exact", "signature"),
    ("exact", "gauss_reciprocity_check"),
    ("lattice", "Lagrangian.make"),
    ("lattice", "adapted_basis"),
    ("lattice", "pair_adapted_bases"),
    ("lattice", "intersect"),
    ("maslov", "triple_index"),
    ("maslov", "maslov_index"),
    ("maslov", "mp_mul"),
    ("quantize", "bks_matrix"),
    ("quantize", "bks_matrix_transverse"),
    ("quantize", "bks_matrix_nontransverse"),
    ("quantize", "rebase_unitary"),
    ("quantize", "Intertwiner.scaled"),
    ("quantize", "corrected_intertwiner"),
    ("quantize", "intersection_points"),
    ("representations", "heisenberg_matrix"),
    ("representations", "sp_pushforward"),
    ("representations", "sp_operator"),
    ("representations", "mp_operator"),
) + tuple(("verify", "suite_" + name) for name in DESK_SUITES)


def _class_attr(module, func):
    """(class, attribute name) of a traced ``Class.attr`` entry."""
    cls_name, attr = func.split(".")
    return getattr(importlib.import_module("torusquant." + module), cls_name), attr


def _namespaces():
    """Every dict that may hold a binding of a traced function: the globals
    of each loaded module, plus module-level dicts of the package (such as
    the suite registry ``verify.SUITES``)."""
    out = []
    for name, mod in list(sys.modules.items()):
        ns = getattr(mod, "__dict__", None)
        if not isinstance(ns, dict):
            continue
        out.append(ns)
        if name == "torusquant" or name.startswith("torusquant."):
            out.extend(v for v in list(ns.values()) if type(v) is dict)
    return out


class Tracer:
    """Per-function span totals for the traced functions, while installed."""

    def __init__(self):
        self.stats = {}  # "module.function" -> [calls, self seconds, failed]
        self.intertwiners = [0, 0]  # [returned, returned with exact present]
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, intertwiner_type):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        kept = self.intertwiners

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if intertwiner_type is not None and type(out) is intertwiner_type:
                kept[0] += 1
                kept[1] += out.exact is not None
            return out

        span.__perfbench_span__ = name
        return span

    def install(self):
        quantize = importlib.import_module("torusquant.quantize")
        replace = {}  # id(original) -> (original, wrapper)
        for module, func in TRACED:
            name = f"{module}.{func}"
            itype = (
                quantize.Intertwiner
                if module in ("quantize", "representations")
                else None
            )
            if "." in func:
                cls, attr = _class_attr(module, func)
                desc = cls.__dict__[attr]
                if isinstance(desc, classmethod):
                    new = classmethod(self._wrap(name, desc.__func__, itype))
                else:
                    new = self._wrap(name, desc, itype)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, desc))
            else:
                fn = getattr(importlib.import_module("torusquant." + module), func)
                replace[id(fn)] = (fn, self._wrap(name, fn, itype))
        for ns in _namespaces():
            for key, val in list(ns.items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    ns[key] = hit[1]
                    self._undo.append((ns, key, val))
        return self

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def leftover_wrappers():
    """Names still bound to a span wrapper anywhere; empty once uninstalled."""
    found = []
    for ns in _namespaces():
        for key, val in list(ns.items()):
            if isinstance(val, FunctionType) and hasattr(val, "__perfbench_span__"):
                found.append(key)
    for module, func in TRACED:
        if "." in func:
            cls, attr = _class_attr(module, func)
            desc = cls.__dict__[attr]
            if hasattr(getattr(desc, "__func__", desc), "__perfbench_span__"):
                found.append(func)
    return found
