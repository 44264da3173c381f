"""Span tracer installed from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` at
every name it is bound to inside the ``yamabe_lab`` package (module
globals such as ``yamabe_lab.exhaustion.continue_to_critical`` and class
attributes such as ``DiscreteOperator.strong_norm``), in the modules
already imported and, through an import hook, in each module imported
later as soon as it has executed, by a wrapper that
records a span: name, start, end, parent span and a few counters read
from the arguments or the returned object.  Spans stay in memory until
``dump``; ``layer_totals`` turns them into per-layer counts and self
times (a span's duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

PACKAGE = "yamabe_lab"

# Phrases of ContinuationResult.concentration_reason, bucketed into the
# four reason codes ("critical polish failed" and "... concentrated" are
# both polish failures).
_REASON_BUCKETS = (("solver failure", "solver_failure"),
                   ("grid-scale spike", "spike"),
                   ("exceeded cap", "cap"),
                   ("critical polish", "polish_failed"))


def _banded_bytes(args, kwargs, result):
    # solve_banded((l, u), ab, b): matrix and right-hand side in, solution
    # out; computed from array sizes, cache traffic not included.
    ab, rhs = args[1], args[2]
    return {"bytes": ab.nbytes + rhs.nbytes + result.nbytes}


def _solve_info(args, kwargs, result):
    return {"iterations": result.iterations}


def _continuation_info(args, kwargs, result):
    info = {"steps": len(result.lam_values),
            "polish_requested": int(kwargs.get("critical_polish", True)),
            "polish_attained": int(result.y_critical is not None)}
    if result.concentration:
        for needle, bucket in _REASON_BUCKETS:
            if needle in result.concentration_reason:
                info[bucket] = 1
                break
        else:
            info["other_reason"] = 1
    return info


def _exterior_info(args, kwargs, result):
    return {"steps": len(result.history)}


def _energy_nodes(args, kwargs, result):
    return {"nodes": args[0].grid.N + 1}


def _file_bytes(position):
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return hook


# (module, attribute, span name, hook reading counters from the call)
TARGETS = (
    ("manifold", "make_profile", "manifold.make_profile", None),
    ("manifold", "scalar_curvature", "manifold.scalar_curvature", None),
    ("radial", "midpoint_weights", "radial.midpoint_weights", None),
    ("radial", "node_weights", "radial.node_weights", None),
    ("radial", "lp_norm", "radial.lp_norm", None),
    ("radial", "yamabe_energy", "radial.yamabe_energy", _energy_nodes),
    ("radial", "save_field_csv", "radial.csv_write", _file_bytes(1)),
    ("radial", "load_field_csv", "radial.csv_read", _file_bytes(0)),
    ("subcritical", "DiscreteOperator.__init__", "subcritical.operator", None),
    ("subcritical", "DiscreteOperator.strong_norm", "subcritical.strong_norm",
     None),
    ("subcritical", "solve_banded", "subcritical.banded", _banded_bytes),
    ("subcritical", "first_eigenpair", "subcritical.eigenpair", None),
    ("subcritical", "solve_subcritical", "subcritical.solve", _solve_info),
    ("subcritical", "continue_to_critical", "subcritical.continuation",
     _continuation_info),
    ("functional", "cylinder_length", "functional.cylinder_length", None),
    ("functional", "exterior_quotient", "functional.exterior", _exterior_info),
    ("functional", "bubble_quotient", "functional.bubble", None),
    ("exhaustion", "run_exhaustion", "exhaustion.run", None),
    ("exhaustion", "subsolution_check", "exhaustion.post", None),
    ("exhaustion", "boundary_bound", "exhaustion.post", None),
    ("exhaustion", "concentration_verdict", "exhaustion.post", None),
    ("exhaustion", "decay_fit", "exhaustion.post", None),
    ("exhaustion", "save_trace", "exhaustion.save_trace", None),
    ("exhaustion", "load_trace", "exhaustion.load_trace", None),
    ("blowup", "rescale", "blowup.rescale", None),
    ("blowup", "energy_identity_check", "blowup.identity", None),
    ("cli", "main", "cli.main", None),
)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds ``yamabe_lab.*`` modules as the path finder does and calls
    ``after(module)`` once each has executed."""

    def __init__(self, after):
        self.after = after

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path,
                                                        target)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self.after)
        return spec


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, after):
        self.loader, self.after = loader, after

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        self.loader.exec_module(module)
        self.after(module)

    def __getattr__(self, name):
        return getattr(self.loader, name)


class Tracer:
    """Records spans as [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._wrappers = {}
        self._finder = None

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4]["raised"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4].update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the targets of every package module imported so far, and
        of every one imported later, as its import finishes.

        Nothing is imported here, so a traced process loads the same
        modules, at the same moments, as an untraced one.
        """
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._finder = _PatchOnImport(self._patch_module)
        sys.meta_path.insert(0, self._finder)
        loaded = [module for name, module in sorted(sys.modules.items())
                  if name.startswith(PACKAGE + ".")]
        for module in loaded:
            self._wrap_targets(module)
        for module in loaded:
            self._rebind(module)

    def _patch_module(self, module) -> None:
        self._wrap_targets(module)
        self._rebind(module)

    def _wrap_targets(self, module) -> None:
        """Wrap the targets defined in ``module``."""
        module_name = module.__name__.rpartition(".")[2]
        for owner_name, attr, span_name, hook in TARGETS:
            if owner_name != module_name:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original,
                            self._wrap(span_name, original, hook))
            else:
                original = getattr(module, attr)
                self._wrappers[id(original)] = (
                    original, self._wrap(span_name, original, hook))

    def _rebind(self, module) -> None:
        """Point every name of ``module`` bound to a target at its
        wrapper.  Modules imported after their dependencies were patched
        bind the wrappers themselves, through ``from .x import f``."""
        for key, value in list(vars(module).items()):
            original, wrapper = self._wrappers.get(id(value), (None, None))
            if original is value:
                self._patch(module, key, value, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def dump(self, path) -> None:
        """Write spans as JSON: [name, start, end, parent, counters]."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def layer_totals(spans) -> dict:
    """Per span name: calls, self time, and summed counters.

    Child counters are also credited to the parent's name under
    ``child.<child name>.<counter>`` so that, for example, the grid
    nodes of the energies a bubble quotient evaluates add up per bubble.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for index, (name, start, end, parent, counters) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[index]
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value
        if parent >= 0:
            parent_entry = totals.setdefault(spans[parent][0],
                                             {"calls": 0, "self_s": 0.0})
            for key, value in counters.items():
                child_key = f"child.{name}.{key}"
                parent_entry[child_key] = parent_entry.get(child_key, 0) + value
    return totals


def merge_totals(parts) -> dict:
    merged = {}
    for totals in parts:
        for name, entry in totals.items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return merged


def load_spans(path):
    with open(path) as handle:
        return json.load(handle)
