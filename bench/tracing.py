"""Spans around calls into the library's public functions, for the traced run.

Wrappers are installed from outside the library and removed afterwards; the
untraced runs never see them.  A name bound with ``from .x import y`` is a
separate binding in every module that imported it, so installation patches
every ``conjresp`` module global (and module-level dict entry, such as the
CLI's command table) that holds the original object, and every alias of a
method inside its class.

Spans live in memory as ``[group, op, start_ns, end_ns, parent, amount]``
and are written out when the run ends.  A layer's busy time sums its
outermost spans (spans with no ancestor of the same group); a span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

MARKER = "__bench_traced__"

# (group, module, qualified name, amount of work read from (args, result))
TARGETS = [
    ("fields.sample", "conjresp.fields", "sample_coefficients",
     lambda a, r: a[1].shape[0] * r.shape[0]),
    ("fields.save", "conjresp.fields", "save_field", lambda a, r: os.path.getsize(a[1])),
    ("exactness.solve", "conjresp.exactness", "solve_for_field", None),
    ("exactness.solve", "conjresp.exactness", "solve_exactness", None),
    ("exactness.solve", "conjresp.exactness", "add_closed_form", None),
    ("exactness.solve", "conjresp.exactness", "exact_primitive", None),
    ("exactness.solve", "conjresp.exactness", "lie_derivative_density", None),
    ("exactness.solve", "conjresp.exactness", "remove_weighted_mean", None),
    ("exactness.poisson", "conjresp.exactness", "solve_weighted_poisson", None),
    ("flow.integrate", "conjresp.flow", "integrate_flow",
     lambda a, r: r.points.shape[0] * r.steps),
    ("flow.moser", "conjresp.flow", "moser_transport", None),
    ("flow.moser", "conjresp.flow", "MoserFlow.transport",
     lambda a, r: r.points.shape[0] * r.steps),
    ("flow.moser", "conjresp.flow", "MoserFlow.inverse_transport",
     lambda a, r: r.points.shape[0] * r.steps),
    ("flow.transported_density", "conjresp.flow", "transported_density", None),
    ("dynamics.preimages", "conjresp.dynamics", "TorusMap.preimages_with_derivative",
     lambda a, r: r[0].shape[1]),
    ("dynamics.preimages", "conjresp.dynamics", "DeformedMap.preimages_with_derivative",
     lambda a, r: r[0].shape[1]),
    ("dynamics.preimages", "conjresp.dynamics", "ConjugatedMap.preimages_with_derivative",
     lambda a, r: r[0].shape[1]),
    ("dynamics.warped_construction", "conjresp.dynamics", "make_warped_doubling", None),
    ("dynamics.conjugated", "conjresp.dynamics", "DeformedMap.__call__", None),
    ("dynamics.conjugated", "conjresp.dynamics", "DeformedMap.lift", None),
    ("dynamics.conjugated", "conjresp.dynamics", "ConjugatedMap.__call__", None),
    ("dynamics.conjugated", "conjresp.dynamics", "ConjugatedMap.lift", None),
    ("verify.pushforward", "conjresp.verify", "pushforward_density", None),
    ("verify.response", "conjresp.verify", "response_check", None),
    ("verify.derivative", "conjresp.verify", "derivative_check", None),
    ("verify.transfer", "conjresp.verify", "transfer_check", None),
    ("cli.verify", "conjresp.cli", "cmd_verify", None),
    ("cli.sweep", "conjresp.cli", "cmd_sweep", None),
    ("cli.moser", "conjresp.cli", "cmd_moser", None),
    ("cli.solve", "conjresp.cli", "cmd_solve", None),
    ("config.build_map", "conjresp.config", "build_map", None),
]

# calls counted (not timed) while a span of the given group is open
COUNTERS = [
    ("exactness.poisson", "fft_calls", "numpy.fft", name)
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
] + [("dynamics.preimages", "lift_calls", "conjresp.dynamics", "TorusMap.lift")]

ROOT = "cli.main"
CLI_GROUPS = (ROOT, "cli.verify", "cli.sweep", "cli.moser", "cli.solve")


def _resolve(module_name: str, qualname: str):
    """(owner, attribute) of a module function or a class method."""
    owner = sys.modules[module_name]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conjresp" or name.startswith("conjresp."))]


def installed_wrappers() -> list:
    """Names of every traced wrapper currently reachable from the library,
    its classes, its module-level dicts or numpy.fft; empty when untraced."""
    found = []
    for module in _library_modules() + [np.fft]:
        for key, value in vars(module).items():
            if hasattr(value, MARKER):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{module.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if hasattr(v, MARKER)]
            elif isinstance(value, type):
                found += [f"{module.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, MARKER)]
    return found


class Tracer:
    """In-memory spans and counters; ``install``/``uninstall`` patch the
    library, ``span`` times a block from the caller's side."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (op, counter) -> calls
        self.op = None
        self._stack = []
        self._depth = {}
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _enter(self, group: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([group, self.op, time.perf_counter_ns(), None, parent, None])
        self._stack.append(index)
        self._depth[group] = self._depth.get(group, 0) + 1
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.spans[index][0]] -= 1

    @contextlib.contextmanager
    def span(self, group: str):
        index = self._enter(group)
        try:
            yield
        finally:
            self._exit(index)

    def _timed(self, group, fn, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if amount is not None:
                self.spans[index][5] = int(amount(args, result))
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def _counted(self, group, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth.get(group):
                key = (self.op, counter)
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, owner, name, make_wrapper) -> None:
        original = vars(owner)[name]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            places = [(owner, k) for k, v in vars(owner).items() if v is original]
        else:
            places = []
            for module in _library_modules() + [owner]:
                for key, value in vars(module).items():
                    if value is original:
                        places.append((module, key))
                    elif isinstance(value, dict) and key != "__builtins__":
                        places += [(value, k) for k, v in value.items() if v is original]
        seen = set()
        for container, key in places:
            if (id(container), key) in seen:
                continue
            seen.add((id(container), key))
            self._patches.append((container, key, original))
            if isinstance(container, dict):
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for group, module_name, qualname, amount in TARGETS:
            owner, name = _resolve(module_name, qualname)
            self._replace_everywhere(owner, name,
                                     lambda fn, g=group, a=amount: self._timed(g, fn, a))
        for group, counter, module_name, qualname in COUNTERS:
            owner, name = _resolve(module_name, qualname)
            if name in vars(owner):
                self._replace_everywhere(owner, name,
                                         lambda fn, g=group, c=counter: self._counted(g, c, fn))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []

    # -- aggregation ---------------------------------------------------------

    def op_summary(self, op) -> dict:
        """Per-group busy/self seconds, outermost call counts and amounts, plus
        counters, for the spans of one op."""
        groups = {}
        child_ns = {}
        outer = {}
        for index, (group, span_op, start, end, parent, amount) in enumerate(self.spans):
            if span_op != op:
                continue
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
            outer[index] = not self._within(parent, lambda g, own=group: g == own)
        for index, is_outer in outer.items():
            group, _, start, end, _, amount = self.spans[index]
            entry = groups.setdefault(group, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                              "amount": 0})
            duration = end - start
            entry["self_s"] += (duration - child_ns.get(index, 0)) * 1e-9
            if is_outer:
                entry["calls"] += 1
                entry["busy_s"] += duration * 1e-9
                entry["amount"] += amount or 0
        counts = {counter: n for (span_op, counter), n in self.counts.items() if span_op == op}
        return {"groups": groups, "counts": counts}

    def layer_busy_s(self, op, prefixes) -> float:
        """Time covered by outermost spans whose group starts with any of the
        prefixes (a layer made of several groups counts nested time once)."""
        total = 0
        for group, span_op, start, end, parent, _ in self.spans:
            if (span_op == op and group.startswith(prefixes)
                    and not self._within(parent, lambda g: g.startswith(prefixes))):
                total += end - start
        return total * 1e-9

    def _within(self, index, match) -> bool:
        """Whether span ``index`` or one of its ancestors has a matching group."""
        while index is not None:
            if match(self.spans[index][0]):
                return True
            index = self.spans[index][4]
        return False
