"""Boundary tracer for couplerkit: timing wrappers around its public functions.

``Tracer.install()`` replaces every public function of every couplerkit module
with a wrapper that records a span, in each module namespace where the name is
bound (so ``cli.ej_of_flux`` and ``squid.ej_of_flux`` both go through the same
wrapper), plus the scipy solvers that couplerkit looks up by name
(``effmodel.brentq``, ``fitkit.minimize``, ``fitkit.least_squares``).  The
closures returned by the ``presets`` builder factories are traced as
``presets.builder``.  ``uninstall()`` puts the original objects back.

A span is (name, start, end, parent, op).  The first ``SPAN_CAP`` spans are
kept in memory and written out by ``write()``; self time, busy time and the
counters below are aggregated as each span closes, so every call counts even
past the cap.  The tracer is single-threaded, like the workloads it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("capnet", "squid", "transmon", "effmodel", "numdiag", "fitkit", "presets", "cli")
# foreign callables looked up by name inside a couplerkit module, traced under that layer
FOREIGN = {"effmodel": ("brentq",), "fitkit": ("minimize", "least_squares")}
# private helper traced only to tell useful root brackets from wasted ones
PRIVATE = {"effmodel": ("_refine_brackets",)}
BUILDER_FACTORIES = ("presets.device_flux_builder", "presets.frequency_sweep_builder")
FINDERS = ("effmodel.find_zero_g", "effmodel.find_zero_zz")
EVALUATORS = ("effmodel.g_net", "effmodel.zz_perturbative", "numdiag.zz_numeric")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = 0
        self._stack: list[list] = []  # [span index, name, start, time in children]
        self._patched: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)   # inclusive, outermost calls
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._finds_open = 0
        self._bracket_roots: list[float] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import couplerkit

        modules = [couplerkit] + [
            importlib.import_module(f"couplerkit.{name}") for name in LAYERS
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                name = self._span_name(layer, attr, obj)
                if name is None:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(name, obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    @staticmethod
    def _span_name(layer: str, attr: str, obj) -> str | None:
        if attr in FOREIGN.get(layer, ()) or attr in PRIVATE.get(layer, ()):
            return f"{layer}.{attr}"
        if attr.startswith("_") or not isinstance(obj, types.FunctionType):
            return None
        module = obj.__module__ or ""
        if not module.startswith("couplerkit."):
            return None
        return f"{module.rpartition('.')[2]}.{obj.__name__}"

    def wrap(self, name: str, fn):
        enter, leave, fail = self._enter, self._leave, self._fail
        factory = name in BUILDER_FACTORIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                fail(frame, exc)
                raise
            leave(frame, result)
            if factory:
                return self.wrap("presets.builder", result)
            return result

        return traced

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.op))
        else:
            index = -1
            self.spans_dropped += 1
        self._depth[name] += 1
        if name in EVALUATORS and self._finds_open:
            self.counters["evals_in_find"] += 1
        if name == "fitkit.model_g_mhz" and self._depth["fitkit.fit_g_vs_flux"] > 0:
            self.counters["model_evals_in_fit"] += 1
        if name in FINDERS:
            self._finds_open += 1
        if name == "effmodel._refine_brackets":
            self._bracket_roots = []
        frame = [index, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, start, child = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] += duration
        if name in FINDERS:
            self._finds_open -= 1
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            span = self.spans[index]
            self.spans[index] = (name, start, end, span[3], span[4])

    def _leave(self, frame: list, result) -> None:
        self._close(frame)
        name = frame[1]
        # counters read the results' current shapes; if a later version of the
        # library returns something else, the counter stays empty and the
        # traced call still returns normally
        try:
            if name == "numdiag.build_hamiltonian":
                self.counters["basis_states"] += result.matrix.shape[0]
            elif name == "effmodel.brentq":
                self._bracket_roots.append(float(result))
            elif name == "effmodel._refine_brackets":
                accepted = set(result)
                self.counters["useful_brackets"] += sum(r in accepted for r in self._bracket_roots)
            elif name == "fitkit.fit_g_vs_flux":
                self.counters["fits_converged"] += bool(result.converged)
        except (AttributeError, TypeError, ValueError):
            pass

    def _fail(self, frame: list, exc: BaseException) -> None:
        self._close(frame)
        self.errors[(frame[1], type(exc).__name__)] += 1

    # -- results ---------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_time.items():
            out[name.partition(".")[0]] += value
        return out

    def merge(self, other: dict) -> None:
        """Add the aggregates of a tracer that ran in another process."""
        for key in ("calls", "busy", "self_time", "counters"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] += value
        for key, value in other["errors"]:
            self.errors[tuple(key)] += value
        self.spans_dropped += other["spans_dropped"]

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "errors": [[list(k), v] for k, v in self.errors.items()],
            "spans_dropped": self.spans_dropped,
        }

    def write(self, path: Path, extra_spans: list | None = None) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for span in extra_spans or ():
                fh.write(json.dumps(span) + "\n")
