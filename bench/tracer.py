"""Per-layer timing of clutterstats, taken from outside the package.

`Tracer.install` replaces each public function of the traced modules with a
timing wrapper, under its own name and under every name another module of
the package imported it by (for example `mellin.polygamma` and
`simulate.empirical_log_moments`).  Each call becomes a span (op, name,
parent, start, end) kept in memory and written out by `save`.  Self time is
a span's duration minus the time of the spans nested in it; per-op sums of
self time, inclusive time and calls are kept as the run goes.

Spans are kept for the first SPAN_OPS ops only, which bounds memory and the
size of the trace file; the per-op sums cover every op.  Calls made while no
op is open (set-up, checks) are passed through untraced.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SPAN_OPS = 5
MODULES = ("specfun", "models", "mellin", "estimate", "simulate", "verify", "cli")

# Functions whose first argument names a family: their spans are also counted
# under "<module>.<function>.<family>".
_BY_FAMILY = {"mellin.phi", "mellin.log_cumulants", "mellin.phi_numeric", "estimate.fit_molc"}


def _family_of(arg):
    """Family name of a model, a model class, or a family-name string."""
    if isinstance(arg, str):
        return arg
    return getattr(arg if isinstance(arg, type) else type(arg), "family", "unknown")


class _Frame:
    __slots__ = ("index", "start", "child")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.op = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.active = False
        self.current = None
        self.ops = []  # one dict per finished op: key -> [self_s, incl_s, calls]
        self.notes = []  # one dict per finished op: key -> summed value

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id):
        index = -1
        if len(self.ops) < SPAN_OPS:
            index = len(self.start)
            self.op.append(len(self.ops))
            self.name.append(name_id)
            self.parent.append(self.stack[-1].index if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        now = perf_counter()
        if index >= 0:
            self.start[index] = now
        frame = _Frame(index, now)
        self.stack.append(frame)
        return frame

    def _exit(self, frame, keys):
        now = perf_counter()
        self.stack.pop()
        if frame.index >= 0:
            self.end[frame.index] = now
        duration = now - frame.start
        if self.stack:
            self.stack[-1].child += duration
        stats = self.current
        own = stats[keys[0]]
        own[0] += duration - frame.child
        own[1] += duration
        own[2] += 1
        for key in keys[1:]:
            entry = stats[key]
            entry[1] += duration
            entry[2] += 1

    def note(self, key, value):
        self.current_notes[key] += value

    def note_max(self, key, value):
        self.current_notes[key] = max(self.current_notes[key], value)

    def begin_op(self):
        self.current = defaultdict(lambda: [0.0, 0.0, 0])
        self.current_notes = defaultdict(float)
        self.active = True
        return self._enter(self._id("op"))

    def end_op(self, frame):
        self._exit(frame, ("op",))
        self.active = False
        self.ops.append(self.current)
        self.notes.append(self.current_notes)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname, fn):
        tracer = self
        name_id = self._id(qualname)
        by_family = qualname in _BY_FAMILY
        noter = _NOTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name_id)
            keys = (qualname, f"{qualname}.{_family_of(args[0])}") if by_family else (qualname,)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, keys)
            if noter is not None:
                noter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of the traced modules of `package`."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            op=np.frombuffer(self.op, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # -- per-layer metrics -------------------------------------------------

    def _per_op(self, fn):
        return statistics.median(fn(stats, notes) for stats, notes in zip(self.ops, self.notes))

    def _self_ms(self, *keys):
        return self._per_op(lambda s, n: 1e3 * sum(s[k][0] for k in keys if k in s))

    def _incl_ms(self, key):
        return self._per_op(lambda s, n: 1e3 * s[key][1] if key in s else 0.0)

    def _calls(self, key):
        return self._per_op(lambda s, n: s[key][2] if key in s else 0)

    def _total(self, key, column):
        return sum(s[key][column] for s in self.ops if key in s)

    def _per_call(self, key, column, scale):
        calls = self._total(key, 2)
        return scale * self._total(key, column) / calls if calls else 0.0

    def metrics(self, families):
        """Per-layer metrics: name -> (value, unit).  See README.md for which
        are per op or per call, and self or inclusive time."""
        SELF, INCL = 0, 1
        out = {}
        out["simulate.sample_ms"] = (
            self._self_ms("simulate.sample", "simulate.sample_product", "simulate.figure1_point_samples"),
            "ms",
        )
        kernel = "estimate.empirical_log_moments"
        out[f"{kernel}_ms"] = (self._self_ms(kernel), "ms")
        out[f"{kernel}_calls"] = (self._calls(kernel), "count")
        summed = sum(n["estimate.values_summed"] for n in self.notes)
        out["estimate.sum_ns_per_value"] = (1e9 * self._total(kernel, SELF) / summed if summed else 0.0, "ns")
        out["estimate.array_mb"] = (self._per_op(lambda s, n: n["estimate.array_mb"]), "MB-computed")
        out["estimate.texture_log_cumulants_ms"] = (self._self_ms("estimate.texture_log_cumulants"), "ms")
        out["mellin.convert_ms"] = (self._self_ms("mellin.convert"), "ms")
        for family in families:
            out[f"estimate.fit_molc_ms.{family}"] = (self._per_call(f"estimate.fit_molc.{family}", INCL, 1e3), "ms")
        for family in families:
            fits = self._total(f"estimate.fit_molc.{family}", 2)
            iterations = sum(n[f"estimate.fit_iterations.{family}"] for n in self.notes)
            out[f"estimate.fit_iterations.{family}"] = (iterations / fits if fits else 0.0, "count")
        out["specfun.polygamma_calls"] = (self._calls("specfun.polygamma"), "count")
        out["specfun.polygamma_ms"] = (self._self_ms("specfun.polygamma"), "ms")
        for family in families + ["inverse_gamma"]:
            out[f"mellin.phi_us.{family}"] = (self._per_call(f"mellin.phi.{family}", INCL, 1e6), "us")
            out[f"mellin.log_cumulants_us.{family}"] = (
                self._per_call(f"mellin.log_cumulants.{family}", INCL, 1e6), "us")
        for name in ("mellin.psi", "mellin.classical_moment", "mellin.log_moments", "models.validate"):
            out[f"{name}_us"] = (self._per_call(name, SELF, 1e6), "us")
        for family in families:
            out[f"mellin.phi_numeric_ms.{family}"] = (self._incl_ms(f"mellin.phi_numeric.{family}"), "ms")
        out["models.pdf_calls"] = (self._calls("models.pdf"), "count")
        out["models.pdf_us"] = (self._per_call("models.pdf", SELF, 1e6), "us")
        out["mellin.log_cumulants_numeric_ms"] = (self._incl_ms("mellin.log_cumulants_numeric"), "ms")
        out["cli.overhead_ms"] = (
            self._per_op(lambda s, n: 1e3 * (s["cli.run"][1] - s["verify.run_suite"][1])
                         if "verify.run_suite" in s else 0.0),
            "ms",
        )
        return out


def _note_log_moments(tracer, args, kwargs, result):
    samples = args[0]
    max_n = args[1] if len(args) > 1 else kwargs["max_n"]
    count = len(np.asarray(getattr(samples, "values", samples)))
    tracer.note("estimate.values_summed", count * max_n)
    # one float64 array of the draws; computed from the count, not measured
    tracer.note_max("estimate.array_mb", count * 8 / 1e6)


def _note_fit(tracer, args, kwargs, result):
    tracer.note(f"estimate.fit_iterations.{_family_of(args[0])}", result.iterations)


_NOTERS = {
    "estimate.empirical_log_moments": _note_log_moments,
    "estimate.fit_molc": _note_fit,
}
