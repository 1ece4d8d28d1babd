"""Spans around the public callables of each ``bsdelab`` module.

The tracer measures from outside: it swaps wrappers into the loaded
``bsdelab`` module namespaces and classes, and swaps the originals back on
``unpatch``.  Nothing under ``src/`` changes.  A span records its name,
start, end, parent span and job id; spans stay in memory and are written out
by the caller at the end of the run.

Self time is measured along the thread that made the call.  Calls that a
solver makes on its worker threads are counted, but their time is not taken
from the parent span, which is blocked waiting for them.
"""

import contextlib
import inspect
import threading
import time

import numpy as np

_now = time.perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "thread", "elements", "info")

    def __init__(self, name, parent, job, thread):
        self.name = name
        self.parent = parent
        self.job = job
        self.thread = thread
        self.start = 0
        self.end = 0
        self.elements = 0
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return (self.end - self.start) * 1e-9


class Tracer:
    """Collects spans; ``span`` opens one by hand, ``wrap`` makes a traced callable."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span hangs under the blocked main-thread span
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, self.job, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = _now()
        return span

    def _close(self, span):
        span.end = _now()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, info=None):
        """Traced version of ``fn``; ``info(bound_args, result)`` annotates the span."""
        tracer = self
        sig = inspect.signature(fn) if info is not None else None

        def traced(*args, **kwargs):
            span = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if info is not None:
                    span.info = info(sig.bind(*args, **kwargs).arguments, result)

        traced.__wrapped__ = fn
        return traced

    def wrap_expression_call(self, fn):
        """Lean wrapper for ``Expression.__call__``: the hottest call in every workload."""
        tracer = self
        ndarray = np.ndarray

        def traced(expr, *values):
            span = tracer._open("expressions.call")
            try:
                out = fn(expr, *values)
            finally:
                tracer._close(span)
            span.elements = out.size if type(out) is ndarray else 0
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, mods, original, replacement):
        """Point every name in the workload's bsdelab modules bound to ``original`` at ``replacement``."""
        for module in vars(mods).values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._saved.append((namespace, key, value))
                    namespace[key] = replacement

    def _set_class_attr(self, cls, attr, replacement):
        self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, replacement)

    def patch(self, mods):
        """Wrap the public callables named in the benchmark's layer table."""
        if self._saved:
            raise RuntimeError("tracer is already patched")
        ex, so, en, od = mods.expressions, mods.solver, mods.envelopes, mods.ode_bounds
        self._set_class_attr(ex.Expression, "__call__",
                             self.wrap_expression_call(ex.Expression.__call__))
        for fn in (ex.parse_expression, ex.parse_univariate):
            self._replace_everywhere(mods, fn, self.wrap("expressions.parse", fn))

        self._replace_everywhere(mods, so.solve_tree, self.wrap("solver.solve_tree", so.solve_tree, _solve_info))
        self._replace_everywhere(mods, so.solve_mc_regression, self.wrap(
            "solver.solve_mc_regression", so.solve_mc_regression, _solve_info))
        generate = so.PathEnsemble.__dict__["generate"].__func__
        self._set_class_attr(so.PathEnsemble, "generate",
                             classmethod(self.wrap("solver.ensemble", generate)))

        self._set_class_attr(en.SupConvolutionEnvelope, "value_at", self.wrap(
            "envelopes.supconv.value_at", en.SupConvolutionEnvelope.value_at))
        self._set_class_attr(en.LipschitzEnvelope, "batch", self.wrap(
            "envelopes.lipschitz.batch", en.LipschitzEnvelope.batch))

        self._replace_everywhere(mods, od.solve_growth_ode, self.wrap(
            "ode_bounds.solve_growth_ode", od.solve_growth_ode))
        self._replace_everywhere(mods, od.bihari_sequence, self.wrap(
            "ode_bounds.bihari_sequence", od.bihari_sequence,
            lambda args, res: {"iterations": sum(res.iterations)} if res is not None else None))

        self._replace_everywhere(mods, mods.certificates.check_certificate, self.wrap(
            "certificates.check_certificate", mods.certificates.check_certificate))
        for name in mods.verify.__all__:
            fn = getattr(mods.verify, name)
            if inspect.isfunction(fn):
                self._replace_everywhere(mods, fn, self.wrap(f"verify.{name}", fn))

        self._replace_everywhere(mods, mods.transforms.exp_transform_generator,
                                 self._wrap_transform(mods.transforms.exp_transform_generator))
        self._replace_everywhere(mods, mods.config.load_config,
                                 self.wrap("config.load_config", mods.config.load_config))
        self._replace_everywhere(mods, mods.cli.main, self.wrap("cli.main", mods.cli.main))

    def _wrap_transform(self, factory):
        """The transformed driver is a closure, so its calls get spans of their own."""
        build = self.wrap("transforms.exp_transform_generator", factory)

        def traced(g, gamma):
            return self.wrap("transforms.transformed", build(g, gamma))

        traced.__wrapped__ = factory
        return traced

    def unpatch(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = value
            elif value is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, value)


_MISSING = object()


def _solve_info(args, sol):
    info = {
        "steps": int(args["steps"]),
        "paths": int(args.get("paths", 0)),
        "scheme": args.get("scheme", "explicit"),
        "threads": int(args.get("threads", 1)),
    }
    if sol is not None:
        diag = sol.diagnostics
        info["picard"] = int(diag.get("picard_max_iterations", 0))
        conds = diag.get("regression_condition_numbers")
        if conds:
            info["cond_max"] = float(max(conds))
    return info


def self_seconds(spans):
    """Per-span self time: duration minus the same-thread child spans it covers."""
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread and id(s.parent) in own:
            own[id(s.parent)] -= s.end - s.start
    return {k: v * 1e-9 for k, v in own.items()}


def nearest(span, names):
    """The closest ancestor of ``span`` (itself included) whose name is in ``names``."""
    while span is not None:
        if span.name in names:
            return span
        span = span.parent
    return None


def dump(spans, path):
    """Write spans as JSON lines: name, start/end (ns), parent index, job, thread, elements."""
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            thread = threads.setdefault(s.thread, len(threads))
            fh.write(
                f'["{s.name}",{s.start},{s.end},{parent},"{s.job}",{thread},{s.elements}]\n'
            )
