"""Span recorder wrapped around liouqsl's public functions from outside.

Each listed function is replaced, at every module-level binding in the
``liouqsl`` package that holds it, by a wrapper that records one span per
call: function, start, end, parent span and op id. Spans live in compact
arrays in memory and are written out once, at the end of the run. The
program itself is not modified.

Forked children (the ``mpemba`` process pool) inherit the wrappers but
record nothing: the at-fork hook switches recording off in the child, so
pool workers run untraced.
"""

import functools
import os
import sys
import time
from array import array

# module -> public functions traced; ``optimal`` lies on no benchmarked path.
LAYERS = {
    "cli": ("main",),
    "serialize": ("load_spec", "dump_json", "write_csv"),
    "lindblad": ("build_liouvillian",),
    "liouville": ("validate_density_matrix", "normalize_state", "liouville_angle"),
    "evolve": ("propagate_expm", "build_trace"),
    "qsl": (
        "exact_qsl",
        "average_speed",
        "speed",
        "nonclassical_speed",
        "complete_basis",
        "wootters_length",
        "operator_norm",
    ),
    "spectral": ("spectral_decompose", "steady_state"),
    "applications": ("mpemba_report", "krylov_build", "coherent_gibbs_state"),
}

# Spans that also record the parent's CPU time, for waiting on pool workers.
CPU_SPANS = ("applications.mpemba_report",)

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory span store; ``op`` tags every span opened after it is set."""

    def __init__(self):
        self.names = FUNCTIONS
        self.func = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = {}
        self.op = -1
        self.enabled = True
        self._stack = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def wrap(self, name, fn):
        index = self.names.index(name)
        with_cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self.func)
            self.func.append(index)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_ids.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(span)
            cpu0 = time.process_time() if with_cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if with_cpu:
                    self.cpu[span] = time.process_time() - cpu0
                self._stack.pop()
                self.start[span] = t0
                self.end[span] = t1

        return traced


def install(tracer):
    """Rebind every ``liouqsl`` module global that is a listed function.

    Call after ``liouqsl.cli`` is imported, so that every module holding a
    binding is loaded.
    """
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "liouqsl" or name.startswith("liouqsl."))
    ]
    for name in FUNCTIONS:
        mod, fn = name.split(".")
        original = getattr(sys.modules[f"liouqsl.{mod}"], fn)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def summarize(tracer, ops):
    """Per-op medians of call counts and self times over the op ids in ``ops``.

    ``ops`` is a range. Self time is a span's duration minus the durations
    of its child spans. Returns ``(metrics, main_s)``: metric name ->
    (value, unit), and the per-op wall time inside traced ``cli.main``.
    """
    import numpy as np

    func = np.frombuffer(tracer.func, dtype=np.intc)
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    op = np.frombuffer(tracer.op_ids, dtype=np.intc)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=func.size)
    self_time = dur - child

    keep = (op >= ops.start) & (op < ops.stop)
    cols = op[keep] - ops.start
    calls = np.zeros((len(tracer.names), len(ops)))
    selfs = np.zeros_like(calls)
    np.add.at(calls, (func[keep], cols), 1.0)
    np.add.at(selfs, (func[keep], cols), self_time[keep])
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (float(np.median(calls[i])), "count")
        metrics[f"{name}.self_s"] = (float(np.median(selfs[i])), "s")

    wait = np.zeros(len(ops))
    for span, cpu in tracer.cpu.items():
        if op[span] in ops:
            wait[op[span] - ops.start] += dur[span] - cpu
    metrics["applications.mpemba_report.wait_s"] = (float(np.median(wait)), "s")

    main_s = np.zeros(len(ops))
    is_main = keep & (func == tracer.names.index("cli.main"))
    np.add.at(main_s, op[is_main] - ops.start, dur[is_main])
    return metrics, main_s.tolist()


def save(tracer, path):
    """Write every recorded span to ``path`` as a NumPy ``.npz`` archive."""
    import numpy as np

    np.savez(
        path,
        names=np.array(tracer.names),
        func=np.frombuffer(tracer.func, dtype=np.intc),
        parent=np.frombuffer(tracer.parent, dtype=np.intc),
        op=np.frombuffer(tracer.op_ids, dtype=np.intc),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
    )
