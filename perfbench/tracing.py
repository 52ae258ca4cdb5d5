"""Spans recorded around the calls into each lingrow layer.

A span is ``[name, start, end, parent, attrs]`` with monotonic-clock times
in seconds and ``parent`` the index of the enclosing span (-1 for none).
Spans stay in memory and are written out when the run ends.  The program
is single-threaded while traced (``LINGROW_THREADS`` is unset, so the CLI's
audit pool has one worker and the caller waits on it), so one stack gives
every span its parent.

The wrapped names are module attributes; a name that a later refactor
removes is listed as missing, and the metrics it fed read 0.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute, span name); the span name carries the layer (module)
# where the function lives, which need not be the module it is looked up in.
WRAPPED = (
    ("lingrow.cli", "load_config", "config.load_config"),
    ("lingrow.cli", "continuation_solve", "solver.continuation_solve"),
    ("lingrow.cli", "moser_report", "moser.moser_report"),
    ("lingrow.cli", "verify_minimality", "solver.verify_minimality"),
    ("lingrow.cli", "certify_conditions", "profiles.certify_conditions"),
    ("lingrow.cli", "select_radius", "moser.select_radius"),
    ("lingrow.cli", "field_to_csv", "pgmio.field_to_csv"),
    ("lingrow.cli", "write_pgm", "pgmio.write_pgm"),
    ("lingrow.solver", "minimize_fixed_delta", "solver.minimize_fixed_delta"),
    ("lingrow.solver", "assemble_ops", "solver.assemble_ops"),
)
KERNELS = ("energy", "residual", "curvature_diag")
ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.monotonic()
        span[4] = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def wrap(self, fn, name: str, attrs_of=None):
        """Wrap fn in a span; ``attrs_of(args, result)`` adds attributes."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, result)
                return result
            finally:
                self.close(idx, attrs)

        wrapper.__wrapped__ = fn
        return wrapper


class _TimedOps:
    """Proxy for the kernel object ``assemble_ops`` returns."""

    def __init__(self, ops, tracer: Tracer):
        self._ops = ops
        for kernel in KERNELS:
            if hasattr(ops, kernel):
                setattr(self, kernel, tracer.wrap(getattr(ops, kernel),
                                                  f"energy.{kernel}"))

    def __getattr__(self, name):
        return getattr(self._ops, name)


def _rung_attrs(args, result) -> dict:
    stats = result[1]
    return {"iters": int(stats.iters), "backtracks": int(stats.backtracks)}


def _bytes_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPPED; returns the names that do not exist."""
    missing = []
    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if attr == "assemble_ops":
            def timed(*args, _fn=fn, **kwargs):
                return _TimedOps(_fn(*args, **kwargs), tracer)
            fn = timed
        attrs_of = {"minimize_fixed_delta": _rung_attrs,
                    "field_to_csv": _bytes_attrs,
                    "write_pgm": _bytes_attrs}.get(attr)
        setattr(module, attr, tracer.wrap(fn, span, attrs_of))
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _under(spans, idx: int, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics (seconds, counts) from one traced run."""
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
    if len(roots) != 1:
        raise ValueError("a traced run needs exactly one root span")
    root = roots[0]
    inside = [i for i in range(len(spans)) if i == root
              or _under(spans, i, (ROOT,))]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def named(name):
        return [i for i in inside if spans[i][0] == name]

    def total(*names):
        return sum(dur(i) for name in names for i in named(name))

    def attr(i, key):
        return (spans[i][4] or {}).get(key, 0)

    m: dict[str, float] = {}
    for kernel in KERNELS:
        calls = len(named(f"energy.{kernel}"))
        m[f"energy.{kernel}.calls"] = calls
        m[f"energy.{kernel}.ms_per_call"] = \
            1e3 * total(f"energy.{kernel}") / calls if calls else 0.0
    m["energy.self_s"] = total(*(f"energy.{k}" for k in KERNELS))

    rungs = [i for i in named("solver.minimize_fixed_delta")
             if _under(spans, i, ("solver.continuation_solve",))]
    m["solver.solve_s"] = total("solver.continuation_solve")
    m["solver.iters"] = sum(attr(i, "iters") for i in rungs)
    m["solver.backtracks"] = sum(attr(i, "backtracks") for i in rungs)
    for k in range(4):
        m[f"solver.rung{k}.iters"] = attr(rungs[k], "iters") \
            if k < len(rungs) else 0
        m[f"solver.rung{k}.s"] = dur(rungs[k]) if k < len(rungs) else 0.0
    rung_set = set(rungs)
    rung_energy = sum(1 for i in named("energy.energy")
                      if spans[i][3] in rung_set)
    m["solver.accept_ratio"] = m["solver.iters"] / rung_energy \
        if rung_energy else 0.0
    m["solver.self_s"] = sum(own[i] for i in inside
                             if spans[i][0].startswith("solver."))
    m["solver.minimality_s"] = total("solver.verify_minimality")

    m["profiles.certify_s"] = total("profiles.certify_conditions")
    m["moser.report_s"] = total("moser.moser_report")
    m["moser.calls"] = len(named("moser.moser_report"))
    m["moser.select_radius_s"] = total("moser.select_radius")
    m["pgmio.csv_write_s"] = total("pgmio.field_to_csv")
    m["pgmio.pgm_write_s"] = total("pgmio.write_pgm")
    m["pgmio.bytes_written"] = sum(
        attr(i, "bytes")
        for i in named("pgmio.field_to_csv") + named("pgmio.write_pgm"))
    setup = [i for i, s in enumerate(spans)
             if s[0] == "config.load_config" and i not in inside]
    m["config.load_s"] = sum(dur(i) for i in setup)
    m["cli.self_s"] = own[root]
    m["trace.wall_s"] = dur(root)
    m["trace.self_sum_s"] = sum(own[i] for i in inside)
    return m
