"""One workload run inside a fresh interpreter.

Usage: ``python child.py JOB.json RESULT.json`` where the job (written by
``run.py``) names the workload, its inputs, the output directory and the
mode: ``setup`` (stop once the problem is built), ``run`` (untraced),
``trace`` (spans around every wrapped name) or ``probe`` (kernel timings).
The result JSON holds the monotonic-clock time at which set-up ended and at
which the run ended, the exit code of the CLI, the peak resident memory and,
when traced, the spans.  ``lingrow`` is imported only after the interpreter
has started, so set-up covers interpreter start, import and problem build.
"""

from __future__ import annotations

import json
import resource
import sys
import time

VECTOR_PROBE_N = 512


class SetupDone(Exception):
    """Raised in ``setup`` mode once the problem is built."""


def run_cli(job: dict, state: dict, tracer) -> int:
    import lingrow.cli as cli

    load = getattr(cli, "load_config", None)
    if load is None:
        # set-up then ends before the config load instead of after it
        state["missing"].append("lingrow.cli.load_config")
        mark_setup(job, state, tracer)
    else:
        def marked(*args, **kwargs):
            cfg = load(*args, **kwargs)
            mark_setup(job, state, tracer)
            return cfg
        cli.load_config = marked
    argv = [job["command"], "--config", job["config"], "--out", job["out"]]
    return cli.main(argv)


def mark_setup(job: dict, state: dict, tracer) -> None:
    state["setup_end"] = time.monotonic()
    if job["mode"] == "setup":
        raise SetupDone
    if tracer is not None:
        state["root"] = tracer.open("cli")


def run_probe(job: dict) -> dict:
    """Kernel and profile timings on the workload's own final field, and
    kernel timings on a 512x512 two-channel Dirichlet field."""
    import numpy as np
    from lingrow.config import load_config
    from lingrow.energy import (DirichletProblem, RegularizationState,
                                assemble_ops)
    from lingrow.grids import Grid2
    from lingrow.profiles import (minimal_surface, profile_d2, profile_eval,
                                  slope_ratio)

    from oracle import read_csv_values, slopes

    def median_ms(fn) -> float:
        for _ in range(3):
            fn()
        samples = []
        start = time.perf_counter()
        while len(samples) < 30 or (time.perf_counter() - start < 1.0
                                    and len(samples) < 300):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(samples))

    def kernels(ops, values, prefix: str) -> dict:
        return {f"{prefix}{kernel}_ms": median_ms(lambda: fn(values))
                for kernel in ("energy", "residual", "curvature_diag")
                if (fn := getattr(ops, kernel, None)) is not None}

    values = read_csv_values(job["field_csv"])
    problem = load_config(job["config"]).require_problem()
    reg = RegularizationState(job["delta"], job["mu"], problem.kind)
    out = kernels(assemble_ops(problem, reg), values, "probe.")
    profile = reg.apply(problem.density)
    t = slopes(values, job)

    def profiles_once():
        profile_eval(profile, t)
        profile_d2(profile, t)
        slope_ratio(profile, t)

    out["profiles.eval_ms"] = median_ms(profiles_once)

    # a vector field with a larger working set; its affine datum makes the
    # interior values an exact discrete critical point
    n = VECTOR_PROBE_N

    def datum(X, Y):
        return np.stack([0.2 * X - 0.1 * Y + 2.0, -0.15 * X + 0.25 * Y + 1.5],
                        axis=-1)

    vector = DirichletProblem.from_function(
        Grid2(n, n, 1.0 / n), datum, minimal_surface(), channels=2)
    ops = assemble_ops(vector, RegularizationState(job["delta"], job["mu"],
                                                   "dirichlet"))
    out.update(kernels(ops, ops.default_init(), "probe.vec512."))
    return out


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    state: dict = {"missing": []}
    if job["mode"] == "probe":
        try:
            state["probe"] = run_probe(job)
        except (ImportError, AttributeError) as err:
            # a later refactor moved a probed name: report it, do not fail
            state["probe"] = {}
            state["missing"].append(str(err))
        with open(result_path, "w") as fh:
            json.dump(state, fh)
        return 0

    tracer = None
    if job["mode"] == "trace":
        from tracing import Tracer, install
        tracer = Tracer()
        state["missing"] = install(tracer)
    try:
        state["exit_code"] = run_cli(job, state, tracer)
    except SetupDone:
        state["exit_code"] = 0
    state["end"] = time.monotonic()
    if tracer is not None:
        tracer.close(state.pop("root"))
        state["spans"] = tracer.spans
    state["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(result_path, "w") as fh:
        json.dump(state, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
