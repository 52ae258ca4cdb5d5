"""lingrow benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the repository root.  Each measured run is a fresh interpreter
started from this process, one at a time: a closed loop with one client.
The children import lingrow from ``src/`` and run with one BLAS/OpenMP
thread and ``LINGROW_THREADS`` unset.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (interpreter
start, import and problem build; median of the set-up-only runs made before
each measured run and of the measured runs), ``wall_s`` (after set-up until
every artifact is written; median) and ``peak_rss_mb`` (median).
``--trace 1`` alternates an untraced and a traced run and reports the
per-layer metrics of the traced one, the tracing overhead, and kernel
probes timed in a separate child.  Runs are started until ``--seconds``
have passed, and at least two, so that the artifacts of two runs at the
same seed can be compared byte for byte; the last one started runs to its
end.

Every run passes the correctness gate in ``oracle.py`` or counts as failed.
The last line of standard output is the JSON result; the line before it
records the environment.  ``--smoke`` runs the same code on tiny grids.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# set-up-only runs before each measured run, so that they spread over the
# same stretch of time as the measured runs
SETUP_RUNS = 3
# a child that runs this many times longer than the measuring window, or
# than the longest run so far, is taken to hang and is killed ...
HANG_FACTOR = 3.0
# ... but never sooner than this: interpreter start and import alone can
# take seconds on a loaded machine
HANG_FLOOR_S = 30.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("LINGROW_THREADS", "PYTHONPATH")}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def environment() -> dict:
    import numpy
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        # only this checkout's own history, not an enclosing repository's
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "lingrow"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    env = child_env()
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: env.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "LINGROW_THREADS")}}


def artifact_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Bench:
    def __init__(self, name: str, seed: int, smoke: bool, work: str):
        self.work = work
        self.job = workloads.make_job(name, seed, smoke,
                                      os.path.join(work, "inputs"))
        self.reference = oracle.load_reference()[name][
            "smoke" if smoke else "full"]
        self.timeout = HANG_FLOOR_S
        self.env = child_env()
        self.count = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.passed: list[str] = []

    def cleanup(self) -> None:
        """Drop the inputs and the artifacts of passed runs; failed runs
        keep theirs for inspection."""
        for path in self.passed + [os.path.join(self.work, "inputs")]:
            shutil.rmtree(path, ignore_errors=True)

    def child(self, mode: str, extra: dict | None = None):
        """Run one child; returns (result or None, start time, job)."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        job = dict(self.job, mode=mode, out=os.path.join(self.work, tag),
                   **(extra or {}))
        job_path = os.path.join(self.work, f"{tag}.job.json")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path,
             result_path], cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._fail(job, "timed out")
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        if proc.returncode != 0:
            return self._fail(job, f"child exit {proc.returncode}: {tail}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["stderr"] = tail
        return result, start, job

    def _fail(self, job: dict, message: str):
        self.failures.append(f"{job['out']}: {message}")
        return None, None, job

    def measured(self, mode: str) -> dict | None:
        """One checked run; returns its timings, or None if it failed."""
        result, start, job = self.child(mode)
        if result is None:
            return None
        fails = [] if result["exit_code"] == 0 else \
            [f"exit code {result['exit_code']} {result['stderr']}"]
        try:
            fails += oracle.check_cli(job, self.reference)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            fails.append(f"malformed artifacts: {err!r}")
        digest = artifact_digest(job["out"])
        if self.digest is None and not fails:
            self.digest = digest
        elif self.digest is not None and digest != self.digest:
            fails.append("artifacts differ from an earlier run at this seed")
        if fails:
            self._fail(job, "; ".join(fails))
            return None
        self.passed.append(job["out"])
        return {"setup_s": result["setup_end"] - start,
                "wall_s": result["end"] - result["setup_end"],
                "peak_rss_mb": result["peak_rss_mb"],
                "spans": result.get("spans"),
                "missing": result.get("missing", []), "out": job["out"]}

    def setup_time(self) -> float | None:
        result, start, _ = self.child("setup")
        return None if result is None else result["setup_end"] - start


def _median(values):
    return statistics.median(values) if values else None


def measure(bench: Bench, seconds: float, trace: bool):
    """Returns (metrics or None, names not found in lingrow)."""
    start = time.monotonic()
    setups, plain, traced = [], [], []
    runs = 0
    longest = 0.0
    while runs < 2 or time.monotonic() - start < seconds:
        if runs >= 4 and not plain:
            break  # nothing succeeds; do not spend the budget on it
        bench.timeout = max(HANG_FLOOR_S,
                            HANG_FACTOR * max(seconds, longest))
        if not trace:
            setups += [t for t in (bench.setup_time()
                                   for _ in range(SETUP_RUNS))
                       if t is not None]
        mode = "trace" if trace and runs % 2 == 1 else "run"
        t0 = time.monotonic()
        run = bench.measured(mode)
        longest = max(longest, time.monotonic() - t0)
        runs += 1
        if run is not None:
            (traced if mode == "trace" else plain).append(run)
    missing = sorted({m for run in plain + traced for m in run["missing"]})
    if not trace:
        return {"setup_s": _median(setups + [r["setup_s"] for r in plain]),
                "wall_s": _median([r["wall_s"] for r in plain]),
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain])}, \
            missing
    if not traced or not plain:
        return None, missing
    layers = [tracing.summarize(r["spans"]) for r in traced]
    metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - _median([r["wall_s"] for r in plain]))
    probe, _, _ = bench.child("probe", {
        "field_csv": os.path.join(traced[-1]["out"], "solution_final.csv"),
        "delta": workloads.FINAL_DELTA, "mu": workloads.MU})
    if probe is not None:
        metrics.update(probe["probe"])
        missing += probe["missing"]
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lingrow", "__init__.py")):
        print(f"perfbench: no lingrow sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, args.smoke, work)
    metrics, missing = measure(bench, args.seconds, bool(args.trace))
    bench.cleanup()
    for line in bench.failures:
        print(f"perfbench: FAILED {line}")
    if metrics is None or None in metrics.values():
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    unmeasured = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing or unmeasured:
        print("perfbench: not found in lingrow: " + ", ".join(missing)
              + "; reported as 0: " + ", ".join(unmeasured))
    metrics.update(dict.fromkeys(unmeasured, 0))
    result = {
        "correct": not bench.failures,
        "attempted": bench.count, "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = environment()
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"environment": env, "result": result,
                   "all_metrics": metrics}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
