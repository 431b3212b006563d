"""Benchmark of the paulisdp pipeline: four workloads, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ``src/``, so
nothing is installed.  A client runs its workload's sets of fits back to
back, taking the sets in turn, as long as the next set still fits in
``--seconds`` (at least one set), and checks every fit with the workload's
gate.  There is no warm-up set: users pay every fit in full.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median seconds per
set), ``setup_s`` (median over fresh processes of the seconds from process
start to being ready for the first fit) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced sets and prints the per-layer metrics of
``tracing.LAYER_METRICS`` (medians over the traced sets).  The last stdout
line is the JSON result; the lines before it give the environment, the
failure fraction and, on ``shots_ising6``, ``shots_err``.  Every run also
writes its result, environment, per-fit outcomes and spans to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# BLAS sizes its thread pool when numpy loads: cap it at nproc before that.
for _var in BLAS_THREAD_VARS:
    _value = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_value), NPROC) if _value.isdigit() and int(_value) > 0 else NPROC)
if not (ROOT / "src" / "paulisdp").is_dir():
    sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'paulisdp'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS as the library reports them."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over src/, which identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready seconds of fresh processes that import and build the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


def run_set(workload, fits: list, inputs: dict, refs: dict, tracer: Tracer | None = None) -> dict:
    """One set of fits back to back, then every fit's gate.

    Returns the summed fit seconds, the per-fit outcomes and the fitted
    solvers.  An exception inside a fit fails that fit and the set goes on.
    """
    wall = 0.0
    finished = []
    with tracer.installed() if tracer else nullcontext():
        for fit in fits:
            start = time.perf_counter()
            solver, error = None, None
            try:
                with tracer.span("solvers.fit") if tracer else nullcontext():
                    solver = fit.run()
            except Exception as exc:  # noqa: BLE001 - a failing fit is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
            finished.append((fit, solver, error))
    done, outcomes = {}, []
    for fit, solver, error in finished:
        if solver is None:
            failed = [error]
        else:
            failed = workload.check(fit, solver, done, inputs, refs)
            done[fit.label] = solver
        outcomes.append({"fit": repr(fit.label), "failed": failed})
    return {"wall_s": wall, "fits": outcomes, "solvers": done}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, then run sets for ``seconds``; returns metrics and a record."""
    workload = WORKLOADS[name]
    setup = None if trace else setup_seconds(name, seed)
    build_tracer = Tracer()
    with build_tracer.span("models.build"):
        inputs = workload.build(seed)
    refs = workload.references(inputs)
    sets = workload.sets(inputs)
    energies = {}  # first energy of each fit, for shots_err

    def one_set(fits, tracer=None) -> dict:
        # Drop the fitted solvers before the next set, so a run's peak RSS
        # is that of one set however many sets fit in the run.
        result = run_set(workload, fits, inputs, refs, tracer)
        if hasattr(workload, "shots_err"):
            for label, solver in result["solvers"].items():
                energies.setdefault(label, solver.energy_)
        del result["solvers"]
        return result

    untraced, traced, tracers = [], [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        fits = sets[len(untraced) % len(sets)]
        untraced.append(one_set(fits))
        if trace:
            tracers.append(Tracer())
            traced.append(one_set(fits, tracers[-1]))
        now = time.perf_counter()
        if (now - began) + (now - start) > seconds:
            break

    outcomes = [o for s in untraced + traced for o in s["fits"]]
    failed = sum(bool(o["failed"]) for o in outcomes)
    wall = statistics.median(s["wall_s"] for s in untraced)
    if trace:
        per_set = [layer_metrics(t.spans) for t in tracers]
        values = {key: statistics.median(m[key] for m in per_set) for key in per_set[0]}
        values["models.build_s"] = build_tracer.spans[0][3] - build_tracer.spans[0][2]
        values["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - wall
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in LAYER_METRICS.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": wall, "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}

    extras = {"fail_frac": failed / len(outcomes)}
    if energies:
        extras["shots_err"] = workload.shots_err(list(energies.values()), refs)
        extras["shots_err_fits"] = len(energies)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "result": result,
        "extras": extras,
        "set_walls_s": {"untraced": [s["wall_s"] for s in untraced],
                        "traced": [s["wall_s"] for s in traced]},
        "setup_samples_s": setup,
        "fits": outcomes,
        "spans": build_tracer.spans + [span for t in tracers for span in t.spans],
    }
    return record


def _summary(record: dict) -> str:
    result, extras = record["result"], record["extras"]
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    parts.append(f"fail_frac {extras['fail_frac']:.6g} ({result['failed']} of {result['attempted']} fits)")
    if "shots_err" in extras:
        parts.append(f"shots_err {extras['shots_err']:.6g} energy (RMS E_shots - E_exact "
                     f"over {extras['shots_err_fits']} sample seeds)")
    return f"{record['workload']} seed {record['seed']}: " + ", ".join(parts)


def run_all(args) -> int:
    """Every workload in its own process; prints each summary and a JSON map."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"{name}: exit code {child.returncode}")
            return child.returncode
        lines = child.stdout.strip().splitlines()
        print(lines[-2])
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        WORKLOADS[args.workload].build(args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=repr))
    for outcome in record["fits"]:
        if outcome["failed"]:
            print(f"FAILED fit {outcome['fit']}: {'; '.join(outcome['failed'])}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print(_summary(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
