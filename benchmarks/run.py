"""Benchmark of herbst: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload threshold_pipeline --seed 1 --seconds 40 --trace 0

``--trace 0`` times whole passes of the workload for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` alternates plain and traced
passes for ``--seconds`` and reports the per-layer metrics.  Every result
of every pass is checked; ``attempted``/``failed`` count the checked
operations and ``correct`` is true only when none failed.

The last line of standard output is the result object, and the line before
it holds the provenance and the failures.  The full record, with the spans
of a traced run, is written to ``.bench_out/`` in the checkout.  The
benchmark imports herbst from the checkout's ``src/`` and exits with an
error, printing no result, when that is missing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (the set-up probe times everything after _T0)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from hashlib import sha256  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, Pass, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("threshold_pipeline", "fixed_grid_scan")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "mu0_delta_rel": "ratio", "b_delta_rel": "ratio"}

# Busy seconds (``<name>.s``) of each wrapped call.
SPAN_SECONDS = (
    "kernel.green_function", "kernel.b_profile", "kernel.series_remainder",
    "kernel.envelope_holds", "kernel.h3_root", "kernel.GreenKernelTable",
    "specfun.k0_weighted_integral", "specfun.bessel_k",
    "quad.radial_fourier3", "quad.integrate_adaptive", "fourierb.hankel",
    "spectral.s_wave_reduce", "spectral.leading_eigenpair",
    "spectral.gauss_legendre", "spectral.eigen_continuation",
    "threshold.small_x_constants", "threshold.expansion_from_state",
    "threshold.energy_of_lambda", "threshold.u_reconstruct",
    "threshold.tune_zero_overlap", "threshold.coefficient_b",
    "threshold.zero_energy_condition", "cli.main",
)
COUNTS = (
    "kernel.green_function.calls", "kernel.series_remainder.calls",
    "kernel.GreenKernelTable.calls", "specfun.k0_weighted_integral.calls",
    "specfun.bessel_k.points", "quad.radial_fourier3.calls",
    "quad.radial_fourier3.fail", "quad.integrate_adaptive.calls",
    "fourierb.hankel.calls", "spectral.s_wave_reduce.calls",
    "spectral.s_wave_reduce.n2", "spectral.leading_eigenpair.calls",
    "cli.main.calls",
)
MAXIMA = {"spectral.s_wave_reduce.peak_mb": "MB",
          "kernel.green_function.oracle_dev": "ratio",
          "threshold.coefficient_b.route_dev": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    units = {f"{name}.s": "s" for name in SPAN_SECONDS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "count" for name in COUNTS})
    units.update(MAXIMA)
    units["trace.overhead_ratio"] = "ratio"
    return units


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_workloads():
    """Put the checkout's ``src/`` first on the path and load the workloads."""
    if not (SRC / "herbst" / "__init__.py").is_file():
        raise SystemExit(f"error: herbst sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, trace: bool, nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = sha256()
    for path in sorted((SRC / "herbst").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc, "cpu": _cpu_model(),
    }


def setup_seconds(workload: str, seed: int, reduced: bool, probes: int) -> list[float]:
    """Set-up time of fresh interpreters: import herbst, draw inputs, build state."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    if reduced:
        cmd.append("--reduced")
    samples = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _traced_metrics(tracer, pass_ids: list[int], peaks: dict[str, float],
                    plain_walls, traced_walls) -> dict:
    busy = [tracer.busy_seconds(i) for i in pass_ids]
    by_layer = [tracer.seconds_by_layer(i) for i in pass_ids]
    counts = tracer.counters[pass_ids[0]]
    values = {}
    for name in SPAN_SECONDS:
        values[f"{name}.s"] = statistics.median(b.get(name, 0.0) for b in busy)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(s[layer] for s in by_layer)
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    for name in MAXIMA:
        values[name] = peaks.get(name, 0.0)
    values["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls))
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reduced: bool = False, setup_probes: int = 5,
                 out_dir: Path = OUT_DIR) -> dict:
    """Set up, run passes for ``seconds`` and return the full record."""
    nproc = cap_blas_threads()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        state = wl.setup(seed, reduced, work_dir)
        setup = [] if trace else setup_seconds(workload, seed, reduced, setup_probes)

        passes, plain_walls, traced_walls = [], [], []
        tracer = Tracer() if trace else None
        if trace:
            # tracemalloc slows allocation-heavy calls such as s_wave_reduce,
            # so the memory peaks come from a pass of their own, not timed
            memory = Tracer(memory_spans=workloads.MEMORY_SPANS)
            passes.append(Pass(0, memory))
            wl.run_pass(state, passes[0])
        start = time.perf_counter()
        while True:
            use_tracer = tracer if trace and len(passes) % 2 == 0 else None
            ctx = Pass(len(passes), use_tracer)
            t = time.perf_counter()
            wl.run_pass(state, ctx)
            (traced_walls if use_tracer else plain_walls).append(time.perf_counter() - t)
            passes.append(ctx)
            if time.perf_counter() - start >= seconds and (traced_walls or not trace):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(ctx.attempted for ctx in passes)
    failures = [f for ctx in passes for f in ctx.failures]
    if trace:
        traced_ids = [ctx.pass_id for ctx in passes if ctx.tracer is tracer]
        attempted += 1
        if any(tracer.counters[i] != memory.counters[0] for i in traced_ids):
            failures.append("trace.counts_repeat: per-layer counts differ between passes")
        peaks = dict(memory.peaks[0])
        for i in traced_ids:
            for name, value in tracer.peaks[i].items():
                peaks[name] = max(peaks.get(name, value), value)
        values = _traced_metrics(tracer, traced_ids, peaks, plain_walls, traced_walls)
        units = per_layer_units()
    else:
        values = {
            "wall_s": statistics.median(plain_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # read after peak_rss_mb, so that these solves do not count in it
        values.update(passes[-1].outputs if wl.doubling_n is None
                      else wl.grid_doubling(reduced))
        units = END_TO_END

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "provenance": provenance(workload, seed, trace, nproc),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "plain_pass_walls": plain_walls,
        "traced_pass_walls": traced_walls,
        "setup_samples": setup,
        "result": result,
    }
    if trace:
        record["counts"] = {i: dict(c) for i, c in tracer.counters.items()}
        record["spans"] = tracer.dump()
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def _probe_setup(workload: str, seed: int, reduced: bool) -> None:
    cap_blas_threads()
    workloads = import_workloads()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        workloads.WORKLOADS[workload].setup(seed, reduced, Path(work_dir))
        print(time.perf_counter() - _T0)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="how long to keep running passes (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small counts, for smoke tests; not comparable to full runs")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        _probe_setup(args.workload, args.seed, args.reduced)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          reduced=args.reduced)
    summary = {key: record[key] for key in ("provenance", "fail_ratio", "failures")}
    print(json.dumps(summary))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
