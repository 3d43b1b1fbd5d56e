"""Benchmark harness for nahmpole: one closed-loop caller, single process,
single thread.

    python3 benchmarks/run.py --workload expand-exact --seed 1 --seconds 10
    python3 benchmarks/run.py --workload flow --trace 1
    python3 benchmarks/run.py --workload all

Run from the repository root; the package is imported from ``src/``.  A run
sets its workload up three times, each ending in one discarded warm-up call
(``setup_s`` takes the median), then runs a fixed number of whole cycles of
the workload's job list, checking every output.  With ``--trace 1`` it instead
runs one cycle untraced and one traced, then the per-layer probe.

Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record with the run's
metadata, per-job outcomes and output hashes goes to
``benchmarks/out/BENCH_<workload>[_trace].json``, and the spans of a traced
run to ``benchmarks/out/spans_<workload>_<seed>.jsonl``.
"""

import os

# BLAS and OpenMP pools stay at one thread: the harness has one caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402

WORKLOAD_NAMES = ("expand-exact", "expand-float", "certify", "flow")
SETUP_REPEATS = 3

#: Bounded end-to-end metrics: the JSON result line of an untraced run.
END_TO_END = {"setup_s": "s", "jobs_per_ref_s": "1/ref_s", "peak_rss_mb": "MB"}
#: Also end to end and printed by name, but not bounded: raw wall-time
#: figures follow the shared machine's slow stretches (see calibration.py),
#: and failed_frac is 0 on most workloads.
UNBOUNDED = {"setup_wall_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
             "job_s.tail": "s", "failed_frac": "frac"}
PER_LAYER = {
    "algebra.star_wedge_us": "us", "algebra.L_op_us": "us",
    "algebra.project_us": "us", "algebra.invert_cal_L_us": "us",
    "algebra.resolve_coupled_us": "us", "algebra.bracket_0_1_us": "us",
    "algebra.star_bracket_star_us": "us", "algebra.project_us.f128": "us",
    "algebra.star_wedge_us.f128": "us",
    "series.seed_leading_ms": "ms", "series.advance_order.self_s": "s",
    "series.advance_order_ms.k8": "ms", "series.advance_order_ms.k12": "ms",
    "series.advance_order_ms.k16": "ms",
    "series.quadratic_source_ms.k12": "ms", "series.to_json_ms": "ms",
    "series.residual_at.self_s": "s", "series.residual_at.calls": "count",
    "series.check_residuals_s": "s", "series.p_useful_ratio": "ratio",
    "series.p_visited": "count",
    "series.entries": "count", "series.coeff_bits.max": "bits",
    "scalars.bigfloat_mul_us": "us", "scalars.bigfloat_add_us": "us",
    "scalars.float_is_zero_us": "us", "scalars.from_fraction_us": "us",
    "geometry.load_background_ms": "ms", "geometry.star_d_omega_us": "us",
    "geometry.d_omega_star_us": "us",
    "oracle.integrate_flow_s": "s", "oracle.accepted_steps": "count",
    "oracle.us_per_accepted_step": "us", "oracle.dp_step_us": "us",
    "oracle.state_from_series_ms": "ms", "oracle.convergence_table_ms": "ms",
    "oracle.flow_rhs_exact_us": "us", "oracle.max_dev": "abs",
    "cli.overhead_ms": "ms", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, numpy_version) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "nahmpole").glob("*.py")))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": lines,
    }


def job_metrics(cycles):
    """Throughputs are medians over cycles of verified jobs per second of
    job time, in wall seconds and in reference seconds (calibration.py).
    The job time statistics are over all completed jobs."""
    outcomes = [o for cycle, _ in cycles for o in cycle]
    ok = [o.seconds for o in outcomes if o.status == "ok"]
    rates, ref_rates = [], []
    for cycle, kernel in cycles:
        done = sum(o.status == "ok" for o in cycle)
        rates.append(done / sum(o.seconds for o in cycle))
        ref_rates.append(done / calibration.reference_total(
            [o.seconds for o in cycle], kernel))
    metrics = {"jobs_per_s": statistics.median(rates),
               "jobs_per_ref_s": statistics.median(ref_rates),
               "failed_frac": 1 - len(ok) / len(outcomes)}
    detail = {"cycles": len(cycles), "cycle_jobs_per_s": rates,
              "cycle_jobs_per_ref_s": ref_rates,
              "kernel_s": [k for _, kernel in cycles for k in kernel],
              "samples": len(ok)}
    if ok:
        value, level = tracing.tail(ok)
        metrics["job_s.p50"] = statistics.median(ok)
        metrics["job_s.tail"] = value
        detail["tail_level_pct"] = level
    return metrics, detail


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy, the package and
    the harness: the part of set-up one process cannot repeat."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
            "import numpy, nahmpole, workloads, layers")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def summarize_outcomes(outcomes) -> dict:
    by_job = {}
    for o in outcomes:
        rec = by_job.setdefault(o.name, {"runs": 0, "ok": 0, "seconds": [],
                                         "reasons": [], "sha256": ""})
        rec["runs"] += 1
        rec["ok"] += o.status == "ok"
        rec["seconds"].append(round(o.seconds, 6))
        if o.reason and o.reason not in rec["reasons"]:
            rec["reasons"].append(o.reason)
        rec["sha256"] = o.digest or rec["sha256"]
    return by_job


def run_one(args) -> int:
    if not (SRC / "nahmpole" / "__init__.py").is_file():
        print(f"error: no nahmpole package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import nahmpole
    if Path(nahmpole.__file__).resolve().parent != SRC / "nahmpole":
        print(f"error: imported nahmpole from {nahmpole.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import workloads as W
    import layers

    OUT.mkdir(exist_ok=True)
    wl = W.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibration.kernel_seconds()
        imports = import_seconds()
        start = time.perf_counter()
        prepared = wl.prepare(args.seed, OUT, W.load_refs())
        prepared.warmup()
        work = time.perf_counter() - start
        setups.append({"import_s": imports, "prepare_and_warmup_s": work,
                       "kernel_s": [before, calibration.kernel_seconds()]})
    walls = [s["import_s"] + s["prepare_and_warmup_s"] for s in setups]
    setup = {"setup_wall_s": statistics.median(walls),
             "setup_s": statistics.median(
                 calibration.to_reference(wall, *s["kernel_s"])
                 for wall, s in zip(walls, setups))}

    jobs = prepared.jobs
    record = {"meta": metadata(args, numpy.__version__), "setup": setups}
    if args.trace == 0:
        cycles = [W.run_cycle(jobs) for _ in range(wl.cycles(args.seconds))]
        outcomes = [o for cycle, _ in cycles for o in cycle]
        metrics, detail = job_metrics(cycles)
        metrics.update(setup)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        untraced = W.run_cycle(jobs)
        tracer = W.new_tracer()
        with tracer:
            traced = W.run_cycle(jobs, tracer)
        outcomes = untraced[0] + traced[0]
        plain, with_spans = (
            calibration.reference_total([o.seconds for o in cycle], kernel)
            for cycle, kernel in (untraced, traced))
        metrics = layers.probe(tracer)
        metrics["trace.overhead_frac"] = with_spans / plain - 1.0
        cycle_spans = [s for s in tracer.spans if not s.job.startswith("probe")]
        detail = {"self_s_by_span": {
            name: round(v, 6) for name, v in sorted(
                tracing.self_time_by_name(cycle_spans).items(),
                key=lambda kv: -kv[1])},
            "untraced_ref_s": plain}
        spans_path = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER

    failed = sum(o.status != "ok" for o in outcomes)
    correct = not any(o.status == "wrong" for o in outcomes)
    result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    reported = {k: {"value": metrics[k], "unit": u}
                for k, u in UNBOUNDED.items() if k in metrics}
    record.update(metrics={**result, **reported}, detail=detail,
                  attempted=len(outcomes), failed=failed, correct=correct,
                  jobs=summarize_outcomes(outcomes))
    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['meta']['commit'][:12]} "
          f"src_lines={record['meta']['src_lines']}")
    for key, m in record["metrics"].items():
        print(f"{key:34s} {m['value']:.6g} {m['unit']}")
    print(f"{failed} of {len(outcomes)} jobs failed")
    if "tail_level_pct" in detail:
        print(f"job_s.tail is p{detail['tail_level_pct']:.1f} of "
              f"{detail['samples']} completed jobs over {detail['cycles']} "
              "cycle(s)")
    if "self_s_by_span" in detail:
        print("self time by span over the traced cycle (s):")
        for name, secs in detail["self_s_by_span"].items():
            print(f"  {name:32s} {secs:.4f}")
    for name, rec in record["jobs"].items():
        for reason in rec["reasons"]:
            print(f"FAILED {name}: {reason}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": result}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
