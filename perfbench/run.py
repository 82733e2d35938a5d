"""liouqsl benchmark: one workload, one seed, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/liouqsl``. With
``--trace 0`` it times fresh-interpreter imports of ``liouqsl.cli``
(set-up) and then runs the workload untraced for S seconds; with
``--trace 1`` it runs the workload untraced for S/2 seconds and then,
in a second process, traced for S/2 seconds. Every child process gets
one BLAS thread, set before NumPy is imported.

Each op and each import is paired with a run of a fixed calibration
kernel (``workload.calibrate``). The timings without a suffix are at the
reference machine speed: the median of time / calibration time, times
CAL_REF_S. Those with ``.raw`` are plain medians in seconds.

Human-readable lines come first; the last stdout line is the JSON result
whose metrics are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
entries of BENCHMARK.json. Workloads and checks live in workload.py, span
recording in tracing.py. Scratch output goes to ``.perfbench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workload import CAL_REF_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # fresh-interpreter imports per run, besides the workload's own
DEADLINE_S = 170.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import liouqsl.cli; "
    "d = time.perf_counter() - t; import workload; workload.calibrate(); "
    "print(repr(d), repr(workload.calibrate()[0]))"
)


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["TMPDIR"] = os.path.join(ROOT, ".perfbench_out", "tmp")
    return env


def _child(argv, started):
    """Run a child interpreter; return its last stdout line, or exit 1."""
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {argv[0]} ran past the {DEADLINE_S:.0f} s deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(argv[:2])} exited {proc.returncode}")
    return lines[-1]


def _reference(times, cal):
    """Median of time / paired calibration time, scaled to CAL_REF_S."""
    return statistics.median(t / c for t, c in zip(times, cal)) * CAL_REF_S


def _environment(seed, versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **versions,
        "blas_threads": "1 (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1)",
        "commit": commit,
        "seed": seed,
    }


def _workload(args, seconds, trace, started):
    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    argv = [
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--out", out,
    ]
    return json.loads(_child(argv + (["--trace"] if trace else []), started))


def main():
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="liouqsl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "liouqsl", "cli.py")):
        sys.exit(f"perfbench: no liouqsl sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench_out", "tmp"), exist_ok=True)

    metrics = {}
    if args.trace:
        plain = _workload(args, args.seconds / 2, False, started)
        run = _workload(args, args.seconds / 2, True, started)
        wanted = spec["per_layer"]
    else:
        # The first import compiles bytecode into the checkout; not timed.
        _child(["-c", IMPORT_CODE], started)
        setup = [_child(["-c", IMPORT_CODE], started).split() for _ in range(SETUP_SAMPLES)]
        run = plain = _workload(args, args.seconds, False, started)
        imports = [float(s[0]) for s in setup] + [run["import_s"]]
        import_cal = [float(s[1]) for s in setup] + [run["import_cal_s"]]
        metrics["setup_s"] = (_reference(imports, import_cal), "s", len(imports))
        metrics["setup_s.raw"] = (statistics.median(imports), "s", len(imports))
        wanted = spec["end_to_end"]

    parts = (plain, run) if args.trace else (run,)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    errors = [e for p in parts for e in p["errors"]]
    relerr = [r for p in parts for r in p["exact_time_relerr"]]
    if not all(p["op_s"] for p in parts):
        sys.exit("perfbench: no op completed: " + " | ".join(errors))
    op_s, cpu_s, cal_s = plain["op_s"], plain["op_cpu_s"], plain["cal_s"]
    n = len(op_s)
    metrics["op_s.p50"] = (_reference(op_s, cal_s), "s", n)
    metrics["op_cpu_s.p50"] = (_reference(cpu_s, plain["cal_cpu_s"]), "s", n)
    metrics["op_s.p50.raw"] = (statistics.median(op_s), "s", n)
    metrics["op_cpu_s.p50.raw"] = (statistics.median(cpu_s), "s", n)
    if n >= 100:
        metrics["op_s.p90.raw"] = (statistics.quantiles(op_s, n=10)[8], "s", n)
    metrics["calibration_s.p50"] = (statistics.median(cal_s), "s", n)
    metrics["fail_ratio"] = (failed / attempted, "1", attempted)
    if relerr:
        metrics["exact_time_relerr.max"] = (max(relerr), "1", len(relerr))
    if args.trace:
        traced = len(run["traced_main_s"])
        for name, (value, unit) in run["layers"].items():
            metrics[name] = (value, unit, traced)
        overhead = _reference(run["traced_main_s"], run["cal_s"]) / metrics["op_s.p50"][0] - 1.0
        metrics["trace_overhead.frac"] = (overhead, "1", traced)

    print(
        f"liouqsl benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}; closed loop, 1 client"
    )
    print("env " + json.dumps(_environment(args.seed, run["versions"])))
    if args.workload == "mpemba-sweep" and args.trace:
        print("note: pool workers are not traced; their time shows as "
              "applications.mpemba_report.wait_s")
    for error in errors:
        print(f"error {error}")
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} {value!r} {unit} (n={count})")

    result = {}
    for entry in wanted:
        value, unit, _count = metrics[entry["name"]]
        if unit != entry["unit"]:
            sys.exit(f"perfbench: {entry['name']} is in {unit}, not {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))


if __name__ == "__main__":
    main()
