"""One benchmark workload, run in a fresh interpreter.

A single client drives ``liouqsl.cli.main(argv)`` in a closed loop: it
writes the next op's input files, calls the CLI, waits for it to return,
then checks the artifacts against an independent reference and times the
calibration kernel, both outside the op's timed interval. Inputs are
drawn from ``--seed`` only. Op 0 is a warm-up (lazy imports, first BLAS
calls): it is checked and counted as attempted but not timed. The
measuring window of ``--seconds`` wall seconds starts after it and
includes the checks; the op in flight at its end completes.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
[--trace] --out DIR. The last stdout line is a JSON summary for run.py.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

BOUND_SLACK = 1e-8  # bound chain, as tests/test_acceptance.py criterion 5
ANGLE_TOL = 1e-8  # closed-form angles, as criterion 1
EXACT_TIME_TOL = 1e-4  # |exact_time - T| / T, as criterion 3
STATE_TOL = 1e-10  # Hermiticity and positivity of a state
TRACE_TOL = 1e-12  # unit trace, as criterion 9
SFF_TOL = 1e-10  # SFF column against the eigenbasis formula
CK0_TOL = 1e-12  # Krylov complexity at t = 0, as criterion 10


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


def _bound_chain(report):
    errors = []
    chain = ("bound_hsnorm", "bound_opnorm", "bound_mt", "bound_nc", "T")
    for lo, hi in zip(chain, chain[1:]):
        if not report[lo] <= report[hi] + BOUND_SLACK:
            errors.append(f"{lo}={report[lo]!r} exceeds {hi}={report[hi]!r}")
    return errors


def _exact_time_relerr(report, errors, extra):
    relerr = abs(report["exact_time"] - report["T"]) / report["T"]
    extra["exact_time_relerr"] = relerr
    if not relerr < EXACT_TIME_TOL:
        errors.append(f"exact-time relative error {relerr:.3e}")


def _random_hermitian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + h.conj().T) / 2


def _random_spec(rng, d, jumps=2):
    from liouqsl.lindblad import LindbladSpec

    ops = []
    for _ in range(jumps):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m /= (abs(m) ** 2).sum() ** 0.5
        ops.append((float(rng.uniform(0.2, 1.0)), m))
    return LindbladSpec(hamiltonian=_random_hermitian(rng, d), jumps=ops)


def _random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = m @ m.conj().T
    return r / r.trace().real


def qubit_report(rng, out):
    """qsl-report on the damped qubit: 4x4 generator, per-point Python work."""
    from liouqsl.applications import (
        amplitude_damping_closed_forms,
        amplitude_damping_spec,
    )
    from liouqsl.serialize import spec_to_json

    gamma = float(rng.uniform(0.02, 0.1))
    n = float(rng.uniform(0.0, 1.0))
    alpha = float(rng.uniform(0.1, 0.95))
    t_max = 40.0
    spec = _write_json(
        os.path.join(out, "spec.json"), spec_to_json(amplitude_damping_spec(gamma, n))
    )
    calls = [
        ["qsl-report", "--spec", spec, "--alpha", repr(alpha), "--t-max", repr(t_max),
         "--jobs", "1", "--out", out],
    ]

    def check(outputs, extra):
        report = _read_json(os.path.join(out, "report.json"))
        errors = _bound_chain(report)
        ref = amplitude_damping_closed_forms(alpha, gamma, n, t_max)["theta_0t"]
        if not abs(report["theta"] - ref) < ANGLE_TOL:
            errors.append(f"theta {report['theta']!r} against closed form {ref!r}")
        _exact_time_relerr(report, errors, extra)
        return errors

    return calls, check


def dense_session(rng, out):
    """validate, spectral and qsl-report on a random d = 16 spec (256x256)."""
    import numpy as np

    from liouqsl.serialize import matrix_from_json, matrix_to_json, spec_to_json

    d = 16
    spec = _write_json(os.path.join(out, "spec.json"), spec_to_json(_random_spec(rng, d)))
    rho0 = _write_json(os.path.join(out, "rho0.json"), matrix_to_json(_random_state(rng, d)))
    common = ["--jobs", "1", "--out", out]
    calls = [
        ["validate", "--spec", spec] + common,
        ["spectral", "--spec", spec] + common,
        ["qsl-report", "--spec", spec, "--rho0", rho0, "--t-max", "3"] + common,
    ]

    def check(outputs, extra):
        errors = []
        if f"spec: dim={d} jumps=2" not in outputs[0]:
            errors.append(f"validate printed {outputs[0]!r}")
        ss = matrix_from_json(_read_json(os.path.join(out, "spectral.json"))["steady_state"])
        herm = float(np.abs(ss - ss.conj().T).max())
        if not herm <= STATE_TOL:
            errors.append(f"steady state Hermiticity defect {herm:.3e}")
        trace = complex(np.trace(ss))
        if not abs(trace - 1.0) <= TRACE_TOL:
            errors.append(f"steady-state trace {trace!r}")
        low = float(np.linalg.eigvalsh((ss + ss.conj().T) / 2).min())
        if not low >= -STATE_TOL:
            errors.append(f"steady state has eigenvalue {low:.3e}")
        report = _read_json(os.path.join(out, "report.json"))
        errors += _bound_chain(report)
        _exact_time_relerr(report, errors, extra)
        return errors

    return calls, check


def mpemba_sweep(rng, out):
    """mpemba over 8 alphas through the process pool (--jobs 2)."""
    from liouqsl.applications import amplitude_damping_closed_forms

    alphas = sorted(float(a) for a in rng.uniform(0.1, 0.95, size=8))
    gamma = 0.01
    n = float(rng.uniform(0.0, 0.5))
    calls = [
        ["mpemba", "--alphas", ",".join(repr(a) for a in alphas), "--gamma", repr(gamma),
         "--n", repr(n), "--t-max", "300", "--jobs", "2", "--out", out],
    ]

    def check(outputs, extra):
        header, rows = _read_csv(os.path.join(out, "mpemba.csv"))
        errors = []
        if header != ["alpha", "t", "eta", "theta_ss", "delta"] or len(rows) != 8 * 2001:
            return [f"mpemba.csv has header {header} and {len(rows)} rows"]
        worst = 0.0
        for k, (alpha, t, _eta, theta_ss, _delta) in enumerate(rows):
            if alpha != alphas[k // 2001]:
                return [f"row {k} has alpha {alpha!r}"]
            ref = amplitude_damping_closed_forms(alpha, gamma, n, t)["theta_ss_t"]
            worst = max(worst, abs(theta_ss - ref))
        if not worst < ANGLE_TOL:
            errors.append(f"theta_ss off the closed form by {worst:.3e}")
        crossings = _read_json(os.path.join(out, "crossings.json"))
        if crossings["alphas"] != alphas:
            errors.append("crossings.json lists other alphas")
        return errors

    return calls, check


def krylov_sff(rng, out):
    """krylov on a random d = 12 Hamiltonian: Lanczos, propagation, SFF."""
    import numpy as np

    from liouqsl.serialize import matrix_to_json

    d = 12
    h = _random_hermitian(rng, d)
    beta = float(rng.uniform(0.0, 1.0))
    path = _write_json(os.path.join(out, "h.json"), matrix_to_json(h))
    calls = [
        ["krylov", "--h", path, "--beta", repr(beta), "--t-max", "5",
         "--jobs", "1", "--out", out],
    ]

    def check(outputs, extra):
        header, rows = _read_csv(os.path.join(out, "krylov.csv"))
        if header != ["t", "c_k", "sff", "bound_lhs", "bound_rhs"] or len(rows) != 2001:
            return [f"krylov.csv has header {header} and {len(rows)} rows"]
        t, c_k, sff, lhs, rhs = np.array(rows).T
        energies = np.linalg.eigvalsh(h)
        p = np.exp(-beta * (energies - energies.min()))
        p /= p.sum()
        ref = np.abs(np.exp(-1j * np.outer(t, energies)) @ p) ** 2
        errors = []
        worst = float(np.abs(sff - ref).max())
        if not worst < SFF_TOL:
            errors.append(f"sff off the eigenbasis formula by {worst:.3e}")
        if not np.all(lhs <= rhs + BOUND_SLACK):
            errors.append(f"bound_lhs exceeds bound_rhs by {float((lhs - rhs).max()):.3e}")
        if not abs(c_k[0]) < CK0_TOL:
            errors.append(f"c_k(0) = {c_k[0]!r}")
        return errors

    return calls, check


WORKLOADS = {
    "qubit-report": qubit_report,
    "dense-session": dense_session,
    "mpemba-sweep": mpemba_sweep,
    "krylov-sff": krylov_sff,
}


CAL_REF_S = 0.02  # calibration time that defines the reference machine speed


def calibrate():
    """Time a fixed kernel that does not use liouqsl; returns (wall s, cpu s).

    It mixes the three kinds of work the workloads do: a pure-Python loop,
    small NumPy calls and dense products. On a shared host the CPU speed
    can drift by tens of percent within minutes; this kernel's time follows
    that drift, so op and import times are reported relative to it as well
    as raw.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.normal(size=(4, 4))
    small = small + small.T
    big = rng.normal(size=(128, 128))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    total = 0.0
    for i in range(60000):
        total += i * 0.5
    for _ in range(1200):
        np.linalg.eigvalsh(small)
        small @ small
    for _ in range(40):
        big @ big
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _run_op(cli, calls):
    """Call the CLI once per argv; returns (wall s, cpu s, exit codes, stdouts)."""
    codes, outputs = [], []
    wall0, cpu0, child0 = time.perf_counter(), time.process_time(), _children_cpu()
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            codes.append(cli.main(argv))
        outputs.append(buf.getvalue())
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 + _children_cpu() - child0
    return wall, cpu, codes, outputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import liouqsl.cli as cli

    import_s = time.perf_counter() - t0
    import numpy as np

    calibrate()  # first NumPy calls pay lazy set-up
    import_cal_s = calibrate()[0]
    prev_cal = None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rng = np.random.default_rng(args.seed)
    make = WORKLOADS[args.workload]
    op_dir = os.path.join(args.out, "op")
    wall_s, cpu_s, cal_s, cal_cpu_s, relerr, errors = [], [], [], [], [], []
    attempted = failed = 0
    window = None
    while window is None or time.perf_counter() - window < args.seconds:
        shutil.rmtree(op_dir, ignore_errors=True)  # no artifact survives its op
        os.makedirs(op_dir)
        calls, check = make(rng, op_dir)
        if tracer is not None:
            tracer.op = attempted
        extra = {}
        wall = None
        try:
            wall, cpu, codes, outputs = _run_op(cli, calls)
            op_errors = [f"{c[0]} exited {code}: {o.strip()[-200:]}"
                         for c, code, o in zip(calls, codes, outputs) if code != 0]
            if not op_errors:
                op_errors = check(outputs, extra)
        except Exception:  # the CLI raised, or an artifact is missing or malformed
            op_errors = [traceback.format_exc(limit=3)]
        cal = calibrate()
        if window is None:
            window = time.perf_counter()
        elif wall is not None:
            wall_s.append(wall)
            cpu_s.append(cpu)
            # the calibrations just before and just after the op bracket it
            cal_s.append((prev_cal[0] + cal[0]) / 2)
            cal_cpu_s.append((prev_cal[1] + cal[1]) / 2)
        prev_cal = cal
        attempted += 1
        if op_errors:
            failed += 1
            errors.append(f"op {attempted - 1}: " + "; ".join(op_errors))
        if "exact_time_relerr" in extra:
            relerr.append(extra["exact_time_relerr"])

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "import_s": import_s,
        "import_cal_s": import_cal_s,
        "op_s": wall_s,
        "op_cpu_s": cpu_s,
        "cal_s": cal_s,
        "cal_cpu_s": cal_cpu_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "exact_time_relerr": relerr,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        layers, main_s = tracing.summarize(tracer, range(1, attempted))
        result["layers"] = layers
        result["traced_main_s"] = main_s
        tracing.save(tracer, os.path.join(args.out, "spans.npz"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
