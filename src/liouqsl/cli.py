"""Command-line front end.

Seven subcommands: evolve, qsl-report, spectral, optimal, mpemba,
krylov, and validate. Specs and reports travel as JSON, time series as
CSV with 17-significant-digit floats. Exit codes: 0 success, 1 input
validation failure, 2 numerical failure; stderr carries one structured
line naming the command and the failing quantity.

Each command's help and options, with every option's type and default,
are declared once, in _COMMANDS; a non-finite --alpha, --gamma, --n,
--beta or --alphas entry is a usage error. _parser builds only the
invoked command's subparser; all seven only for top-level help, an
unknown command or none. On a Xeon core with Python 3.11 and one BLAS
thread, building and parsing with all seven took about 1.0 ms per call and
with one 0.3 ms, against about 2.6 ms for a whole in-process qsl-report on
the damped qubit (best of 200 calls each).
"""

import argparse
import os
import sys

import numpy as np

from .applications import (
    coherent_gibbs_state,
    krylov_bound_check,
    krylov_build,
    mpemba_report,
    sff,
    superposition_state,
)
from .evolve import propagate_expm
from .exceptions import (
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    ValidationError,
)
from .lindblad import build_liouvillian
from .liouville import vectorize
from .optimal import (
    GeodesicSpec,
    optimal_liouvillian,
    physicality_check,
    relative_purity,
)
from .qsl import _horizon_grid, _trace_speed, exact_qsl
from .serialize import (
    _read_json,
    dump_json,
    load_spec,
    matrix_from_json,
    matrix_to_json,
    write_csv,
)
from .spectral import _phased, spectral_decompose, steady_state

__all__ = ["run", "main"]


def _load_matrix(path):
    return matrix_from_json(_read_json(path, "matrix"))


def _initial_state(cfg, spec):
    if cfg.rho0_path:
        return _load_matrix(cfg.rho0_path)
    if spec.dim != 2:
        raise ValidationError(
            "--alpha initial states are defined for qubit specs; "
            "pass --rho0 for other dimensions"
        )
    return superposition_state(cfg.alpha)


def _trace_rows(trace, liouvillian, dump_states):
    d = trace.dim
    header = ["t", "purity", "overlap", "speed"]
    speeds = _trace_speed(trace, liouvillian)
    columns = [trace.times, trace.purity, trace.overlap_with_initial, speeds]
    if dump_states:
        sep = "_" if d > 10 else ""  # else re_1,10 and re_11,0 both read re_110
        names = [f"{i}{sep}{j}" for i in range(d) for j in range(d)]
        header += [f"re_{n}" for n in names] + [f"im_{n}" for n in names]
        flat = trace.states.reshape(len(trace), d * d)
        columns += list(flat.real.T) + list(flat.imag.T)
    return header, np.column_stack(columns)


def _cmd_evolve(cfg):
    spec = load_spec(cfg.spec_path)
    rho0 = _initial_state(cfg, spec)
    L = build_liouvillian(spec).full
    trace = propagate_expm(L, rho0, cfg.times)
    header, rows = _trace_rows(trace, L, cfg.dump_states)
    write_csv(os.path.join(cfg.out, "trace.csv"), header, rows)
    return 0


def _cmd_qsl_report(cfg):
    spec = load_spec(cfg.spec_path)
    rho0 = _initial_state(cfg, spec)
    L = build_liouvillian(spec).full
    trace = propagate_expm(L, rho0, cfg.times)
    report = exact_qsl(trace, L)
    dump_json(report.to_json(), os.path.join(cfg.out, "report.json"))
    return 0


def _cmd_spectral(cfg):
    spec = load_spec(cfg.spec_path)
    L = build_liouvillian(spec).full
    sd = spectral_decompose(L)
    try:
        rho_ss = matrix_to_json(steady_state(sd))
    except NonUniqueSteadyStateError:  # closed or dephasing dynamics, say
        rho_ss = None
    rates = np.abs(sd.eigenvalues.real).tolist()
    doc = {
        "eigenvalues": [
            {"re": float(w.real), "im": float(w.imag)} for w in sd.eigenvalues
        ],
        "condition": sd.condition,
        "timescales": [None if s else 1.0 / r for r, s in zip(rates, sd.stationary)],
        "steady_state": rho_ss,
    }
    dump_json(doc, os.path.join(cfg.out, "spectral.json"))
    return 0


def _cmd_optimal(cfg):
    rho0 = _load_matrix(cfg.rho0_path)
    rho_perp = _load_matrix(cfg.rho_perp_path)
    gs = GeodesicSpec(rho0=rho0, rho0_perp=rho_perp, gamma=cfg.gamma)
    L = optimal_liouvillian(gs)
    trace = propagate_expm(L, gs.rho0, cfg.times)
    report = exact_qsl(trace, L)
    weights = relative_purity(gs.rho0, trace)
    physical = physicality_check(gs.rho0, trace)
    certificate = {
        "T": report.T,
        "theta": report.theta,
        "mt_ratio": report.bound_mt / report.T,
        "nc_ratio": report.bound_nc / report.T,
        "exact_time_ratio": report.exact_time / report.T,
        "length_minus_theta": report.wootters_length - report.theta,
        "monotone_relative_purity": bool(np.all(np.diff(weights) < 0.0)),
        "physical_at_all_points": bool(np.all(physical)),
    }
    dump_json(certificate, os.path.join(cfg.out, "certificate.json"))
    header, rows = _trace_rows(trace, L, cfg.dump_states)
    write_csv(os.path.join(cfg.out, "trace.csv"), header, rows)
    return 0


def _cmd_mpemba(cfg):
    report = mpemba_report(cfg.alphas, cfg.gamma, cfg.n, cfg.t_max, cfg.points)
    per_alpha = report.times.size
    rows = np.column_stack(
        [
            np.repeat(report.alphas, per_alpha),
            np.tile(report.times, report.alphas.size),
            np.repeat(report.eta, per_alpha),
            report.theta_ss.ravel(),
            np.repeat(report.delta, per_alpha),
        ]
    )
    write_csv(
        os.path.join(cfg.out, "mpemba.csv"),
        ["alpha", "t", "eta", "theta_ss", "delta"],
        rows,
    )
    dump_json(report.to_json(), os.path.join(cfg.out, "crossings.json"))
    return 0


def _cmd_krylov(cfg):
    hamiltonian = _load_matrix(cfg.h_path)
    rho_beta = coherent_gibbs_state(hamiltonian, cfg.beta)
    rho0 = _load_matrix(cfg.rho0_path) if cfg.rho0_path else rho_beta
    kd = krylov_build(hamiltonian, rho0, cfg.times)
    lhs, rhs = krylov_bound_check(kd)
    if cfg.rho0_path:  # Re sum_i |c_i|^2 exp(lambda_i t) of the Gibbs start, same modes
        modes = spectral_decompose(kd.generator)
        weights = np.abs(modes.overlaps(vectorize(rho_beta))) ** 2
        gibbs = _phased(modes.eigenvalues, weights, kd.times).real.sum(axis=-1)
    else:
        gibbs = sff(kd.trace)
    rows = np.column_stack([kd.times, kd.complexity, gibbs, lhs, rhs])
    write_csv(
        os.path.join(cfg.out, "krylov.csv"),
        ["t", "c_k", "sff", "bound_lhs", "bound_rhs"],
        rows,
    )
    return 0


def _cmd_validate(cfg):
    spec = load_spec(cfg.spec_path)
    parts = build_liouvillian(spec)
    trace_defect = float(
        np.abs(vectorize(np.eye(spec.dim, dtype=complex)).conj() @ parts.full).max()
    )
    sd = spectral_decompose(parts.full)
    print(f"spec: dim={spec.dim} jumps={len(spec.jumps)}")
    print(f"trace-preservation defect: {trace_defect:.3e}")
    print(f"spectral condition: {sd.condition:.3e}")
    rates = np.abs(sd.eigenvalues.real[~sd.stationary])
    print("slowest decay rate:", f"{rates.min():.6g}" if rates.size else "none")
    return 0


def finite(text):
    """A finite float option value. argparse reports a ValueError as a usage
    error that names the option and this converter: "invalid finite value"."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def finite_list(text):
    """The comma-separated --alphas entries, each one finite."""
    return tuple(finite(a) for a in text.split(",") if a.strip())


_SPEC = ("--spec", {"required": True, "dest": "spec_path"})
_ALPHA = ("--alpha", {"type": finite, "default": 0.5})
_RHO0 = ("--rho0", {"dest": "rho0_path"})
_DUMP_STATES = ("--dump-states", {"action": "store_true", "dest": "dump_states"})
_COMMON = (
    ("--out", {"default": "./out", "help": "output directory"}),
    ("--jobs", {"type": int,
                "help": "accepted and ignored; every command runs serially"}),
)
# Only the five commands that read cfg.times declare the grid.
_GRID = (
    ("--points", {"type": int, "default": 2001}),
    ("--t-max", {"type": float, "default": 10.0, "dest": "t_max"}),
)

# name: (runner, help, options before _COMMON), in the order --help lists them
_COMMANDS = {
    "evolve": (_cmd_evolve, "propagate a spec and dump the trace",
               (_SPEC, _ALPHA, _RHO0, _DUMP_STATES) + _GRID),
    "qsl-report": (_cmd_qsl_report, "bound report for one trajectory",
                   (_SPEC, _ALPHA, _RHO0) + _GRID),
    "spectral": (_cmd_spectral, "eigenmodes and steady state", (_SPEC,)),
    "optimal": (_cmd_optimal, "straight-line dynamics certificate",
                (("--rho0", {"required": True, "dest": "rho0_path"}),
                 ("--rho-perp", {"required": True, "dest": "rho_perp_path"}),
                 ("--gamma", {"type": finite, "required": True}),
                 _DUMP_STATES) + _GRID),
    "mpemba": (_cmd_mpemba, "relaxation sweep for the damped qubit",
               (("--gamma", {"type": finite, "default": 0.01}),
                ("--n", {"type": finite, "default": 0.0}),
                ("--alphas", {"type": finite_list, "default": (0.25, 0.5, 0.75, 0.9),
                              "help": "comma-separated initial-state amplitudes"}))
               + _GRID),
    "krylov": (_cmd_krylov, "complexity and SFF columns",
               (("--h", {"required": True, "dest": "h_path"}),
                _RHO0,
                ("--beta", {"type": finite, "default": 0.0})) + _GRID),
    "validate": (_cmd_validate, "parse and sanity-check a spec", (_SPEC,)),
}


def run(cfg):
    """Dispatch parsed arguments; returns the process exit code."""
    if "t_max" in cfg:
        cfg.times = _horizon_grid(cfg.t_max, cfg.points)
    # An OSError can only come from --out: input files are read by _read_json,
    # which raises ValidationError. validate writes no artifact there.
    try:
        if cfg.command != "validate":
            os.makedirs(cfg.out, exist_ok=True)
        return _COMMANDS[cfg.command][0](cfg)
    except OSError as exc:
        raise ValidationError(f"cannot write to --out {cfg.out}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError, so that they exit 1, not 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _parser(command=None):
    """The parser for one command, or for all seven when command is None."""
    parser = _Parser(
        prog="liouqsl",
        description="Speed limits for Lindblad dynamics in Liouville space",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else _COMMANDS:
        _, help_text, options = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in options + _COMMON:
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        return run(_parser(command).parse_args(argv))
    except ValidationError as exc:
        error, code, detail = "validation", 1, exc
    except NumericalConsistencyError as exc:
        error, code, detail = "numerical", 2, exc
    print(f"liouqsl: command={command} error={error} detail={detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
