import argparse
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liouqsl as lq
from liouqsl import applications, cli, evolve, liouville, qsl, spectral
from liouqsl.cli import _parser, main, run
from liouqsl.exceptions import (
    DefectiveGeneratorError,
    NonUniqueSteadyStateError,
    QuadratureError,
    ValidationError,
)

from conftest import philox, rand_rho, rand_spec


@pytest.fixture
def ad_spec_path(tmp_path):
    spec = lq.amplitude_damping_spec(0.05, 0.2)
    path = tmp_path / "spec.json"
    lq.dump_json(lq.spec_to_json(spec), path)
    return str(path)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    return header, np.array(rows)


def _write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    lq.dump_json(lq.matrix_to_json(matrix), path)
    return str(path)


def test_scenario_config_validation(ad_spec_path, tmp_path):
    # A scenario is the parsed namespace; run derives its time grid.
    def scenario(*argv):
        return _parser().parse_args(list(argv) + ["--out", str(tmp_path / "out")])

    for t_max in ("-1", "nan", "inf"):
        with pytest.raises(ValidationError):
            run(scenario("evolve", "--spec", ad_spec_path, "--t-max", t_max))
    with pytest.raises(QuadratureError):
        run(scenario("evolve", "--spec", ad_spec_path, "--points", "100"))
    cfg = scenario("evolve", "--spec", ad_spec_path, "--t-max", "3", "--points", "301")
    assert run(cfg) == 0
    assert np.array_equal(cfg.times, np.linspace(0.0, 3.0, 301))
    with pytest.raises(ValidationError):
        scenario("evolve", "--spec", ad_spec_path, "--times", "0,1,2")
    evolve, krylov = ("evolve", "--spec", ad_spec_path), ("krylov", "--h", "h.json")
    # Non-finite model parameters are refused as the options are parsed.
    for base, flag in ((("mpemba",), "--gamma"), (("mpemba",), "--n"),
                       (krylov, "--beta"), (evolve, "--alpha")):
        scenario(*base, flag, "0.5")
        for value in ("nan", "inf"):
            with pytest.raises(ValidationError):
                scenario(*base, flag, value)
    with pytest.raises(ValidationError):
        scenario("mpemba", "--alphas", "0.5,nan")


def test_validate_command(ad_spec_path, capsys):
    rc = main(["validate", "--spec", ad_spec_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dim=2" in out and "jumps=2" in out
    assert "trace-preservation defect" in out
    assert "spectral condition" in out
    assert "slowest decay rate" in out


def test_evolve_command(ad_spec_path, tmp_path):
    out = tmp_path / "out"
    args = [
        "evolve",
        "--spec",
        ad_spec_path,
        "--alpha",
        "0.6",
        "--t-max",
        "20",
        "--points",
        "101",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    header, rows = _read_csv(out / "trace.csv")
    assert header == ["t", "purity", "overlap", "speed"]
    assert rows.shape == (101, 4)
    assert rows[0, 0] == 0.0 and abs(rows[-1, 0] - 20.0) < 1e-12
    assert abs(rows[0, 1] - 1.0) < 1e-12
    assert abs(rows[0, 2] - 1.0) < 1e-12
    assert np.all(rows[:, 3] >= 0.0)
    first = (out / "trace.csv").read_bytes()
    assert main(args) == 0
    assert (out / "trace.csv").read_bytes() == first


def test_evolve_matches_direct_exponential(ad_spec_path, tmp_path):
    out = tmp_path / "out"
    args = [
        "evolve",
        "--spec",
        ad_spec_path,
        "--alpha",
        "0.7",
        "--t-max",
        "10",
        "--points",
        "51",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    header, rows = _read_csv(out / "trace.csv")
    L = lq.build_liouvillian(lq.amplitude_damping_spec(0.05, 0.2)).full
    rho0 = lq.superposition_state(0.7)
    v0 = lq.vectorize(rho0)
    for k, t in enumerate(np.linspace(0.0, 10.0, 51)):
        rho = lq.devectorize(expm(L * t) @ v0)
        purity = np.trace(rho @ rho).real
        overlap = np.trace(rho0 @ rho).real / np.sqrt(purity)
        assert abs(rows[k, header.index("purity")] - purity) < 1e-12
        assert abs(rows[k, header.index("overlap")] - overlap) < 1e-12


def test_evolve_dump_states(ad_spec_path, tmp_path):
    out = tmp_path / "out"
    args = [
        "evolve",
        "--spec",
        ad_spec_path,
        "--dump-states",
        "--points",
        "21",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    header, rows = _read_csv(out / "trace.csv")
    assert header[:4] == ["t", "purity", "overlap", "speed"]
    assert "re_00" in header and "im_11" in header
    assert rows.shape == (21, 12)
    k = header.index("re_00")
    assert abs(rows[0, k] - 0.25) < 1e-12


def test_qsl_report_command(ad_spec_path, tmp_path):
    out = tmp_path / "out"
    args = [
        "qsl-report",
        "--spec",
        ad_spec_path,
        "--t-max",
        "40",
        "--points",
        "401",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    doc = json.loads((out / "report.json").read_text())
    expected = {
        "T",
        "theta",
        "wootters_length",
        "avg_speed",
        "avg_nc_speed",
        "bound_mt",
        "bound_nc",
        "exact_time",
        "bound_opnorm",
        "bound_hsnorm",
        "efficiency",
    }
    assert set(doc) == expected
    assert abs(doc["T"] - 40.0) < 1e-12
    assert doc["bound_hsnorm"] <= doc["bound_opnorm"] <= doc["bound_mt"]
    assert doc["bound_mt"] <= doc["bound_nc"] <= doc["T"] + 1e-8


def test_krylov_rho0_takes_the_gibbs_sff_from_the_same_modes(tmp_path, monkeypatch):
    # The Gibbs column is Re sum_i |c_i|^2 exp(lambda_i t) over the modes the op
    # already decomposed, not a second propagation: one decomposition per op,
    # through the d x d eigh of the Hamiltonian, and no eigensolver on a d^2 x d^2
    # matrix; the other d x d eigh is coherent_gibbs_state's.
    # It agrees within 1e-14 of its maximum with the SFF of the propagated Gibbs
    # trace and with |sum_n p_n exp(-i E_n t)|^2.
    rng = philox(91)
    d, beta = 6, 0.5
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    args = ["krylov", "--h", _write_matrix(tmp_path, "h.json", h), "--beta", str(beta),
            "--rho0", _write_matrix(tmp_path, "rho0.json", rand_rho(rng, d)),
            "--t-max", "5", "--points", "301", "--out", str(tmp_path)]
    calls, misses, propagations = [], [], []
    decompose, propagate = spectral.spectral_decompose, evolve.propagate_expm

    def decompose_counted(L):
        last = spectral._last
        modes = decompose(L)
        if spectral._last is not last:
            misses.append(L.shape)
        return modes

    def propagate_counted(L, rho, times):
        propagations.append(L.shape)
        return propagate(L, rho, times)

    monkeypatch.setattr(spectral, "_last", None)
    for name in ("eig", "eigh"):
        solver = getattr(np.linalg, name)

        def counted(a, _solver=solver, _name=name):
            calls.append((_name, a.shape))
            return _solver(a)

        monkeypatch.setattr(np.linalg, name, counted)
    for module in (spectral, evolve, applications, cli):
        monkeypatch.setattr(module, "spectral_decompose", decompose_counted)
    for module in (evolve, applications, cli):
        monkeypatch.setattr(module, "propagate_expm", propagate_counted)
    assert main(args) == 0
    assert calls == [("eigh", (d, d))] * 2
    assert misses == [(d * d, d * d)]
    assert propagations == [(d * d, d * d)]
    monkeypatch.undo()
    _, rows = _read_csv(tmp_path / "krylov.csv")
    t, column = rows[:, 0], rows[:, 2]
    generator = -1j * lq.commutator_superop(h)
    gibbs = lq.coherent_gibbs_state(h, beta)
    propagated = lq.sff(lq.propagate_expm(generator, gibbs, t))
    energies = np.linalg.eigvalsh(h)
    p = np.exp(-beta * (energies - energies.min()))
    exact = np.abs(np.exp(-1j * np.outer(t, energies)) @ (p / p.sum())) ** 2
    for ref in (propagated, exact):
        assert np.abs(column - ref).max() <= 1e-14 * np.abs(ref).max()


def test_qsl_report_builds_the_real_form_once(ad_spec_path, tmp_path, monkeypatch):
    # The propagation's eigensystem hands B^+ L B on to the classical split.
    calls = []
    real_form = liouville._real_form

    def counted(superop):
        calls.append(superop.shape)
        return real_form(superop)

    monkeypatch.setattr(spectral, "_last", None)
    for module in (spectral, qsl):
        monkeypatch.setattr(module, "_real_form", counted)
    args = ["qsl-report", "--spec", ad_spec_path, "--points", "401"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert calls == [(4, 4)]


def test_spectral_command(ad_spec_path, tmp_path):
    out = tmp_path / "out"
    assert main(["spectral", "--spec", ad_spec_path, "--out", str(out)]) == 0
    doc = json.loads((out / "spectral.json").read_text())
    assert len(doc["eigenvalues"]) == 4
    assert doc["condition"] < 1e-8
    assert doc["timescales"][0] is None
    assert all(ts > 0.0 for ts in doc["timescales"][1:])
    ss = lq.matrix_from_json(doc["steady_state"])
    n = 0.2
    expected = np.diag([(n + 1.0) / (2.0 * n + 1.0), n / (2.0 * n + 1.0)])
    assert np.abs(ss - expected).max() < 1e-10


def test_spectral_gives_the_stationary_mode_no_timescale(tmp_path, monkeypatch):
    # Scaled by 1e4 or 1e5, the stationary eigenvalue of these specs is off
    # zero by up to 5e-11, within steady_state's tolerance 1e-10 max(1, max|L_ij|)
    # but above an absolute 1e-12; mode 0 still has no timescale.
    monkeypatch.setattr(spectral, "_last", None)
    for seed in range(8):
        for scale in (1e4, 1e5):
            s = rand_spec(philox(seed), 4)
            spec = lq.LindbladSpec(
                hamiltonian=scale * s.hamiltonian,
                jumps=[(scale * rate, op) for rate, op in s.jumps],
            )
            lq.dump_json(lq.spec_to_json(spec), tmp_path / "spec.json")
            assert main(["spectral", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / "spectral.json").read_text())
            assert doc["timescales"][0] is None
            assert all(0.0 < ts < 1.0 for ts in doc["timescales"][1:])


def test_a_session_decomposes_its_generator_once(tmp_path, monkeypatch, capsys):
    # validate, spectral and qsl-report on one spec in one interpreter run one
    # eig; their artifacts are those of runs that start from an empty slot.
    rng = philox(41)
    spec = tmp_path / "spec.json"
    lq.dump_json(lq.spec_to_json(rand_spec(rng, 4)), spec)
    rho0 = _write_matrix(tmp_path, "rho0.json", rand_rho(rng, 4))
    report = ["qsl-report", "--rho0", rho0, "--t-max", "3"]
    commands = (["validate"], ["spectral"], report)
    calls, eig = [], np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    outputs = []
    for clear in (False, True):
        monkeypatch.setattr(spectral, "_last", None)
        calls.clear()
        out = tmp_path / f"clear-{clear}"
        for command in commands:
            if clear:
                monkeypatch.setattr(spectral, "_last", None)
            assert main(command + ["--spec", str(spec), "--out", str(out)]) == 0
        assert len(calls) == (3 if clear else 1)
        outputs.append([capsys.readouterr().out] + [
            (out / name).read_bytes() for name in ("spectral.json", "report.json")
        ])
    assert outputs[0] == outputs[1]


def test_optimal_command(tmp_path):
    rho0 = _write_matrix(tmp_path, "rho0.json", np.diag([1.0, 0.0]).astype(complex))
    perp = _write_matrix(tmp_path, "perp.json", np.diag([0.0, 1.0]).astype(complex))
    out = tmp_path / "out"
    gamma = 0.01
    horizon = -np.log(0.5) / gamma
    args = [
        "optimal",
        "--rho0",
        rho0,
        "--rho-perp",
        perp,
        "--gamma",
        str(gamma),
        "--t-max",
        f"{horizon:.17g}",
        "--points",
        "2001",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert 0.999 <= doc["mt_ratio"] <= 1.001
    assert abs(doc["length_minus_theta"]) < 1e-6
    assert abs(doc["exact_time_ratio"] - 1.0) < 1e-6
    assert doc["monotone_relative_purity"] is True
    assert doc["physical_at_all_points"] is True
    assert (out / "trace.csv").exists()


def test_mpemba_command(tmp_path):
    out = tmp_path / "out"
    args = [
        "mpemba",
        "--gamma",
        "0.02",
        "--alphas",
        "0.3,0.8",
        "--t-max",
        "150",
        "--points",
        "301",
    ]
    assert main(args + ["--out", str(out), "--jobs", "2"]) == 0
    assert main(args + ["--out", str(tmp_path / "no_jobs")]) == 0
    text = (out / "mpemba.csv").read_bytes()
    assert text == (tmp_path / "no_jobs" / "mpemba.csv").read_bytes()
    header, rows = _read_csv(out / "mpemba.csv")
    assert header == ["alpha", "t", "eta", "theta_ss", "delta"]
    assert rows.shape == (2 * 301, 5)
    assert set(np.unique(rows[:, 0])) == {0.3, 0.8}
    assert np.array_equal(rows[:, 1], np.tile(np.linspace(0.0, 150.0, 301), 2))
    doc = json.loads((out / "crossings.json").read_text())
    assert isinstance(doc["crossings"], list)
    assert doc["gamma"] == 0.02


def test_krylov_command(tmp_path):
    rng = philox(90)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (h + h.conj().T) / 2
    h_path = _write_matrix(tmp_path, "h.json", h)
    out = tmp_path / "out"
    args = [
        "krylov",
        "--h",
        h_path,
        "--beta",
        "0.3",
        "--t-max",
        "2",
        "--points",
        "101",
    ]
    assert main(args + ["--out", str(out)]) == 0
    header, rows = _read_csv(out / "krylov.csv")
    assert header == ["t", "c_k", "sff", "bound_lhs", "bound_rhs"]
    assert rows.shape == (101, 5)
    assert abs(rows[0, 1]) < 1e-10
    assert abs(rows[0, 2] - 1.0) < 1e-10
    assert np.all(rows[:, 3] <= rows[:, 4] + 1e-8)

    # --rho0 moves the complexity and the bound; sff stays with rho_beta.
    rho0_path = _write_matrix(tmp_path, "rho0.json", rand_rho(rng, 3))
    assert main(args + ["--rho0", rho0_path, "--out", str(tmp_path / "rho0")]) == 0
    _, mixed = _read_csv(tmp_path / "rho0" / "krylov.csv")
    assert mixed.shape == (101, 5)
    energies = np.linalg.eigvalsh(h)
    weights = np.exp(-0.3 * (energies - energies.min()))
    probs = weights / weights.sum()
    expected = np.abs(np.exp(-1j * np.outer(mixed[:, 0], energies)) @ probs) ** 2
    assert np.abs(mixed[:, 2] - expected).max() < 1e-10
    assert np.all(mixed[1:, 1] != rows[1:, 1])
    assert np.all(mixed[:, 3] <= mixed[:, 4] + 1e-8)


def test_cli_validation_failures(ad_spec_path, tmp_path, capsys):
    rc = main(["evolve", "--spec", ad_spec_path, "--points", "100"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "command=evolve error=validation" in err

    rc = main(["evolve", "--spec", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error=validation" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = main(["validate", "--spec", str(bad)])
    assert rc == 1
    assert "error=validation" in capsys.readouterr().err

    out = tmp_path / "sweep"
    rc = main(["mpemba", "--alphas", ",", "--points", "21", "--out", str(out)])
    assert rc == 1
    assert "command=mpemba error=validation" in capsys.readouterr().err
    assert not (out / "mpemba.csv").exists()

    # Usage errors and non-finite numbers are bad input too: exit 1.
    out = str(tmp_path / "out")
    h_path = _write_matrix(tmp_path, "h.json", np.diag([0.0, 0.5, 1.3]))
    for argv in (
        ["evolve", "--spec", ad_spec_path, "--method", "euler"],
        ["evolve", "--spec", ad_spec_path, "--method", "rk45"],
        ["evolve", "--spec", ad_spec_path, "--points", "abc"],
        ["krylov", "--beta", "0.5"],
        ["qsl-report", "--spec", ad_spec_path, "--t-max", "nan"],
        ["qsl-report", "--spec", ad_spec_path, "--t-max", "inf"],
        ["mpemba", "--gamma", "nan", "--points", "21"],
        ["mpemba", "--n", "inf", "--points", "21"],
        ["evolve", "--spec", ad_spec_path, "--t-max", "-1"],
        ["qsl-report", "--spec", ad_spec_path, "--points", "100"],
        ["evolve", "--spec", ad_spec_path, "--alpha", "nan"],
        ["evolve", "--spec", ad_spec_path, "--alpha", "inf"],
        ["krylov", "--h", h_path, "--beta", "nan", "--points", "21"],
        ["mpemba", "--alphas", "0.5,nan", "--points", "21"],
    ):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert f"liouqsl: command={argv[0]} error=validation detail=" in err, argv
    # A NaN rate in a spec file or a NaN entry in a matrix file, too.
    doc = lq.spec_to_json(lq.amplitude_damping_spec(0.05, 0.2))
    doc["jumps"][0]["rate"] = float("nan")
    nan_spec = str(tmp_path / "nan_rate.json")
    lq.dump_json(doc, nan_spec)
    h = np.diag([0.0, 0.5, 1.3])
    h[0, 0] = np.nan
    nan_h = _write_matrix(tmp_path, "nan_h.json", h)
    nan_rho = _write_matrix(tmp_path, "nan_rho.json", np.diag([np.nan, 0.5]))
    for argv in (
        ["validate", "--spec", nan_spec],
        ["spectral", "--spec", nan_spec],
        ["evolve", "--spec", nan_spec, "--points", "21"],
        ["qsl-report", "--spec", nan_spec, "--points", "21"],
        ["qsl-report", "--spec", ad_spec_path, "--rho0", nan_rho, "--points", "21"],
        ["krylov", "--h", nan_h, "--points", "21"],
    ):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert f"liouqsl: command={argv[0]} error=validation detail=" in err, argv
    for argv in (["no-such-command"], []):
        assert main(argv) == 1
        assert "command=None error=validation" in capsys.readouterr().err


def test_unusable_out_is_a_validation_error(ad_spec_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / "report.json").mkdir(parents=True)
    argv = ["qsl-report", "--spec", ad_spec_path, "--points", "21", "--out"]
    for out in (blocker, blocker / "sub", taken):
        assert main(argv + [str(out)]) == 1, out
        err = capsys.readouterr().err
        assert err.startswith("liouqsl: command=qsl-report error=validation detail=")
        assert str(out) in err and "Traceback" not in err


def test_input_files_that_are_not_utf8_are_validation_errors(ad_spec_path, tmp_path, capsys):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe")
    out = str(tmp_path / "out")
    for argv in (
        ["validate", "--spec", str(binary)],
        ["krylov", "--h", str(binary), "--points", "21"],
        ["qsl-report", "--spec", ad_spec_path, "--rho0", str(binary), "--points", "21"],
    ):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"liouqsl: command={argv[0]} error=validation detail="), err
        assert str(binary) in err and "Traceback" not in err


def test_deeply_nested_input_files_are_validation_errors(ad_spec_path, tmp_path, capsys):
    # json raises RecursionError, not JSONDecodeError, past its nesting limit
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000)
    out = str(tmp_path / "out")
    for argv in (
        ["validate", "--spec", str(nested)],
        ["krylov", "--h", str(nested), "--points", "21"],
        ["qsl-report", "--spec", ad_spec_path, "--rho0", str(nested), "--points", "21"],
    ):
        assert main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"liouqsl: command={argv[0]} error=validation detail="), err
        assert str(nested) in err and "Traceback" not in err


def test_optimal_endpoints_of_different_dimension_exit_1(tmp_path, capsys):
    rho0 = _write_matrix(tmp_path, "rho0.json", np.diag([1.0, 0.0, 0.0]))
    perp = _write_matrix(tmp_path, "perp.json", np.diag([0.0, 1.0]))
    argv = ["optimal", "--rho0", rho0, "--rho-perp", perp, "--gamma", "0.5"]
    assert main(argv + ["--points", "21", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("liouqsl: command=optimal error=validation detail=endpoint shapes")


def test_horizons_whose_squared_step_is_not_a_normal_float_exit_1(tmp_path, capsys):
    """On the damped qubit a 2e-157 horizon averaged a speed 7.4e-6 off its
    t = 0 value, and 1e-320 wrote NaN; 2e-150 still resolves the average."""
    spec = lq.LindbladSpec(np.zeros((2, 2)), [(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))])
    path = str(tmp_path / "decay.json")
    lq.dump_json(lq.spec_to_json(spec), path)
    rho0 = _write_matrix(tmp_path, "rho0.json", np.diag([1.0, 0.0]))
    for start, t_max in ((["--alpha", "0.3"], "2e-157"), (["--rho0", rho0], "1e-320")):
        out = tmp_path / t_max
        argv = ["qsl-report", "--spec", path, *start, "--t-max", t_max, "--out", str(out)]
        assert main(argv) == 1, t_max
        err = capsys.readouterr().err
        assert err.startswith("liouqsl: command=qsl-report error=validation detail=horizon")
        assert not (out / "report.json").exists()
    out = tmp_path / "short"
    argv = ["qsl-report", "--spec", path, "--alpha", "0.3", "--t-max", "2e-150"]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rho = lq.superposition_state(0.3)
    at_zero = lq.speed(lq.build_liouvillian(spec).full, lq.normalize_state(rho))
    assert abs(report["avg_speed"] - at_zero) <= 1e-12 * at_zero


def test_validate_leaves_out_alone(ad_spec_path, tmp_path, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    assert main(["validate", "--spec", ad_spec_path]) == 0
    assert list(empty.iterdir()) == []
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["validate", "--spec", ad_spec_path, "--out", str(blocker)]) == 0
    assert blocker.read_text() == ""


def test_omitted_options_take_the_documented_defaults(ad_spec_path, tmp_path):
    # Each default is declared once, in the command table; omitting every
    # defaulted option writes the bytes that spelling the defaults out does.
    h_path = _write_matrix(tmp_path, "h.json", np.diag([0.0, 0.5, 1.3]))
    for argv, spelled, names in (
        (["qsl-report", "--spec", ad_spec_path],
         ["--alpha", "0.5", "--t-max", "10", "--points", "2001"], ["report.json"]),
        (["mpemba"],
         ["--gamma", "0.01", "--n", "0", "--alphas", "0.25,0.5,0.75,0.9",
          "--t-max", "10", "--points", "2001"],
         ["mpemba.csv", "crossings.json"]),
        (["krylov", "--h", h_path],
         ["--beta", "0", "--t-max", "10", "--points", "2001"], ["krylov.csv"]),
    ):
        omitted, given = tmp_path / "omitted", tmp_path / "given"
        assert main(argv + ["--out", str(omitted)]) == 0
        assert main(argv + spelled + ["--out", str(given)]) == 0
        for name in names:
            assert (omitted / name).read_bytes() == (given / name).read_bytes(), argv


# Every option of each command, plus --jobs 2.
_FULL_ARGV = {
    "evolve": ["--spec", "s", "--alpha", "0.3", "--rho0", "r", "--dump-states"],
    "qsl-report": ["--spec", "s", "--alpha", "0.3", "--rho0", "r"],
    "spectral": ["--spec", "s"],
    "optimal": ["--rho0", "a", "--rho-perp", "b", "--gamma", "0.2", "--dump-states"],
    "mpemba": ["--gamma", "0.1", "--n", "0.2", "--alphas", "0.3,0.8"],
    "krylov": ["--h", "h", "--rho0", "r", "--beta", "0.5"],
    "validate": ["--spec", "s"],
}
_HELP = {
    "evolve": "propagate a spec and dump the trace",
    "qsl-report": "bound report for one trajectory",
    "spectral": "eigenmodes and steady state",
    "optimal": "straight-line dynamics certificate",
    "mpemba": "relaxation sweep for the damped qubit",
    "krylov": "complexity and SFF columns",
    "validate": "parse and sanity-check a spec",
}


def _choices(parser):
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(subs.choices)


def test_one_command_parser_parses_like_the_full_parser():
    assert _choices(_parser()) == list(_HELP)
    # Building the other six subparsers is the cost the one-command parser saves.
    assert _choices(_parser("qsl-report")) == ["qsl-report"]
    common = ["--out", "o", "--jobs", "2", "--points", "5", "--t-max", "3"]
    for command, options in _FULL_ARGV.items():
        for argv in ([command] + options + common, [command] + options):
            args = _parser(command).parse_args(argv)
            assert args == _parser().parse_args(argv), argv
        # An option not given takes its one default.
        assert args.command == command and args.out == "./out"


def test_help_lists_every_command_and_each_command_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command, text in _HELP.items():
        assert re.search(rf"^ +{re.escape(command)} +{re.escape(text)}$", out, re.M)
    for command in _HELP:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: liouqsl {command} [-h]")
        with pytest.raises(SystemExit):
            _parser().parse_args([command, "--help"])
        assert capsys.readouterr().out == out


def test_zero_generator_gives_zero_report(tmp_path):
    spec = lq.LindbladSpec(hamiltonian=np.zeros((2, 2)))
    L = lq.build_liouvillian(spec).full
    times = np.linspace(0.0, 2.0, 21)
    report = lq.exact_qsl(lq.propagate_expm(L, lq.superposition_state(0.6), times), L)
    doc = report.to_json()
    assert doc.pop("T") == 2.0
    assert all(value == 0.0 for value in doc.values()), doc
    path = tmp_path / "zero.json"
    lq.dump_json(lq.spec_to_json(spec), path)
    out = tmp_path / "out"
    argv = ["qsl-report", "--spec", str(path), "--points", "21", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc.pop("T") == 10.0
    assert all(value == 0.0 for value in doc.values()), doc


def test_cli_requires_rho0_beyond_qubits(tmp_path, capsys):
    rng = philox(91)
    spec = rand_spec(rng, 3)
    path = tmp_path / "spec3.json"
    lq.dump_json(lq.spec_to_json(spec), path)
    rc = main(["evolve", "--spec", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error=validation" in capsys.readouterr().err


def test_a_hamiltonian_skewed_within_tolerance_runs_every_command(tmp_path):
    # H skewed by 1e-13 passes LindbladSpec's 1e-12 check and is stored as its
    # Hermitian part, so every command sees a Hermiticity-preserving generator.
    rng = philox(96)
    spec = rand_spec(rng, 3, jumps=1)
    skewed = spec.hamiltonian.copy()
    skewed[0, 1] += 1e-13
    stored = lq.LindbladSpec(hamiltonian=skewed, jumps=spec.jumps).hamiltonian
    assert np.array_equal(stored, stored.conj().T)
    doc = lq.spec_to_json(spec)
    doc["hamiltonian"] = lq.matrix_to_json(skewed)
    path = tmp_path / "skewed.json"
    lq.dump_json(doc, path)
    rho0 = _write_matrix(tmp_path, "rho0.json", rand_rho(rng, 3))
    common = ["--spec", str(path), "--points", "101", "--out", str(tmp_path / "out")]
    for command in ("validate", "spectral", "evolve", "qsl-report"):
        extra = [] if command in ("validate", "spectral") else ["--rho0", rho0]
        assert main([command] + common + extra) == 0, command


def test_cli_numerical_failure(ad_spec_path, tmp_path, capsys, monkeypatch):
    # A numerical failure on a valid spec exits 2 and names the command; here
    # a defect planted in the eigensolver that spectral calls.
    def defective(liouvillian):
        raise DefectiveGeneratorError("planted")

    monkeypatch.setattr(cli, "spectral_decompose", defective)
    rc = main(["spectral", "--spec", ad_spec_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "command=spectral error=numerical detail=planted" in err


def test_spectral_without_a_unique_steady_state_writes_null(tmp_path):
    # A closed system, pure dephasing and the zero generator have more than one
    # stationary mode: spectral still writes every eigenvalue, gives each mode
    # with Re lambda = 0 no timescale, writes "steady_state": null and exits 0.
    sz = np.diag([1.0, -1.0]).astype(complex)
    cases = {
        "closed": (lq.LindbladSpec(hamiltonian=np.diag([0.0, 1.0, 3.0])), [None] * 9),
        "dephasing": (
            lq.LindbladSpec(hamiltonian=np.zeros((2, 2)), jumps=[(0.5, sz)]),
            [None, None, 1.0, 1.0],
        ),
        "zero": (lq.LindbladSpec(hamiltonian=np.zeros((2, 2))), [None] * 4),
    }
    for name, (spec, want) in cases.items():
        path, out = tmp_path / f"{name}.json", tmp_path / name
        lq.dump_json(lq.spec_to_json(spec), path)
        with pytest.raises(NonUniqueSteadyStateError):
            lq.steady_state(lq.spectral_decompose(lq.build_liouvillian(spec).full))
        assert main(["spectral", "--spec", str(path), "--out", str(out)]) == 0, name
        doc = json.loads((out / "spectral.json").read_text())
        assert doc["steady_state"] is None
        got = doc["timescales"]
        assert [t is None for t in got] == [t is None for t in want], name
        assert_allclose([t for t in got if t], [t for t in want if t], rtol=1e-12)
        if name == "closed":
            im = sorted(e["im"] for e in doc["eigenvalues"])
            assert_allclose(im, [-3, -2, -1, 0, 0, 0, 1, 2, 3], atol=1e-12)


def test_validate_prints_the_slowest_decaying_mode(tmp_path, capsys):
    # Pure dephasing keeps its populations, and its coherences decay at rate 1;
    # a closed system has no decaying mode. Neither rate is |Re lambda_1|.
    sz = np.diag([1.0, -1.0]).astype(complex)
    cases = {
        "dephasing": (lq.LindbladSpec(hamiltonian=np.zeros((2, 2)), jumps=[(0.5, sz)]), "1"),
        "closed": (lq.LindbladSpec(hamiltonian=np.diag([0.0, 1.0, 3.0])), "none"),
    }
    for name, (spec, want) in cases.items():
        path = tmp_path / f"{name}.json"
        lq.dump_json(lq.spec_to_json(spec), path)
        assert main(["validate", "--spec", str(path)]) == 0, name
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"slowest decay rate: {want}", name


_NO_SCIPY_SESSION = """
import sys
import liouqsl.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import numpy as np
import liouqsl as lq
from liouqsl.cli import main

out = sys.argv[1]
spec = out + "/spec.json"
h = out + "/h.json"
r0 = out + "/r0.json"
rp = out + "/rp.json"
lq.dump_json(lq.spec_to_json(lq.amplitude_damping_spec(0.05, 0.2)), spec)
lq.dump_json(lq.matrix_to_json(np.diag([0.0, 0.5, 1.3]) + 0.2 * np.eye(3, k=1)
                               + 0.2 * np.eye(3, k=-1)), h)
lq.dump_json(lq.matrix_to_json(np.diag([1.0, 0.0])), r0)
lq.dump_json(lq.matrix_to_json(np.diag([0.0, 1.0])), rp)
common = ["--points", "101", "--out", out]
runs = [
    ["validate", "--spec", spec],
    ["evolve", "--spec", spec, "--alpha", "0.7", "--t-max", "40", "--dump-states"],
    ["spectral", "--spec", spec],
    ["qsl-report", "--spec", spec, "--alpha", "0.7", "--t-max", "40"],
    ["mpemba", "--alphas", "0.3,0.8", "--t-max", "100"],
    ["krylov", "--h", h, "--beta", "0.5", "--t-max", "5"],
    ["optimal", "--rho0", r0, "--rho-perp", rp, "--gamma", "0.5", "--t-max", "5"],
]
for argv in runs:
    assert main(argv + common) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SESSION, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # none after `import liouqsl.cli` alone, and none after every command ran
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
