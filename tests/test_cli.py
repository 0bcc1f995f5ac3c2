import json
import math
import subprocess
import sys
import warnings

import pytest

from hpot.cli import main
from hpot.kernels import KernelConfig, modified_poisson, poisson

MU = {"dimension": 3, "atoms": [{"point": [0.0, 0.0, 4.0], "mass": 1.0}]}
ATOMS = {"dimension": 2, "kind": "atoms", "atoms": [{"point": [0.0, 0.0], "mass": 1.0}]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_poisson_value(capsys):
    code, out, _ = run_cli(
        capsys, "kernel", "--kind", "P", "--n", "3", "--m", "0", "--x", "0,0,1", "--yp", "0,0"
    )
    assert code == 0
    assert json.loads(out) == {"value": pytest.approx(1 / (2 * math.pi), rel=1e-15)}
    assert out.startswith('{"value":0.15915494309189535}')


def test_kernel_plain_poisson_ignores_the_order(capsys):
    # a source at |y'| = 5|x| takes the tail route of P_2, but P is the plain
    # closed form 2 x_n / (omega_3 |x - y'|^3) at every order
    plain = 1 / (2 * math.pi * 26**1.5)
    cfg = KernelConfig(3, 2)
    assert poisson(cfg, [0, 0, 1], [5, 0]) == pytest.approx(plain, rel=1e-14)
    assert modified_poisson(cfg, [0, 0, 1], [5, 0]) != pytest.approx(plain, rel=1e-3)
    code, out, _ = run_cli(
        capsys, "kernel", "--kind", "P", "--n", "3", "--m", "2", "--x", "0,0,1", "--yp", "5,0"
    )
    assert code == 0
    assert json.loads(out) == {"value": pytest.approx(plain, rel=1e-14)}


def test_kernel_boundary_green_zero(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--kind", "G", "--n", "3", "--x", "0,0,1", "--y", "5,0,0")
    assert code == 0
    assert json.loads(out) == {"value": 0}


def test_kernel_missing_companion_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kernel", "--kind", "G", "--n", "3", "--x", "0,0,1")
    assert code == 64
    assert json.loads(err)["code"] == "usage"


def test_kernel_singularity_exit(capsys):
    code, _, err = run_cli(capsys, "kernel", "--kind", "E", "--n", "3", "--x", "0,0,0")
    assert code == 2
    assert json.loads(err)["code"] == "singularity"


def test_kernel_non_finite_vector_is_usage_error(capsys):
    for x in ("0,0,nan", "0,inf,1"):
        code, out, err = run_cli(
            capsys, "kernel", "--kind", "P", "--n", "3", "--x", x, "--yp", "1,0"
        )
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == "usage"


def test_bad_flags_exit(capsys):
    code, _, err = run_cli(capsys, "kernel", "--kind", "Q", "--n", "3", "--x", "0,0,1")
    assert code == 64


def test_consecutive_calls_parse_independently(tmp_path, capsys):
    # the parser is built once per process; each call still sees only its own flags
    from hpot import cli

    assert cli._build_parser() is cli._build_parser()
    poisson_argv = ("kernel", "--kind", "P", "--n", "3", "--x", "0,0,1", "--yp", "0,0")
    code, out, _ = run_cli(capsys, *poisson_argv)
    assert code == 0 and json.loads(out)["value"] == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    pts = tmp_path / "p.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    code, out, _ = run_cli(
        capsys, "capacity", "--kind", "boundary", "--points", str(pts), "--nodes", "16"
    )
    assert code == 0 and set(json.loads(out)) == {"value", "n_constraints", "n_nodes"}
    # a flag of the first call does not carry over into the next
    code, out, err = run_cli(capsys, "kernel", "--kind", "Pm", "--n", "3", "--x", "0,0,1")
    assert code == 64 and out == "" and err.count("\n") == 1
    assert json.loads(err)["code"] == "usage"
    code, _, err = run_cli(capsys, "capacity", "--kind", "boundary", "--x", "1")
    assert code == 64 and json.loads(err)["code"] == "usage"
    code, out, _ = run_cli(capsys, *poisson_argv)
    assert code == 0 and out.startswith('{"value":0.15915494309189535}')


def test_unconverged_dirichlet_point_is_domain_error(tmp_path, capsys):
    # at (1, 0, 6e-11), below the radial anchor's 1e-9 |x'| floor, the
    # quadrature runs to order 32 and misses its target: the CLI refuses it
    # instead of printing the value
    data, mu, pts = tmp_path / "data.json", tmp_path / "mu.json", tmp_path / "p.csv"
    data.write_text(json.dumps(FAMILY))
    mu.write_text(json.dumps(MU))
    pts.write_text("x_1,x_2,x_3\n1,0,1\n1,0,6e-11\n1,0,6e-11\n")
    for kind, extra in (("dirichlet", ()), ("superposition", ("--measure", str(mu)))):
        code, out, err = run_cli(
            capsys, "potential", "--kind", kind, "--data", str(data), "--points", str(pts),
            "--n", "3", "--m", "1", *extra,
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        payload = json.loads(err)
        assert payload["code"] == "domain"
        message = payload["message"]
        assert message.startswith(
            "quadrature did not converge at row 1 (x = (1, 0, 6e-11))"
        )
        estimate = float(message.split("rel_err_estimate ")[1].split()[0])
        assert 1e-8 < estimate < 1e-5


def test_dirichlet_points_near_the_boundary(tmp_path, capsys):
    # power_growth(0.5), n = 3, m = 1 at x = (1, 0, h), against
    # reference.family_integral at 20 digits: at h = 1e-8 the point
    # converges (with the angle on a quadrature grid it was refused, its
    # estimate 0.43); at h = 1e-12, below the radial anchor's 1e-9 |x'|
    # floor, the value is the oracle's within 1e-8 or it is refused
    data, pts = tmp_path / "data.json", tmp_path / "p.csv"
    data.write_text(json.dumps(FAMILY))
    for h, ref in ((1e-8, 1.189207104422573531), (1e-12, 1.1892071150016630647)):
        pts.write_text(f"x_1,x_2,x_3\n1,0,{h!r}\n")
        code, out, err = run_cli(
            capsys, "potential", "--kind", "dirichlet", "--data", str(data), "--points", str(pts),
            "--n", "3", "--m", "1",
        )
        if code == 0:
            assert abs(float(out.splitlines()[1].split(",")[-1]) - ref) <= 1e-8 * ref
        else:
            assert h == 1e-12 and code == 2
            assert json.loads(err)["message"].startswith("quadrature did not converge")


def test_unconverged_growth_point_is_domain_error(tmp_path, capsys, monkeypatch):
    # no point meets a zero target: the scan stops at its first point
    from hpot import potentials

    monkeypatch.setattr(potentials, "_QUAD_TARGET", 0.0)
    data = tmp_path / "data.json"
    data.write_text(json.dumps(FAMILY))
    code, out, err = run_cli(
        capsys, "growth", "--data", str(data), "--n", "3", "--m", "1", "--alpha", "0.5",
        "--rays", "2", "--radii", "1:4:2",
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "domain"
    assert payload["message"].startswith("quadrature did not converge at row 0 (x = (")


def test_potential_batch(tmp_path, capsys):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,2\n0,0,1\n")
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "potential", "--kind", "dirichlet", "--data", str(data),
        "--points", str(pts), "--m", "0", "--out", str(out),
    )
    assert code == 0  # dimension inferred from the data file
    lines = out.read_text().splitlines()
    assert lines[0] == "x_1,x_2,x_3,value"
    assert float(lines[1].split(",")[-1]) == pytest.approx(1 / (8 * math.pi), rel=1e-15)


def test_potential_superposition_batch(tmp_path, capsys):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"dimension": 3, "atoms": [{"point": [0.0, 0.0, 2.0], "mass": 1.0}]}))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "potential", "--kind", "superposition", "--data", str(data),
        "--measure", str(mu), "--points", str(pts), "--n", "3", "--m", "0",
        "--out", str(out),
    )
    assert code == 0
    value = float(out.read_text().splitlines()[1].split(",")[-1])
    assert value == pytest.approx(1 / (3 * math.pi), rel=1e-12)
    # superposition without a measure is a usage error
    code, _, err = run_cli(
        capsys, "potential", "--kind", "superposition", "--data", str(data),
        "--points", str(pts), "--n", "3",
    )
    assert code == 64 and json.loads(err)["code"] == "usage"


@pytest.mark.parametrize("kind", ["dirichlet", "green", "superposition"])
def test_potential_below_boundary_is_domain_error(tmp_path, capsys, kind):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n0,0,-1\n")
    code, out, err = run_cli(
        capsys, "potential", "--kind", kind, "--data", str(data),
        "--measure", str(mu), "--points", str(pts), "--m", "1",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "domain"
    assert "below the boundary" in payload["message"]


def test_potential_empty_points_file(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n")
    code, out, _ = run_cli(
        capsys, "potential", "--kind", "green", "--measure", str(mu), "--points", str(pts)
    )
    assert code == 0
    assert out == "x_1,x_2,x_3,value\n"


def test_potential_condition_refusal(tmp_path, capsys):
    bad = tmp_path / "f.json"
    bad.write_text(
        json.dumps(
            {"dimension": 2, "kind": "family",
             "family": {"id": "power_growth", "params": {"s": 2.0}}}
        )
    )
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    code, _, err = run_cli(
        capsys, "potential", "--kind", "dirichlet", "--data", str(bad),
        "--points", str(pts), "--n", "3", "--m", "1",
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["code"] == "integrability"
    assert payload["report"]["satisfied"] is False


def test_potential_schema_error(tmp_path, capsys):
    bad = tmp_path / "f.json"
    bad.write_text('{"dimension": 2, "kind": "atoms", "atoms": [{"point": [1], "mass": 1}]}')
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    code, _, err = run_cli(
        capsys, "potential", "--kind", "dirichlet", "--data", str(bad),
        "--points", str(pts), "--n", "3",
    )
    assert code == 65
    assert json.loads(err)["code"] == "schema"


@pytest.mark.parametrize(
    "family",
    [
        '{"id": "power_growth", "params": {}}',
        '{"id": "power_growth", "params": {"s": "a"}}',
        '{"id": "gaussian_bump", "params": {"c": "a", "sigma": 1.0}}',
        '{"id": "indicator_ball", "params": {"R": 1e400}}',
    ],
    ids=["missing_key", "string_s", "string_c", "infinite_R"],
)
def test_bad_family_params_are_schema_errors(tmp_path, capsys, family):
    data = tmp_path / "f.json"
    data.write_text('{"dimension": 2, "kind": "family", "family": %s}' % family)
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    code, out, err = run_cli(
        capsys, "potential", "--kind", "dirichlet", "--data", str(data),
        "--points", str(pts), "--n", "3", "--m", "1",
    )
    assert code == 65
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "schema"
    assert payload["message"].startswith("family.params:")


@pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
def test_non_finite_points_are_schema_errors(tmp_path, capsys, cell):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x_1,x_2,x_3\n0.5,0.2,{cell}\n")
    for argv in (
        ["potential", "--kind", "dirichlet", "--data", str(data), "--points", str(pts)],
        ["capacity", "--kind", "boundary", "--n", "3", "--points", str(pts)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 65, argv
        assert out == ""
        payload = json.loads(err)
        assert payload["code"] == "schema"
        assert payload["message"].startswith("points.row[0]:")


def test_omitted_dimension_parses_measure_once(tmp_path, capsys, monkeypatch):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    code, _, _ = run_cli(
        capsys, "potential", "--kind", "green", "--measure", str(mu), "--points", str(pts)
    )
    monkeypatch.undo()
    assert code == 0
    assert calls == [mu.read_text()]


def test_missing_points_file_is_schema_error(tmp_path, capsys):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    missing = str(tmp_path / "absent.csv")
    for argv in (
        ["potential", "--kind", "dirichlet", "--data", str(data), "--n", "3", "--points", missing],
        ["capacity", "--kind", "boundary", "--n", "3", "--points", missing],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 65, argv
        assert out == ""
        payload = json.loads(err)
        assert payload["code"] == "schema"
        assert payload["message"].startswith("points:")


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_out_that_cannot_be_opened_is_output_error(tmp_path, capsys, where):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    out = str(tmp_path / "absent" / "o.csv") if where == "missing_dir" else str(tmp_path)
    code, stdout, err = run_cli(
        capsys, "potential", "--kind", "green", "--measure", str(mu), "--points", str(pts),
        "--n", "3", "--m", "1", "--out", out,
    )
    assert code == 73
    assert stdout == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "output"
    assert out in payload["message"]


@pytest.mark.parametrize("role", ["points", "measure"])
def test_input_that_is_not_utf8_is_schema_error(tmp_path, capsys, role):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    pts = tmp_path / "pts.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,1\n")
    if role == "points":
        pts.write_bytes(bytes(range(192, 256)))
    else:
        mu.write_bytes(b"\xff\xfe" + json.dumps(MU).encode("utf-16-le"))
    code, out, err = run_cli(
        capsys, "potential", "--kind", "green", "--measure", str(mu), "--points", str(pts),
        "--n", "3",
    )
    assert code == 65
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "schema"
    assert payload["message"].startswith(f"{role}:")
    assert "UTF-8" in payload["message"]


def test_exceptional_covering_json(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    code, out, _ = run_cli(
        capsys, "exceptional", "--measure", str(mu), "--beta", "2", "--lambda", "25",
        "--shells", "1..3", "--grid-delta", "0.25",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"balls", "weighted_sum", "bound"}
    assert payload["weighted_sum"] <= payload["bound"]
    assert all(set(b) == {"center", "radius"} for b in payload["balls"])


def test_exceptional_precondition_exit(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    code, _, err = run_cli(
        capsys, "exceptional", "--measure", str(mu), "--beta", "2", "--lambda", "1",
    )
    assert code == 2
    assert json.loads(err)["code"] == "domain"


@pytest.mark.parametrize("argv, words", [
    (("--shells", "1100..1100"), "shell 1100 lies past the floating-point range"),
    (("--grid-delta", "0.001"), "6.405e+10 points per shell"),
    (("--grid-delta", "1e-300"), "more than 1e300 points per shell"),
    (("--grid-delta", "inf"), "must be finite and positive"),
], ids=["shell_overflow", "lattice_too_large", "lattice_past_range", "spacing_inf"])
def test_bad_shell_lattice_is_domain_error(tmp_path, capsys, argv, words):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "exceptional", "--measure", str(mu), "--beta", "2", "--lambda", "25", *argv
        )
    assert code == 2 and out == "" and caught == []
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "domain" and words in payload["message"]


def test_exceptional_mass_overflow_is_domain_error(tmp_path, capsys):
    # the masses sum past the float range: the precondition refuses the
    # input as one error object instead of a traceback
    mu = tmp_path / "mu.json"
    atoms = [{"point": [0.0, 0.0, 2.0], "mass": 1e308}, {"point": [1.0, 0.0, 3.0], "mass": 1e308}]
    mu.write_text(json.dumps({"dimension": 3, "atoms": atoms}))
    code, out, err = run_cli(
        capsys, "exceptional", "--measure", str(mu), "--beta", "2", "--lambda", "1e300",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "domain"


def test_small_beta_underflow_is_named(tmp_path, capsys):
    # beta = 1e-4: at the lattice point on the atom (0, 0, 4) the crossing
    # radius |x| (mass/lambda)^(1/beta) = 4 (1/6)^10000 underflows to 0
    mu = tmp_path / "mu.json"
    atoms = [{"point": p, "mass": 1.0} for p in ([0, 0, 4], [1, 0, 5], [0, 1, 6])]
    mu.write_text(json.dumps({"dimension": 3, "atoms": atoms}))
    code, out, err = run_cli(
        capsys, "exceptional", "--measure", str(mu), "--beta", "1e-4", "--lambda", "6",
        "--shells", "1..3",
    )
    assert code == 2 and out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "domain"
    assert "beta = 0.0001" in payload["message"] and "underflows" in payload["message"]


def test_growth_scan_csv(tmp_path, capsys):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "growth", "--data", str(data), "--n", "3", "--m", "0",
        "--alpha", "1.0", "--rays", "4", "--radii", "4:64:5", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ray_index,radius,ratio,in_G"
    assert len(lines) == 1 + 4 * 5


@pytest.mark.parametrize("argv", [
    ("growth", "--data", "{atoms}", "--alpha", "1", "--rays", "0"),
    ("growth", "--data", "{atoms}", "--alpha", "1", "--rays", "-2"),
    ("capacity", "--kind", "boundary", "--points", "{pts}", "--nodes", "-3"),
    ("thinness", "--set", "{set}", "--kind", "boundary", "--e-samples", "-4"),
    ("thinness", "--set", "{set}", "--kind", "boundary", "--e-samples", "0"),
    ("thinness", "--set", "{set}", "--kind", "boundary", "--f-nodes", "0"),
], ids=["rays_0", "rays_neg", "nodes_neg", "e_samples_neg", "e_samples_0", "f_nodes_0"])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    files = {"atoms": tmp_path / "atoms.json", "pts": tmp_path / "e.csv", "set": tmp_path / "set.json"}
    files["atoms"].write_text(json.dumps(ATOMS))
    files["pts"].write_text("x_1,x_2,x_3\n0,0,3\n")
    files["set"].write_text(json.dumps({"shape": "all"}))
    code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
    assert code == 64
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["code"] == "usage"


def test_negative_seed_is_usage_error(tmp_path, capsys):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    code, out, err = run_cli(
        capsys, "growth", "--data", str(data), "--n", "3", "--alpha", "1", "--seed", "-1"
    )
    assert code == 64 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "usage" and "--seed" in payload["message"]


@pytest.mark.parametrize("radii", ["4:inf:5", "-inf:4:5", "4:nan:5"])
def test_non_finite_radii_are_usage_errors(tmp_path, capsys, radii):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "growth", "--data", str(data), "--n", "3", "--alpha", "1", "--radii", radii
        )
    assert code == 64 and out == "" and caught == []
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "usage"


FAMILY = {"dimension": 2, "kind": "family", "family": {"id": "power_growth", "params": {"s": 0.5}}}


@pytest.mark.parametrize("data", [ATOMS, FAMILY], ids=["atoms", "family"])
@pytest.mark.parametrize("command", ["growth", "potential"])
def test_overflowing_squared_norm_is_domain_error(tmp_path, capsys, data, command):
    # |x|^2 is not finite: one domain error, and no numpy overflow warning
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if command == "growth":
        argv = ["growth", "--rays", "1", "--alpha", "0.5", "--radii", "1:1e300:3"]
    else:
        points = tmp_path / "p.csv"
        points.write_text("x_1,x_2,x_3\n1e200,0,1e200\n")
        argv = ["potential", "--kind", "dirichlet", "--points", str(points)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, "--data", str(path), "--n", "3", "--m", "1")
    assert code == 2 and out == "" and caught == []
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "domain"


@pytest.mark.parametrize("data", [ATOMS, FAMILY], ids=["atoms", "family"])
@pytest.mark.parametrize("command", ["growth", "potential"])
def test_overflowing_kernel_power_is_domain_error(tmp_path, capsys, data, command):
    # |x|^2 is finite, but |x - y|^n is not: one domain error, and no numpy
    # overflow warning
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if command == "growth":
        argv = ["growth", "--rays", "1", "--alpha", "0.5", "--radii", "1:1e120:3"]
    else:
        points = tmp_path / "p.csv"
        points.write_text("x_1,x_2,x_3\n1e110,0,1e110\n")
        argv = ["potential", "--kind", "dirichlet", "--points", str(points)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, "--data", str(path), "--n", "3", "--m", "1")
    assert code == 2 and out == "" and caught == []
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "code": "domain",
        "message": "kernel out of floating-point range: |x - y|^n overflows",
    }


def _power_growth(s):
    return {"dimension": 2, "kind": "family", "family": {"id": "power_growth", "params": {"s": s}}}


@pytest.mark.parametrize(
    "data, m, radii, message",
    [
        (_power_growth(0.5), 6, "1:1e70:3", "kernel out of floating-point range: |x|^k overflows"),
        (_power_growth(3.5), 3, "1:1e60:3",
         "quadrature out of floating-point range: the weighted sum overflows"),
        (ATOMS, 6, "1:1e90:3",
         "growth ratio out of floating-point range: x_n^(1-alpha) |x|^(m+alpha) overflows"),
    ],
    ids=["tail_envelope", "radial_weight", "ratio_denominator"],
)
def test_growth_overflow_is_one_domain_error(tmp_path, capsys, data, m, radii, message):
    # every point's squared norm is finite, but a power on the way to the
    # ratio is not: one error object and no numpy warning or traceback
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "growth", "--data", str(path), "--n", "3", "--m", str(m),
            "--alpha", "0.5", "--rays", "1", "--radii", radii,
        )
    assert code == 2 and out == "" and caught == []
    assert json.loads(err) == {"code": "domain", "message": message}


def test_cartesian_head_overflow_is_domain_error(tmp_path, capsys):
    # direct route (1 < |y'| < 2|x|) with |y'|^(n+1) past the float range
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(
        {"dimension": 2, "kind": "atoms", "atoms": [{"point": [1.2e100, 0.0], "mass": 1.0}]}
    ))
    points = tmp_path / "p.csv"
    points.write_text("x_1,x_2,x_3\n1e100,0,1e100\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "potential", "--kind", "dirichlet", "--data", str(data),
            "--points", str(points), "--n", "3", "--m", "2",
        )
    assert code == 2 and out == "" and caught == []
    assert json.loads(err) == {
        "code": "domain",
        "message": "kernel out of floating-point range: |y|^(p+k) overflows",
    }


def _dirichlet_values(tmp_path, capsys, data, point="1,0,1", m=1):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    points = tmp_path / "p.csv"
    points.write_text(f"x_1,x_2,x_3\n{point}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "potential", "--kind", "dirichlet", "--data", str(path),
            "--points", str(points), "--n", "3", "--m", str(m),
        )
    assert code == 0 and err == "" and caught == [], err
    return float(out.splitlines()[1].split(",")[-1])


def test_wide_gaussian_far_nodes_take_the_tail_series(tmp_path, capsys):
    # the far-field panel reaches rho ~ 1e104, where |x - y|^3 overflows;
    # those rows take the tail series, so only plain and direct rows form
    # the closed form.  The integral of constant data is 1 - x_n = 0.
    data = {"dimension": 2, "kind": "family",
            "family": {"id": "gaussian_bump", "params": {"c": 1.0, "sigma": 1e100}}}
    assert abs(_dirichlet_values(tmp_path, capsys, data)) <= 1e-15


def test_far_boundary_atom_takes_the_tail_series(tmp_path, capsys):
    # |x - y'|^3 overflows for the atom at 1e110, a tail source worth 0
    def atoms(*xs):
        return {"dimension": 2, "kind": "atoms",
                "atoms": [{"point": [x, 0.0], "mass": 1.0} for x in xs]}

    alone = _dirichlet_values(tmp_path, capsys, atoms(2.0))
    both = _dirichlet_values(tmp_path, capsys, atoms(1e110, 2.0))
    assert alone == pytest.approx(0.0363754, rel=1e-6)
    assert abs(both - alone) <= 1e-15 * abs(alone)


@pytest.mark.parametrize("where, path", [("point", "atoms[0].point[2]"), ("mass", "atoms[0].mass")])
def test_out_of_range_json_integer_is_schema_error(tmp_path, capsys, where, path):
    atom = {"point": [0, 0, 1], "mass": 1}
    atom[where] = [0, 0, 10**400] if where == "point" else 10**400
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"dimension": 3, "atoms": [atom]}))
    points = tmp_path / "p.csv"
    points.write_text("x_1,x_2,x_3\n0,0,1\n")
    code, out, err = run_cli(
        capsys, "potential", "--kind", "green", "--measure", str(mu), "--n", "3",
        "--points", str(points),
    )
    assert code == 65 and out == ""
    assert json.loads(err) == {
        "code": "schema", "message": f"{path}: number out of floating-point range",
    }


def test_halton_dimension_above_twelve_is_domain_error(tmp_path, capsys):
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps({"shape": "all"}))
    code, out, err = run_cli(
        capsys, "thinness", "--set", str(spec), "--kind", "boundary", "--n", "13", "--imax", "1"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["code"] == "domain"


def test_capacity_command(tmp_path, capsys):
    pts = tmp_path / "e.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,3\n1,0,4\n")
    code, out, _ = run_cli(
        capsys, "capacity", "--kind", "boundary", "--n", "3",
        "--points", str(pts), "--window", "1", "--nodes", "128",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0
    assert payload["n_constraints"] == 2


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("", "schema", "points: empty points file"),
        ("a,b,c\n0,0,3\n", "schema", "points.header: expected header starting x_1"),
        ("x_1,x_2\n0,3\n", "domain", "dimension must be an integer >= 3, got 2"),
    ],
    ids=["empty", "no_x_column", "two_columns"],
)
def test_capacity_without_n_refuses_a_file_without_dimension(tmp_path, capsys, text, code, message):
    # the dimension is read from the header: none is a schema error, as
    # with --n; too few columns is the dimension's own domain error
    pts = tmp_path / "e.csv"
    pts.write_text(text)
    exit_code, out, err = run_cli(capsys, "capacity", "--kind", "boundary", "--points", str(pts))
    assert exit_code == (65 if code == "schema" else 2) and out == ""
    assert json.loads(err) == {"code": code, "message": message}


@pytest.mark.parametrize("kind", ["boundary", "halfspace"])
def test_capacity_window_past_float_range_is_domain_error(tmp_path, capsys, kind):
    # 2^(i+3) overflows at i = 1021; the window volume already at i = 509
    pts = tmp_path / "e.csv"
    pts.write_text("x_1,x_2,x_3\n0,0,3\n")
    code, out, err = run_cli(
        capsys, "capacity", "--kind", kind, "--points", str(pts), "--window", "1021",
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "code": "domain", "message": "window 1021 has a volume past the floating-point range",
    }


@pytest.mark.parametrize("n", ["6", "7"])
def test_thinness_shell_without_samples_adds_zero(tmp_path, capsys, n):
    # one sample per shell: no Halton point lands in the cone's first shells
    spec = tmp_path / "cone.json"
    spec.write_text(json.dumps({"shape": "cone", "aperture": 0.5}))
    code, out, err = run_cli(
        capsys, "thinness", "--set", str(spec), "--kind", "boundary", "--n", n,
        "--imax", "3", "--e-samples", "1",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [t["capacity"] for t in payload["terms"]] == [0, 0, 0]
    assert payload["partial_sum"] == 0


@pytest.mark.parametrize(
    "spec, path",
    [
        ('{"shape": "ball", "center": [1.0, 2.0], "radius": 3}', "set.center"),
        ('{"shape": "ball", "center": [1.0, "a", 2.0], "radius": 3}', "set.center[1]"),
        ('{"shape": "ball", "center": [1.0, 2.0, true], "radius": 3}', "set.center[2]"),
        ('{"shape": "ball", "center": [1.0, 2.0, 1e400], "radius": 3}', "set.center"),
        ('{"shape": "ball", "center": "0,0,3", "radius": 3}', "set.center"),
        ('{"shape": "ball", "center": [0, 0, 3.0], "radius": 1e400}', "set.radius"),
        ('{"shape": "ball", "center": [0, 0, 3.0], "radius": 1' + "0" * 400 + "}", "set.radius"),
        ('{"shape": "ball", "center": [0, 0, 3.0], "radius": 0}', "set.radius"),
    ],
    ids=["short_center", "string_entry", "bool_entry", "infinite_entry", "string_center",
         "infinite_radius", "huge_int_radius", "zero_radius"],
)
def test_bad_ball_specs_are_schema_errors(tmp_path, capsys, spec, path):
    # a wrong-length, non-numeric or non-finite center, or a radius that is
    # not finite and positive, is refused at the set file: one schema error
    set_file = tmp_path / "set.json"
    set_file.write_text(spec)
    code, out, err = run_cli(
        capsys, "thinness", "--set", str(set_file), "--kind", "boundary", "--n", "3",
        "--imax", "1", "--e-samples", "8", "--f-nodes", "32",
    )
    assert code == 65 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["code"] == "schema" and payload["message"].startswith(f"{path}: ")


def test_thinness_command(tmp_path, capsys):
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps({"shape": "ball", "center": [0, 0, 3.0], "radius": 1.0}))
    out = tmp_path / "rep.json"
    code, _, _ = run_cli(
        capsys, "thinness", "--set", str(spec), "--kind", "halfspace", "--n", "3",
        "--imax", "4", "--e-samples", "12", "--f-nodes", "48", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"terms", "partial_sum", "i_max", "resolution"}
    assert payload["i_max"] == 4


def _run_subprocess(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "hpot.cli", *args],
        capture_output=True, cwd=cwd, env=None,
    )


def test_repeated_runs_byte_identical(tmp_path):
    data = tmp_path / "atoms.json"
    data.write_text(json.dumps(ATOMS))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(MU))
    args = [
        "growth", "--data", str(data), "--measure", str(mu), "--n", "3", "--m", "1",
        "--alpha", "1.0", "--rays", "6", "--radii", "8:512:7", "--seed", "123",
    ]
    first = _run_subprocess(args, tmp_path)
    second = _run_subprocess(args, tmp_path)
    assert first.returncode == second.returncode == 0, (first.stderr, second.stderr)
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
    cov_args = [
        "exceptional", "--measure", str(mu), "--beta", "2", "--lambda", "25",
        "--shells", "1..3", "--grid-delta", "0.25",
    ]
    assert _run_subprocess(cov_args, tmp_path).stdout == _run_subprocess(cov_args, tmp_path).stdout
