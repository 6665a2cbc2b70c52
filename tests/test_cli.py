"""CLI surface: schema validation, exit codes, determinism, file formats."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from winfer.cli import compute_report, main, parse_distribution, parse_problem_spec
from winfer.divergence import QUANTITIES
from winfer.errors import SchemaError
from winfer.expfam import CATALOG


def spec_binary(quantities, weight=None, alpha_grid=None):
    spec = {
        "schema": 1,
        "seed": 5,
        "distributions": [{"pmf": [0.5, 0.5]}, {"pmf": [0.25, 0.75]}],
        "weight": weight or {"kind": "table", "values": [2.0, 1.0]},
        "quantities": quantities,
    }
    if alpha_grid:
        spec["alpha_grid"] = alpha_grid
    return spec


def spec_gaussian_abs():
    return {
        "schema": 1,
        "seed": 11,
        "distributions": [
            {"family": "gaussian-scalar", "params": {"mu": 0.0, "sigma2": 1.0}},
            {"family": "gaussian-scalar", "params": {"mu": 2.0, "sigma2": 1.0}},
        ],
        "weight": {"kind": "absolute"},
        "quantities": ["tv"],
    }


def run_cli(args, spec=None, tmp_path=None):
    cmd = [sys.executable, "-m", "winfer.cli"] + args
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        cmd = [c if c != "SPEC" else str(path) for c in cmd]
    return subprocess.run(cmd, capture_output=True, text=True)


class TestSchema:
    def test_missing_distributions(self):
        with pytest.raises(SchemaError):
            parse_problem_spec({"schema": 1, "weight": {"kind": "absolute"},
                                "quantities": ["tv"]})

    def test_unknown_quantity(self):
        with pytest.raises(SchemaError):
            parse_problem_spec(spec_binary(["entropy-rate"]))

    @staticmethod
    def spec_vector(d):
        return {"schema": 1,
                "distributions": [
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.0] * d, "cov": np.eye(d).tolist()}},
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.3] * d, "cov": (1.5 * np.eye(d)).tolist()}}],
                "weight": {"kind": "constant", "c": 1.0}, "quantities": ["tv", "kl"]}

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_vector_of_d4_or_more_is_a_schema_error(self, d, monkeypatch, tmp_path, capsys):
        """A level-60 tensor rule at d = 4 has 13M nodes: the spec is refused
        before any mesh is built, and ``compute`` exits 1."""
        import winfer.divergence
        import winfer.expfam

        def no_mesh(*args, **kwargs):
            raise AssertionError("Gauss-Hermite mesh requested")
        for module in (winfer.divergence, winfer.expfam):
            monkeypatch.setattr(module, "gauss_hermite_nodes", no_mesh)
        with pytest.raises(SchemaError, match="d <= 3"):
            parse_problem_spec(self.spec_vector(d))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.spec_vector(d)))
        assert main(["compute", str(path), "--reproducible"]) == 1
        assert "schema error" in capsys.readouterr().err
        assert parse_problem_spec(self.spec_vector(3))[0][0][0].support.d == 3

    def test_accepts_exactly_the_table_names(self):
        """One quantity list: the spec schema, the module docstring and the
        report all follow ``divergence.QUANTITIES``."""
        import winfer.cli
        assert parse_problem_spec(spec_binary(list(QUANTITIES)))[2] == list(QUANTITIES)
        for bad in ("rho", "bhattacharyya", "chernoff-coeff@0.5", "KL"):
            with pytest.raises(SchemaError):
                parse_problem_spec(spec_binary([bad]))
        doc = " ".join(winfer.cli.__doc__.split())
        listed = doc.split("divergence.QUANTITIES`` (")[1].split(")")[0]
        assert listed.split(", ") == list(QUANTITIES)

    def test_unknown_family(self):
        spec = spec_binary(["tv"])
        spec["distributions"][0] = {"family": "cauchy", "params": {}}
        with pytest.raises(SchemaError) as info:
            parse_problem_spec(spec)
        assert str(tuple(CATALOG)) in str(info.value)  # the error lists the registry

    def test_distribution_round_trips_the_spec_params(self):
        """The evaluated dist is built from from_natural(to_natural(params)),
        and the member that carries theta is the one parsing built."""
        params = {"lam": 1.3931487737707235, "beta": 1.1973262435457488}
        dist, member = parse_distribution({"family": "gamma", "params": params})
        fam = member.family
        assert dist.params == fam.from_natural(fam.to_natural(params))
        np.testing.assert_array_equal(member.theta, fam.to_natural(params))
        assert dist is member.dist

    def test_denormalized_pmf(self):
        spec = spec_binary(["tv"])
        spec["distributions"][0] = {"pmf": [0.5, 0.6]}
        with pytest.raises(SchemaError):
            parse_problem_spec(spec)

    def test_bad_alpha(self):
        with pytest.raises(SchemaError):
            parse_problem_spec(spec_binary(["kl"], alpha_grid=[1.5]))

    def test_integration_overrides(self):
        spec = spec_binary(["tv"])
        spec["integration"] = {"rel_tol": 1e-8, "abs_tol": 1e-10}
        parse_problem_spec(spec)
        spec["integration"] = {"bogus": 1}
        with pytest.raises(SchemaError):
            parse_problem_spec(spec)
        spec["integration"] = {"max_subdivisions": [1]}  # unhashable: cannot key a memo
        with pytest.raises(SchemaError):
            parse_problem_spec(spec)

    def test_integration_value_too_large_for_a_float(self, tmp_path, capsys):
        """An integer past the float range exits 1 with a schema message."""
        spec = spec_binary(["tv"])
        spec["integration"] = {"max_subdivisions": 10 ** 400}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", str(path), "--reproducible"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "schema error: integration values must be finite numbers: " \
                      "['max_subdivisions']\n"


def _spec_with(**changes):
    spec = {"schema": 1,
            "distributions": [{"family": "exponential", "params": {"lam": 2.0}},
                              {"family": "exponential", "params": {"lam": 3.0}}],
            "weight": {"kind": "absolute"}, "quantities": ["kl"]}
    spec.update(changes)
    return spec


def _two(family, params, other):
    return [{"family": family, "params": params}, {"family": family, "params": other}]


_MV = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
MALFORMED_SPECS = {
    "non-numeric param": _spec_with(distributions=_two(
        "gaussian-scalar", {"mu": "a", "sigma2": 1.0}, {"mu": 0.0, "sigma2": 1.0})),
    "mean length != cov": _spec_with(distributions=_two(
        "gaussian-multivariate", {"mean": [0.0, 0.0, 0.0], "cov": _MV["cov"]}, _MV)),
    "unknown param key": _spec_with(distributions=_two(
        "exponential", {"lam": 1, "extra": 2}, {"lam": 3.0})),
    "poisson lam 0": _spec_with(distributions=_two("poisson", {"lam": 0}, {"lam": 1.0})),
    "poisson lam < 0": _spec_with(distributions=_two("poisson", {"lam": -2.0}, {"lam": 1.0})),
    "gamma lam 0": _spec_with(distributions=_two(
        "gamma", {"lam": 0.0, "beta": 1.0}, {"lam": 2.0, "beta": 1.0})),
    "gamma beta < 0": _spec_with(distributions=_two(
        "gamma", {"lam": 2.0, "beta": -1.0}, {"lam": 2.0, "beta": 1.0})),
    "window of one": _spec_with(distributions=[
        {"family": "exponential", "params": {"lam": 2.0}, "window": [0]},
        {"family": "exponential", "params": {"lam": 3.0}}]),
    "non-numeric window": _spec_with(distributions=[
        {"family": "exponential", "params": {"lam": 2.0}, "window": [0, "x"]},
        {"family": "exponential", "params": {"lam": 3.0}}]),
    "non-numeric gamma": _spec_with(weight={"kind": "exponential", "gamma": "x"}),
    "ragged gamma": _spec_with(weight={"kind": "exponential", "gamma": [[1.0, 2.0], [3.0]]}),
    "non-numeric b": _spec_with(weight={"kind": "quadratic", "b": "x", "c": 1.0}),
    "non-numeric c": _spec_with(weight={"kind": "constant", "c": "x"}),
    "non-numeric coeffs": _spec_with(weight={"kind": "polynomial", "coeffs": ["x"]}),
    "non-numeric values": _spec_with(
        distributions=[{"pmf": [0.5, 0.5]}, {"pmf": [0.3, 0.7]}],
        weight={"kind": "table", "values": ["x", 1.0]}),
    "non-numeric alpha": _spec_with(alpha_grid=["x"]),
    "quantities not a list": _spec_with(quantities=5),
    "integration not an object": _spec_with(integration=5),
    "nan tolerance": _spec_with(integration={"rel_tol": math.nan}),
    "labels not a list": _spec_with(
        distributions=[{"pmf": [0.5, 0.5], "labels": 5}, {"pmf": [0.5, 0.5]}],
        weight={"kind": "table", "values": [1.0, 2.0]}),
    "unhashable labels": _spec_with(
        distributions=[{"pmf": [0.5, 0.5], "labels": [[1], [2]]}, {"pmf": [0.5, 0.5]}],
        weight={"kind": "table", "values": [1.0, 2.0]}),
    "non-string quantity": _spec_with(quantities=[["tv"]]),
    **{f"table {which} than the alphabet": _spec_with(
        distributions=[{"pmf": [0.5, 0.5]}, {"pmf": [0.3, 0.7]}],
        weight={"kind": "table", "values": values})
       for which, values in (("longer", [1.0, 2.0, 3.0]), ("shorter", [1.0]))},
    "non-numeric seed": _spec_with(seed="x"),
    "vector gamma, scalar support": _spec_with(
        weight={"kind": "exponential", "gamma": [0.1, 0.2]}),
    "vector gamma of wrong length": _spec_with(
        distributions=_two("gaussian-multivariate", _MV, _MV),
        weight={"kind": "exponential", "gamma": [0.1, 0.2, 0.3]}),
    **{f"{kind} weight, vector support": _spec_with(
        distributions=_two("gaussian-multivariate", _MV, _MV), weight=weight)
       for kind, weight in (("absolute", {"kind": "absolute"}),
                            ("quadratic", {"kind": "quadratic", "b": 0.0, "c": 1.0}),
                            ("polynomial", {"kind": "polynomial", "coeffs": [1.0, 0.0, 1.0]}),
                            ("scalar exponential", {"kind": "exponential", "gamma": 0.1}))},
    "pair on two outcome spaces": _spec_with(distributions=[
        {"family": "gaussian-scalar", "params": {"mu": 0.0, "sigma2": 1.0}},
        {"family": "exponential", "params": {"lam": 2.0}}]),
    "non-symmetric cov": _spec_with(distributions=_two(
        "gaussian-multivariate", {"mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.0, 1.0]]}, _MV),
        weight={"kind": "exponential", "gamma": [0.1, 0.2]}),
}


@pytest.mark.parametrize("spec", list(MALFORMED_SPECS.values()), ids=list(MALFORMED_SPECS))
def test_malformed_spec_exits_one(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["compute", str(path), "--reproducible"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("schema error:")


class TestComputeReport:
    def test_identical_distributions_all_zero(self):
        spec = {
            "schema": 1,
            "distributions": [{"pmf": [0.4, 0.6]}, {"pmf": [0.4, 0.6]}],
            "weight": {"kind": "table", "values": [2.0, 1.0]},
            "quantities": ["tv", "kl", "hellinger", "chernoff-div",
                           "renyi-div", "tsallis-div", "bhattacharyya-div"],
            "alpha_grid": [0.5],
        }
        report, code = compute_report(spec)
        assert code == 0
        for rec in report["quantities"]:
            assert rec["value"] == pytest.approx(0.0, abs=1e-12), rec["name"]

    def test_gaussian_absolute_tv_record(self):
        report, code = compute_report(spec_gaussian_abs())
        assert code == 0
        (rec,) = report["quantities"]
        # quadrature-verified weighted TV; the widely printed closed form
        # (= 1.682689, the one-sided supremum) is reproduced under --as-printed
        assert rec["value"] == pytest.approx(1.0731410699216889, rel=1e-9)
        assert rec["closed_form"]["value"] == pytest.approx(rec["value"], rel=1e-9)
        report_p, _ = compute_report(spec_gaussian_abs(), as_printed=True)
        assert report_p["quantities"][0]["closed_form"]["value"] == \
            pytest.approx(1.6826894921370859, rel=1e-12)

    def test_dual_method_kl_record(self):
        spec = {
            "schema": 1,
            "distributions": [
                {"family": "exponential", "params": {"lam": 2.0}},
                {"family": "exponential", "params": {"lam": 3.0}},
            ],
            "weight": {"kind": "exponential", "gamma": 0.5},
            "quantities": ["kl"],
        }
        report, code = compute_report(spec)
        assert code == 0
        (rec,) = report["quantities"]
        assert rec["method"] == "quadrature"
        assert rec["value"] == pytest.approx(0.3482687447446695, rel=1e-9)
        assert rec["closed_form"]["value"] == pytest.approx(rec["value"], rel=1e-9)

    def test_quantities_appear_exactly_once(self):
        spec = spec_binary(["tv", "kl", "renyi-div"], alpha_grid=[0.3, 0.7])
        report, _ = compute_report(spec)
        names = [r["name"] for r in report["quantities"]]
        assert len(names) == len(set(names))
        assert "renyi-div@0.3" in names and "renyi-div@0.7" in names

    def test_error_bounds_checks_emitted(self):
        report, code = compute_report(spec_binary(["error-bounds"]))
        assert code == 0
        assert report["bound_checks"]
        assert all(c["passed"] for c in report["bound_checks"])

    def test_numerical_failure_partial_report(self):
        spec = {
            "schema": 1,
            "distributions": [{"pmf": [0.5, 0.5]}, {"pmf": [1.0, 0.0]}],
            "weight": {"kind": "constant", "c": 1.0},
            "quantities": ["tv", "stein-sanov-limit"],
        }
        report, code = compute_report(spec)
        assert code == 2
        names = {r["name"]: r for r in report["quantities"]}
        assert "value" in names["tv"]
        assert "error" in names["stein-sanov-limit"]


    def test_large_vector_exponential_weight_exits_2_with_a_report(self, tmp_path):
        """Under exp(40 x_0) the covering Gaussian follows the tilt 120 units
        away, where p and q have no mass, and E_phi(p) = exp(800) is past the
        float range: every quantity is an error record, no closed form raises
        OverflowError, and numpy warns of no overflow or invalid value."""
        names = ["tv", "delta", "hellinger", "kl", "shannon-entropy", "renyi-entropy",
                 "chernoff-div"]
        spec = {"schema": 1,
                "distributions": [
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.5, 0.0], "cov": [[2.0, 0.0], [0.0, 1.0]]}}],
                "weight": {"kind": "exponential", "gamma": [40, 0]},
                "quantities": names, "alpha_grid": [0.5]}
        path, out = tmp_path / "spec.json", tmp_path / "report.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")
            assert main(["compute", str(path), "--reproducible", "--out", str(out)]) == 2
        records = json.loads(out.read_text())["quantities"]
        assert [r["name"].split("@")[0] for r in records] == names
        assert all("misses" in r["error"] for r in records)

    def test_poisson_chernoff_coeff_is_a_series(self):
        spec = {"schema": 1,
                "distributions": [{"family": "poisson", "params": {"lam": 2.0}},
                                  {"family": "poisson", "params": {"lam": 3.5}}],
                "weight": {"kind": "absolute"},
                "quantities": ["chernoff-coeff", "chernoff-div", "kl"], "alpha_grid": [0.5]}
        report, code = compute_report(spec)
        assert code == 0
        assert {r["name"]: r["method"] for r in report["quantities"]} == {
            "chernoff-coeff@0.5": "series", "chernoff-div@0.5": "series", "kl": "series"}


class TestRepeatedMain:
    def test_parser_is_built_once(self):
        from winfer.cli import build_parser
        assert build_parser() is build_parser()

    def test_repeated_calls_keep_codes_and_outputs(self, tmp_path, capsys):
        """One process, as the benchmark runs it: a usage error, good calls and
        a schema error in turn, each with its own exit code and output."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_gaussian_abs()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_SPECS["pair on two outcome spaces"]))
        outs, codes, errs = [], [], []
        for argv in (["compute"], ["compute", str(spec), "--reproducible"],
                     ["verify", "--suite", "no-such-suite"],
                     ["compute", str(spec), "--reproducible"],
                     ["compute", str(bad), "--reproducible"],
                     ["compute", str(spec), "--reproducible"]):
            codes.append(main(argv))
            out, err = capsys.readouterr()
            outs.append(out)
            errs.append(err)
        assert codes == [1, 0, 1, 0, 1, 0]
        assert "usage:" in errs[0] and "no-such-suite" in errs[2]
        assert errs[4].startswith("schema error:")
        assert outs[1] == outs[3] == outs[5] != ""
        assert outs[0] == outs[2] == outs[4] == ""
        assert json.loads(outs[1])["quantities"][0]["name"] == "tv"


def _extreme_spec(dists, weight, quantities):
    return {"schema": 1, "seed": 0, "weight": weight, "quantities": quantities,
            "distributions": [{"family": f, "params": p} for f, p in dists]}


_GAUSS = "gaussian-scalar"
# compute specs past the float range: (spec, exit code, the failed records'
# message or "" for a report with no failed record)
EXTREME_SPECS = {
    "a mean of 1e200 leaves a window of no width": (_extreme_spec(
        [(_GAUSS, {"mu": 1e200, "sigma2": 1.0}), (_GAUSS, {"mu": 1e200, "sigma2": 2.0})],
        {"kind": "constant", "c": 1.0}, ["kl", "shannon-entropy", "error-bounds"]),
        2, "has no width"),
    "a tilt of 1e200 on a variance of 1e-200": (_extreme_spec(
        [(_GAUSS, {"mu": 0.0, "sigma2": 1e-200}), (_GAUSS, {"mu": 0.0, "sigma2": 2e-200})],
        {"kind": "exponential", "gamma": 1e200}, ["shannon-entropy", "renyi-entropy"]),
        2, "has no width"),
    "a tv pair with mu / sigma2 = 1e155": (_extreme_spec(
        [(_GAUSS, {"mu": 1.0, "sigma2": 1e-155}), (_GAUSS, {"mu": 1.5, "sigma2": 1e-155})],
        {"kind": "absolute"}, ["tv"]), 2, "overflows"),
    "error bounds under a weight of 1e300": (_extreme_spec(
        [(_GAUSS, {"mu": 0.0, "sigma2": 1.0}), (_GAUSS, {"mu": 1.0, "sigma2": 1.0})],
        {"kind": "constant", "c": 1e300}, ["error-bounds"]), 2, "overflows"),
    "exponential rates of 1e200 under |x|": (_extreme_spec(
        [("exponential", {"lam": 1e200}), ("exponential", {"lam": 2e200})],
        {"kind": "absolute"}, ["kl", "shannon-entropy", "renyi-entropy", "chernoff-div",
                               "bhattacharyya-div"]), 0, ""),
    "a weight of exp(1e6 x) past the float range where p is 0": (_extreme_spec(
        [(_GAUSS, {"mu": 0.0, "sigma2": 1e-6}), (_GAUSS, {"mu": 0.0, "sigma2": 2e-6})],
        {"kind": "exponential", "gamma": 1e6}, ["kl"]), 2, "non-finite"),
}


class TestExtremeInputs:
    """Inputs past the float range end in a documented exit, never a traceback."""

    @pytest.mark.parametrize("name", list(EXTREME_SPECS))
    def test_compute(self, name, tmp_path, capsys):
        spec, code, message = EXTREME_SPECS[name]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["compute", str(path), "--reproducible"]) == code
        out, err = capsys.readouterr()
        assert err == ""
        failed = [r["error"] for r in json.loads(out)["quantities"] if "error" in r]
        assert failed if message else not failed
        assert all(message in e for e in failed)

    @pytest.mark.parametrize("dists,weight", [
        ([("exponential", {"lam": 1e200}), ("exponential", {"lam": 2e200})],
         {"kind": "absolute"}),
        ([("gamma", {"lam": 2.0, "beta": 1e200}), ("gamma", {"lam": 3.0, "beta": 2e200})],
         {"kind": "absolute"}),
        ([(_GAUSS, {"mu": 0.0, "sigma2": 1e-240}), (_GAUSS, {"mu": 0.0, "sigma2": 2e-240})],
         {"kind": "absolute"}),
        ([(_GAUSS, {"mu": 0.0, "sigma2": 1e-160}), (_GAUSS, {"mu": 0.0, "sigma2": 2e-160})],
         {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}),
    ], ids=["exponential-absolute", "gamma-absolute", "gaussian-absolute", "gaussian-x2"])
    def test_underflowed_moments_give_no_closed_form(self, dists, weight, tmp_path, capsys):
        """A closed form built on a raw moment that underflowed (E[x^2] = 2 /
        lam^2 at lam = 1e200 is 0, E[x^4] = 3 sigma^4 at sigma2 = 1e-160 is
        subnormal) read kl with the wrong sign, or 2e-5 off; it is left out of
        the record, and the values are reported as they are without it."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_extreme_spec(dists, weight, ["kl", "shannon-entropy"])))
        code = main(["compute", str(path), "--reproducible"])
        out, err = capsys.readouterr()
        assert err == ""
        records = json.loads(out)["quantities"]
        assert code == (2 if any("error" in r for r in records) else 0)
        assert [r["name"] for r in records] == ["kl", "shannon-entropy"]
        assert not any("closed_form" in r for r in records)

    @pytest.mark.parametrize("argv", [["--phi-gamma", "1e300"], ["--theta", "1e300"],
                                      ["--van-trees", "--prior-var", "1e300"]])
    def test_cramer_rao(self, argv, capsys):
        assert main(["cramer-rao", "--trials", "1000", "--reproducible"] + argv) == 2
        assert "has no width" in capsys.readouterr().err


class TestSubprocessContracts:
    def test_compute_exit_codes(self, tmp_path):
        r = run_cli(["compute", "SPEC", "--reproducible"],
                    spec=spec_gaussian_abs(), tmp_path=tmp_path)
        assert r.returncode == 0
        json.loads(r.stdout)
        missing = run_cli(["compute", str(tmp_path / "nope.json")])
        assert missing.returncode == 1

    def test_schema_error_exit_one(self, tmp_path):
        bad = {"schema": 1, "distributions": [], "weight": {"kind": "absolute"},
               "quantities": ["tv"]}
        r = run_cli(["compute", "SPEC"], spec=bad, tmp_path=tmp_path)
        assert r.returncode == 1
        assert "schema error" in r.stderr

    def test_compute_determinism(self, tmp_path):
        a = run_cli(["compute", "SPEC", "--reproducible"],
                    spec=spec_binary(["tv", "kl", "error-bounds"]),
                    tmp_path=tmp_path)
        b = run_cli(["compute", "SPEC", "--reproducible"],
                    spec=spec_binary(["tv", "kl", "error-bounds"]),
                    tmp_path=tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout

    def test_verify_determinism_and_exit(self, tmp_path):
        args = ["verify", "--suite", "tv-oracle", "--instances", "40",
                "--seed", "3", "--reproducible"]
        a, b = run_cli(args), run_cli(args)
        assert a.returncode == 0 and a.stdout == b.stdout
        rep = json.loads(a.stdout)
        assert rep["report"]["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "chain", "--instances", "2", "--seed", "-1"],
        ["verify", "--suite", "chain", "--instances", "-1"],
        ["cramer-rao", "--trials", "100", "--seed", "-1"],
        ["steinsanov", "--spec", "SPEC", "--method", "mc", "--mc-samples", "-3"]] + [
        ["steinsanov", "--spec", "SPEC", flag, value] for flag, value in (
            ("--eta", "0"), ("--eta", "-0.1"), ("--eta", "nan"), ("--eta", "inf"),
            ("--n-list", ""), ("--n-list", ","), ("--n-list", "0"), ("--n-list", "25,-5"))])
    def test_refuses_bad_counts_and_seeds(self, argv, tmp_path, capsys):
        """A negative seed, instance count or sample count, an eta that is not
        positive and finite, and an empty n list or one with an n below 1 are
        refused while parsing: exit 1, a usage message naming the argument, no
        report."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_binary(["stein-sanov-limit"])))
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {argv[-2]}: must be" in err
        assert "Traceback" not in err

    def test_verify_unknown_suite(self):
        r = run_cli(["verify", "--suite", "everything"])
        assert r.returncode != 0

    def test_steinsanov_csv(self, tmp_path):
        spec = spec_binary(["stein-sanov-limit"])
        r = run_cli(["steinsanov", "--spec", "SPEC", "--n-list", "25,50",
                     "--eta", "0.1", "--method", "exact"],
                    spec=spec, tmp_path=tmp_path)
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "n,rate_estimate,limit,gap"
        assert len(lines) == 3
        n, rate, limit, gap = lines[1].split(",")
        assert int(n) == 25
        assert abs(float(rate) - float(limit)) == pytest.approx(float(gap))

    def test_steinsanov_identical_rates_equal_log_mass(self, tmp_path):
        spec = {
            "schema": 1,
            "distributions": [{"pmf": [0.5, 0.5]}, {"pmf": [0.5, 0.5]}],
            "weight": {"kind": "table", "values": [2.0, 1.0]},
            "quantities": ["stein-sanov-limit"],
        }
        r = run_cli(["steinsanov", "--spec", "SPEC", "--n-list", "25,50"],
                    spec=spec, tmp_path=tmp_path)
        assert r.returncode == 0
        for line in r.stdout.strip().splitlines()[1:]:
            rate = float(line.split(",")[1])
            assert rate == pytest.approx(math.log(1.5), abs=1e-12)

    def test_steinsanov_infinite_kl_exit_two(self, tmp_path):
        spec = {
            "schema": 1,
            "distributions": [{"pmf": [0.5, 0.5]}, {"pmf": [1.0, 0.0]}],
            "weight": {"kind": "constant", "c": 1.0},
            "quantities": ["stein-sanov-limit"],
        }
        r = run_cli(["steinsanov", "--spec", "SPEC"], spec=spec, tmp_path=tmp_path)
        assert r.returncode == 2

    def test_steinsanov_empty_window_exit_two(self, tmp_path):
        # eta = 0.02 holds no type at n = 10; at n = 300 exact enumeration is
        # refused, and the eta-major sweep meets that refusal first
        spec = spec_binary(["stein-sanov-limit"])
        for n_list, message in (("10", "empty LLN window; increase eta or n"),
                                ("10,300", "exact enumeration capped at m <= 6, n <= 200")):
            r = run_cli(["steinsanov", "--spec", "SPEC", "--n-list", n_list, "--eta-sweep"],
                        spec=spec, tmp_path=tmp_path)
            assert r.returncode == 2
            assert r.stdout == "" and r.stderr == f"error: {message}\n"

    def test_cramer_rao_smoke(self):
        r = run_cli(["cramer-rao", "--family", "gaussian-shift", "--phi-gamma",
                     "0.5", "--estimator", "mean", "--n", "5", "--trials",
                     "50000", "--seed", "1", "--reproducible"])
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        versions = {row["version"]: row for row in rep["bounds"]}
        assert versions["A"]["passed_3sigma"] is True
        assert versions["B"]["passed_3sigma"] is True
        # the sum path reports the closed-form lhs next to the Monte Carlo one
        for row in versions.values():
            assert abs(row["lhs"] - row["lhs_exact"]) <= 3 * row["lhs_stderr"]

    def test_cramer_rao_scale_family_wiring(self):
        r = run_cli(["cramer-rao", "--family", "gaussian-scale", "--phi-gamma",
                     "0.4", "--estimator", "scale-abs-mean", "--theta", "1.0",
                     "--n", "6", "--trials", "40000", "--seed", "12",
                     "--reproducible"])
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        (row,) = rep["bounds"]  # version A only on the scale family
        assert row["version"] == "A"
        assert row["lhs"] > 0 and row["rhs"] > 0
        # the scale row carries its closed-form lhs too
        assert abs(row["lhs"] - row["lhs_exact"]) <= 3 * row["lhs_stderr"]

    def test_scale_van_trees_out_of_domain_prior_exits_2(self):
        # the Gaussian prior (mean 1, var 1) has nodes at theta <= 0, outside the
        # scale family: van Trees refuses before any integral or draw
        r = run_cli(["cramer-rao", "--family", "gaussian-scale", "--phi-gamma",
                     "0.4", "--estimator", "scale-abs-mean", "--theta", "1.0",
                     "--n", "4", "--trials", "20000", "--van-trees",
                     "--reproducible"])
        assert r.returncode == 2
        assert r.stderr == (
            "error: gaussian-scale: theta = -9.07742 outside the domain at a prior node; "
            "the prior's 32 nodes stay in theta > 0 only for --prior-var < 0.009847\n")
        assert "Traceback" not in r.stderr
        # the rows computed before the refusal are still reported
        assert [row["version"] for row in json.loads(r.stdout)["bounds"]] == ["A"]

    def test_scale_van_trees_refusal_names_the_largest_prior_var(self, capsys):
        # the bound the refusal names is where the prior's lowest node reaches 0
        import winfer.cli
        argv = ["cramer-rao", "--family", "gaussian-scale", "--phi-gamma", "0.4",
                "--estimator", "scale-abs-mean", "--theta", "2.5", "--n", "4",
                "--trials", "20000", "--van-trees", "--reproducible"]
        assert winfer.cli.main(argv + ["--prior-var", "1"]) == 2
        limit = float(capsys.readouterr().err.rsplit("< ", 1)[1])
        assert limit == pytest.approx((2.5 / 10.08) ** 2, rel=1e-3)
        assert winfer.cli.main(argv + ["--prior-var", str(limit * 0.999)]) == 0
        assert [row["version"] for row in json.loads(capsys.readouterr().out)["bounds"]] \
            == ["A", "van-trees-A", "van-trees-C"]
        assert winfer.cli.main(argv + ["--prior-var", str(limit * 1.001)]) == 2

    def test_mismatched_family_and_estimator_exit_1(self, capsys):
        """The shift family's draw carries S only, and the shifted mean is the
        shift family's: both pairs are usage errors, refused before any row
        is computed, with no report."""
        import winfer.cli
        for family, est in (("gaussian-shift", "scale-abs-mean"),
                            ("gaussian-scale", "shifted-mean")):
            assert winfer.cli.main(["cramer-rao", "--family", family, "--estimator", est,
                                    "--theta", "1", "--trials", "20000",
                                    "--reproducible"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"usage error: no {est} estimator on {family}\n"

    @pytest.mark.parametrize("bad", [["--n", "0"], ["--n", "-1"], ["--trials", "0"],
                                     ["--trials", "1"], ["--trials", "-5"],
                                     ["--prior-var", "0", "--van-trees"],
                                     ["--prior-var", "-1", "--van-trees"],
                                     ["--prior-var", "nan", "--van-trees"],
                                     ["--n", "two"],
                                     ["--theta", "nan"], ["--theta", "inf"],
                                     ["--phi-gamma", "nan"], ["--phi-gamma", "inf"],
                                     ["--sigma", "nan"], ["--sigma", "inf"],
                                     ["--sigma", "0"], ["--sigma", "-1"]])
    def test_cramer_rao_refuses_bad_inputs(self, bad, capsys):
        """Refused while parsing: exit 1, a usage message, no report."""
        import winfer.cli
        assert winfer.cli.main(["cramer-rao", "--reproducible"] + bad) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {bad[0]}" in err
        assert "Traceback" not in err


def spec_gamma_pair_all_quantities():
    return {
        "schema": 1,
        "seed": 0,
        "distributions": [{"family": "gamma", "params": {"lam": 2.0, "beta": 1.0}},
                          {"family": "gamma", "params": {"lam": 3.0, "beta": 1.5}}],
        "weight": {"kind": "absolute"},
        "quantities": ["tv", "delta", "hellinger", "bhattacharyya-coeff",
                       "bhattacharyya-div", "kl", "chernoff-coeff", "chernoff-div",
                       "renyi-div", "tsallis-div", "shannon-entropy", "renyi-entropy",
                       "min-total-error", "stein-sanov-limit", "error-bounds"],
        "alpha_grid": [0.3, 0.5, 0.8],
    }


def _levels_by_center(calls) -> list:
    """The levels of the recorded ``gauss_hermite_nodes`` calls, one sorted list
    per covering center (the pair's and each distribution's); each (center,
    level) mesh must be built once."""
    meshes = [(tuple(center), level) for center, _, level in calls]
    assert len(meshes) == len(set(meshes))
    levels = {}
    for center, level in meshes:
        levels.setdefault(center, []).append(level)
    return sorted(sorted(v) for v in levels.values())


def _count_calls(monkeypatch, module_name, fn_name, with_kwargs=False) -> list:
    """Count calls of a core function from every winfer module that imported it;
    each call is recorded as its args, or as (args, kwargs)."""
    real = getattr(sys.modules[module_name], fn_name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs) if with_kwargs else args)
        return real(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("winfer") and mod is not None \
                and getattr(mod, fn_name, None) is real:
            monkeypatch.setattr(mod, fn_name, counted)
    return calls


class TestEvaluationCost:
    def test_gamma_report_integrations(self, tmp_path, monkeypatch):
        """Each distinct integral once, all in one lockstep integrate call: the
        12 components of the full report (2 weight masses, tv, hellinger, kl,
        3 Chernoff numerators, one of them rho, the Shannon entropy and 3
        Renyi-entropy numerators), and the same on a second run (nothing is
        kept between reports)."""
        import winfer.cli
        calls = _count_calls(monkeypatch, "winfer.core", "integrate", with_kwargs=True)
        spec = tmp_path / "gamma.json"
        spec.write_text(json.dumps(spec_gamma_pair_all_quantities()))
        counts, reports = [], []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            calls.clear()
            assert winfer.cli.main(["compute", str(spec), "--reproducible",
                                    "--out", str(out)]) == 0
            counts.append(len(calls))
            reports.append(out.read_text())
        assert counts[0] == 1
        assert len(calls[0][1]["components"]) == 12
        assert counts[0] == counts[1]
        assert reports[0] == reports[1]

    def test_rho_and_the_chernoff_half_are_one_component(self, monkeypatch):
        """bhattacharyya-coeff, bhattacharyya-div and chernoff-coeff@0.5 read one
        integral, E_phi(p^0.5 q^0.5): one lockstep component beside E_phi(p)."""
        calls = _count_calls(monkeypatch, "winfer.core", "integrate", with_kwargs=True)
        spec = dict(spec_gamma_pair_all_quantities(), alpha_grid=[0.5],
                    quantities=["bhattacharyya-coeff", "bhattacharyya-div", "chernoff-coeff"])
        report, code = compute_report(spec)
        assert code == 0
        assert len(calls) == 1 and len(calls[0][1]["components"]) == 2
        rho, div, coeff = (r["value"] for r in report["quantities"])
        assert div == pytest.approx(-math.log(coeff), rel=1e-14)
        assert coeff == pytest.approx(rho / 2.0, rel=1e-14)  # E_phi(p) = 2 for gamma(2, 1)

    def test_vector_report_shares_the_mesh(self, monkeypatch):
        """kl and rho climb the pair's ladder together and stop at level 40, tv
        reads the pair's levels 48 and 60, and E_phi(p) climbs its own (p, p)
        meshes: 6 tensor rules, each built once."""
        calls = _count_calls(monkeypatch, "winfer.core", "gauss_hermite_nodes")
        spec = {"schema": 1,
                "distributions": [
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()}},
                    {"family": "gaussian-multivariate",
                     "params": {"mean": [0.5, -0.2, 0.1],
                                "cov": [[1.2, 0.1, 0.0], [0.1, 0.9, 0.0],
                                        [0.0, 0.0, 1.1]]}}],
                "weight": {"kind": "exponential", "gamma": [0.1, -0.2, 0.05]},
                "quantities": ["tv", "kl", "bhattacharyya-div"]}
        report, code = compute_report(spec)
        assert code == 0
        assert [r["name"] for r in report["quantities"]] == \
            ["tv", "kl", "bhattacharyya-div"]
        assert _levels_by_center(calls) == [[32, 40], [32, 40, 48, 60]]

    def test_full_vector_report_builds_each_mesh_once(self, monkeypatch):
        """Every quantity of a d = 3 report: the pair's meshes at levels 32 and
        40 for the smooth integrals and 48 and 60 for tv, and (p, p) meshes at
        levels 32 and 40 per distribution that its weight mass, Shannon entropy
        and Renyi-entropy masses share."""
        calls = _count_calls(monkeypatch, "winfer.core", "gauss_hermite_nodes")
        spec = spec_gamma_pair_all_quantities()
        spec["distributions"] = [
            {"family": "gaussian-multivariate",
             "params": {"mean": [0.0, 0.1, 0.0], "cov": np.eye(3).tolist()}},
            {"family": "gaussian-multivariate",
             "params": {"mean": [0.5, -0.2, 0.1],
                        "cov": [[1.2, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 1.1]]}}]
        spec["weight"] = {"kind": "exponential", "gamma": [0.1, -0.2, 0.05]}
        report, code = compute_report(spec)
        assert code == 0
        assert len(report["quantities"]) > len(spec["quantities"])  # alpha rows
        assert _levels_by_center(calls) == [[32, 40], [32, 40], [32, 40, 48, 60]]

    def test_van_trees_cramer_rao_integrations(self, tmp_path, monkeypatch):
        """A shift-family run with van Trees makes 2 integrations.  Every row
        reads its integrals in closed form, and one lockstep call checks them
        with the interchange identities: of E, V, U, I_phi, s and I1 at theta
        for rows A and B, and of E, V, U and I_phi at the middle prior node."""
        import winfer.cli
        calls = _count_calls(monkeypatch, "winfer.core", "integrate")
        out = tmp_path / "report.json"
        assert winfer.cli.main(["cramer-rao", "--phi-gamma", "0.5", "--n", "5",
                                "--trials", "20000", "--van-trees", "--reproducible",
                                "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["bounds"]
        assert [row["version"] for row in rows] == ["A", "B", "van-trees-A", "van-trees-C"]
        assert rows[2]["lhs"] == rows[3]["lhs"]
        assert len(calls) == 2

    def test_bound_reads_its_integrals_in_the_regularity_call(self, monkeypatch):
        """Versions A and B check their closed forms at theta in the regularity
        check's call (E, V, U, then I_phi for A, s and I1 for B), and make no
        other."""
        from winfer.core import IntegrationConfig, WeightFunction
        from winfer.estimation import cramer_rao, gaussian_shift_model, mean_estimator
        calls = _count_calls(monkeypatch, "winfer.core", "integrate", with_kwargs=True)
        m, wf = gaussian_shift_model(), WeightFunction.exponential(0.5)
        for version, width in (("A", 4), ("B", 5)):
            calls.clear()
            cramer_rao(m, wf, 0.2, 5, mean_estimator(m, wf), (version,), IntegrationConfig(),
                       trials=1000)
            assert sorted(len(kw["components"]) for _, kw in calls) == [width]

    def test_kl_expansion_integrations(self, monkeypatch):
        """A 4-step kl_expansion_check makes 7 integrations: E and I_phi at theta
        in one call, the 2 weight masses of E', and one call per step for the
        weighted KL and E(theta + h)."""
        from winfer.core import IntegrationConfig, WeightFunction
        from winfer.estimation import gaussian_shift_model, kl_expansion_check
        calls = _count_calls(monkeypatch, "winfer.core", "integrate", with_kwargs=True)
        kl_expansion_check(gaussian_shift_model(1.1), WeightFunction.exponential(0.3), 0.2,
                           (4e-2, 2e-2, 1e-2, 5e-3), IntegrationConfig())
        assert sorted(len(kw["components"]) for _, kw in calls) == [1, 1, 2, 2, 2, 2, 2]

    def test_commands_do_not_import_scipy_stats(self, tmp_path):
        """scipy.stats costs set-up time on every start; nothing may pull it in."""
        gamma = tmp_path / "gamma.json"
        gamma.write_text(json.dumps(spec_gamma_pair_all_quantities()))
        poisson = dict(spec_gamma_pair_all_quantities(), distributions=[
            {"family": "poisson", "params": {"lam": 2.0}},
            {"family": "poisson", "params": {"lam": 3.5}}])
        poisson_path = tmp_path / "poisson.json"
        poisson_path.write_text(json.dumps(poisson))
        script = f"""
import sys
import winfer.cli
for argv in (["compute", {str(gamma)!r}, "--reproducible"],
             ["compute", {str(poisson_path)!r}, "--reproducible"],
             ["verify", "--suite", "kl-expansion", "--instances", "2", "--reproducible"]):
    winfer.cli.main(argv + ["--out", {str(tmp_path / "out.json")!r}])
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_steinsanov_sweep_one_enumeration_or_draw_per_n(self, tmp_path, monkeypatch,
                                                            method):
        """An eta sweep enumerates the types (exact) or draws the multinomial
        sample (mc) once per n, and each row equals the single-eta run bit for bit."""
        import winfer.cli
        from winfer import testing
        calls = []
        real_types, real_rng = testing._types, np.random.default_rng

        def types(*args):
            calls.append("types")
            return real_types(*args)

        def rng(*args):
            calls.append("rng")
            return real_rng(*args)
        monkeypatch.setattr(testing, "_types", types)
        monkeypatch.setattr(np.random, "default_rng", rng)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_binary(["stein-sanov-limit"])))
        base = ["steinsanov", "--spec", str(spec), "--n-list", "50,100,200",
                "--method", method, "--mc-samples", "20000"]

        def rows(extra):
            out = tmp_path / "out.csv"
            assert winfer.cli.main(base + extra + ["--out", str(out)]) == 0
            return out.read_text().splitlines()[1:]
        sweep = rows(["--eta-sweep"])
        assert calls == ["types" if method == "exact" else "rng"] * 3
        single = [row for eta in ("0.2", "0.1", "0.05", "0.02") for row in rows(["--eta", eta])]
        assert [row.split(",", 1)[1] for row in sweep] == single
        assert [row.split(",", 1)[0] for row in sweep] == \
            [eta for eta in ("0.2", "0.1", "0.05", "0.02") for _ in range(3)]


def _load(name: str, *path: str):
    """The module at ``path`` (from the repository root), loaded from its file once."""
    import importlib.util
    import pathlib
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, pathlib.Path(__file__).resolve().parents[1].joinpath(*path))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _compute_pool():
    """perfbench's compute-mix pool (``compute_spec``), loaded from its file."""
    return _load("perfbench_workloads", "perfbench", "workloads.py").compute_spec


def test_pool_compare_flags_a_broken_cross_check():
    """``scripts/pool_reports.py``: a closed form that agreed with its value in
    the reference and no longer does is an outcome flip; one that moves but
    still agrees is only counted."""
    pool = _load("pool_reports", "scripts", "pool_reports.py")

    def output(closed_form):
        return {"exit_code": 0, "report": {"quantities": [{
            "name": "kl", "value": 0.25, "numerical_error": 1e-12, "method": "quadrature",
            "closed_form": {"value": closed_form, "method": "closed-form"}}]}}

    closed = []
    flips, *_ = pool.compare(output(0.25 + 1e-15), output(0.25), "x", [], closed)
    assert flips == [] and len(closed) == 1 and closed[0][0] > 0
    flips, *_ = pool.compare(output(-0.25), output(0.25), "x", [], [])
    assert len(flips) == 1 and "no longer agrees with its value" in flips[0]


def test_verify_compare_flags_changed_reports(capsys):
    """``scripts/run_verify_all.py --against``: a changed count or violation
    count, or a number moved beyond ``close()``, fails the guard; a move
    within ``close()`` is only printed."""
    _load("pool_reports", "scripts", "pool_reports.py")  # compare imports it by name
    verify_all = _load("run_verify_all", "scripts", "run_verify_all.py")
    ref = {"suite": "chain", "instances": 10, "passed": True, "violations": [],
           "hypothesis_failures": 2, "margins": {"min_chain_margin": 0.5}, "notes": []}

    def changes(**edit):
        return verify_all.compare("chain", {**ref, **edit}, ref)

    assert changes() == 0
    assert changes(margins={"min_chain_margin": 0.5 + 1e-9}) == 0
    assert changes(margins={"min_chain_margin": 0.5 + 1e-3}) == 1
    assert changes(hypothesis_failures=3) == 1
    assert changes(passed=False, violations=[{"kind": "chain"}]) == 2
    assert "beyond close()" in capsys.readouterr().out


@pytest.mark.parametrize("cell", [
    "gamma/absolute/shape2", "exponential/quadratic/a1", "gaussian-scalar/exponential/a2",
    "poisson/absolute/a0", "poisson/exponential/a3", "mv-d2/a0", "mv-d3/a1",
    "pmf-m8/a0", "pmf-m64/a1"])
def test_pool_records_carry_finite_errors(cell):
    """Every finite value of a pool report has a finite error >= 0; exact sums
    keep error 0, and on the line and the integers the propagated errors of
    every quantity are positive."""
    report, _ = compute_report(_compute_pool()(cell, 0))
    records = [r for r in report["quantities"] if "value" in r and math.isfinite(r["value"])]
    assert records
    for rec in records:
        assert 0.0 <= rec["numerical_error"] < math.inf
        if cell.startswith("pmf"):
            assert (rec["numerical_error"], rec["method"]) == (0.0, "exact-sum")
        elif not cell.startswith("mv"):
            assert rec["numerical_error"] > 0.0, rec["name"]
