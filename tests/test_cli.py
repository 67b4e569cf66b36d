import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

import spectral_corner
from spectral_corner import SpecError, analytic_spectrum, cli, zeta_series
from spectral_corner.cli import RunConfig, main, run

from .conftest import SLIT_SQUARE_DOC
from .oracles import SQUARE_ZETA_PRIME0

SQUARE_DOC = {"kind": "rectangle", "params": {"a": 1.0, "b": 1.0}}
DISK_DOC = {"kind": "disk", "params": {"R": 1.0}}
_SMALL_GRID = ["--grid-h", "0.0625", "--eigs", "20"]


@pytest.fixture()
def square_doc(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(json.dumps(SQUARE_DOC))
    return str(p)


@pytest.fixture()
def disk_doc(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text(json.dumps(DISK_DOC))
    return str(p)


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out


class TestArtifacts:
    def test_spectrum_json_stamps(self, square_doc, capsys):
        code, out = run_json(["spectrum", "--domain", square_doc,
                              "--eigs", "10"], capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["command"] == "spectrum"
        assert len(doc["input_hash"]) == 64
        assert doc["version"]
        assert "error" in doc["result"]
        assert doc["result"]["eigenvalues"][0] == pytest.approx(
            2 * math.pi ** 2)

    def test_byte_identical_reruns(self, square_doc, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = main(["fit", "--domain", square_doc, "--eigs", "200",
                         "--seed", "3", "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_headers_and_parseable_numbers(self, square_doc, capsys):
        code, out = run_json(["trace", "--domain", square_doc,
                              "--eigs", "100", "--format", "csv"], capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0].startswith("# version,")
        assert lines[1].startswith("# input_hash,")
        assert lines[2] == "t,trace,error"
        for line in lines[3:]:
            t, tr, err = line.split(",")
            assert float(tr) > 0 and float(err) >= 0
        assert float(t) > 0

    def test_input_hash_tracks_config(self, square_doc, tmp_path):
        texts = []
        for seed in ("0", "1"):
            path = tmp_path / f"s{seed}.json"
            main(["mc", "--domain", square_doc, "--samples", "500",
                  "--steps", "16", "--seed", seed, "--out", str(path)])
            texts.append(json.loads(path.read_text()))
        assert texts[0]["input_hash"] != texts[1]["input_hash"]

    def test_every_row_carries_error_field(self, square_doc, capsys):
        for argv in (["trace", "--domain", square_doc, "--eigs", "100"],
                     ["fit", "--domain", square_doc, "--eigs", "100"],
                     ["wedge", "--alpha", "1.0", "--t", "0.05"],
                     ["mc", "--domain", square_doc, "--samples", "500",
                      "--steps", "16"]):
            code, out = run_json(argv, capsys)
            assert code == 0
            result = json.loads(out.out)["result"]
            if "rows" in result:
                assert all("error" in row or "a_remainder" in row
                           for row in result["rows"])
            else:
                assert "error" in result


class TestCommands:
    def test_zdet_square_matches_oracle(self, square_doc, capsys):
        code, out = run_json(["zdet", "--domain", square_doc,
                              "--eigs", "100"], capsys)
        assert code == 0
        result = json.loads(out.out)["result"]
        assert result["zeta_prime0"] == pytest.approx(SQUARE_ZETA_PRIME0,
                                                      abs=1e-6)
        assert result["zdet"] == pytest.approx(
            math.exp(-SQUARE_ZETA_PRIME0), rel=1e-6)

    def test_zeta_values(self, square_doc, capsys):
        code, out = run_json(["zeta", "--domain", square_doc, "--eigs", "100",
                              "--s", "2.0"], capsys)
        assert code == 0
        row = json.loads(out.out)["result"]["values"][0]
        assert row["route"] == "continued"

    def test_anomaly_constant_sigma(self, square_doc, capsys):
        code, out = run_json(["anomaly", "--domain", square_doc,
                              "--sigma", "0.3"], capsys)
        assert code == 0
        result = json.loads(out.out)["result"]
        assert result["passed"]
        assert result["rhs"] == pytest.approx(0.15, abs=1e-10)

    def test_constant_sigma_on_disk_is_a_dilation(self, disk_doc, capsys):
        code, out = run_json(["spectrum", "--domain", disk_doc, "--sigma",
                              "0.3", "--u", "1", "--eigs", "10"], capsys)
        assert code == 0
        result = json.loads(out.out)["result"]
        assert result["provenance"]["source"] == "analytic"
        assert result["eigenvalues"][0] == pytest.approx(
            math.exp(-0.6) * jn_zeros(0, 1)[0] ** 2, rel=1e-12)

    def test_wedge_bounds_hold(self, capsys):
        code, out = run_json(["wedge", "--alpha", "0.5", "2.0", "3.0",
                              "--eps", "1.0", "--t", "0.05", "0.1"], capsys)
        assert code == 0
        rows = json.loads(out.out)["result"]["rows"]
        assert len(rows) == 6
        assert all(r["pass"] for r in rows)

    def test_compare_square_json_and_csv(self, square_doc, capsys):
        code, out = run_json(["compare", "--domain", square_doc], capsys)
        assert code == 0
        result = json.loads(out.out)["result"]
        assert result["all_pass"]
        rows = result["rows"]
        assert set(rows) == {"a_m1", "a_mhalf", "a_0"}
        code, out = run_json(["compare", "--domain", square_doc,
                              "--format", "csv"], capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[2] == "coefficient,predicted,fitted,abs_gap,tolerance,pass"
        assert len(lines) == 6
        for line in lines[3:]:
            name, *cells, passed = line.split(",")
            r = rows[name]
            assert [float(c) for c in cells] == \
                [r["predicted"], r["fitted"], r["abs_gap"], r["tolerance"]]
            assert passed == "True"

    def test_zeta_on_disk_takes_the_series_route(self, disk, disk_doc, capsys):
        code, out = run_json(["zeta", "--domain", disk_doc, "--s", "3",
                              "--tol", "1e-6"], capsys)
        assert code == 0
        row = json.loads(out.out)["result"]["values"][0]
        assert row["route"] == "series"
        assert row["error"] == 1e-6
        assert row["zeta"] == zeta_series(analytic_spectrum(disk, 400), 3.0,
                                          tol=1e-6)

    def test_anomaly_tol_is_the_verdict_tolerance(self, square_doc, capsys):
        code, out = run_json(["anomaly", "--domain", square_doc, "--sigma",
                              "0.3", "--tol", "0.5"], capsys)
        assert code == 0
        assert json.loads(out.out)["result"]["tolerance"] == 0.5


class TestFailures:
    def test_invalid_domain_doc_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "hexagon", "params": {}}))
        code, out = run_json(["spectrum", "--domain", str(p)], capsys)
        assert code == 2
        err = json.loads(out.err)
        assert err["error"]["kind"] == "spec"

    @pytest.mark.parametrize("text", [
        json.dumps({"kind": "rectangle", "params": {"a": 1.0}}),
        json.dumps({"kind": "rectangle", "params": {"a": "x", "b": 1.0}}),
        "{not json",
        "[1, 2]",
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": {"x": 1}}),
        json.dumps({"kind": "rectangle", "params": {"a": "nan", "b": 1.0}}),
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": "foo(x)"}),
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": "zoo"}),
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": "x+I"}),
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": True}),
        json.dumps({"kind": "rectangle", "params": {"a": 1.0, "b": 1.0},
                    "sigma": {"": 1}}),
    ], ids=["missing-param", "non-numeric-param", "malformed-json",
            "not-an-object", "non-scalar-sigma", "nan-param",
            "undefined-function-sigma", "infinite-sigma", "complex-sigma",
            "boolean-sigma", "unparseable-key-sigma"])
    def test_malformed_domain_doc_exits_2(self, text, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out = run_json(["spectrum", "--domain", str(p)], capsys)
        assert code == 2
        err = json.loads(out.err)
        assert err["error"]["kind"] == "spec" and err["error"]["message"]

    @pytest.mark.parametrize("sigma", ["sqrt(x-0.5)", "log(x-0.5)"])
    def test_non_real_sigma_exits_2(self, sigma, square_doc, capsys):
        code, out = run_json(["spectrum", "--domain", square_doc, "--sigma",
                              sigma, "--u", "1", "--grid-h", "0.0625",
                              "--eigs", "20"], capsys)
        assert code == 2
        err = json.loads(out.err)
        assert err["error"]["kind"] == "spec"
        assert "x - 0.5" in err["error"]["message"]

    @pytest.mark.parametrize("sigma, shown", [("sqrt(x-0.5)", "sqrt(x - 0.5)"),
                                              ("zeta(x)", "zeta(x)")])
    def test_anomaly_rejects_sigma_before_integrals(self, sigma, shown,
                                                    square_doc, capsys):
        code, out = run_json(["anomaly", "--domain", square_doc, "--sigma",
                              sigma, "--grid-h", "0.0625", "--eigs", "20"],
                             capsys)
        assert code == 2
        err = json.loads(out.err)["error"]
        assert err["kind"] == "spec" and "warnings" not in err
        assert f"sigma ScalarField({shown})" in err["message"]

    @pytest.mark.parametrize("doc, argv, code", [
        (SQUARE_DOC, ["anomaly", "--sigma", "sqrt(x-0.5)", *_SMALL_GRID], 2),
        (SQUARE_DOC, ["anomaly", "--sigma", "exp(700*x*y)", *_SMALL_GRID], 3),
        (DISK_DOC, ["trace", "--t-min", "1e-6", "--t-max", "1e-5", "--u", "1",
                    *_SMALL_GRID], 3),
        (SQUARE_DOC, ["spectrum", "--eigs", "abc"], 2),
        (SQUARE_DOC, ["wedge", "--alpha", "1"], 2),
        (None, ["wedge"], 2),
    ], ids=["non-real-sigma", "overflowing-sigma", "t-below-admissible",
            "bad-flag-value", "flag-outside-command", "missing-alpha"])
    def test_stderr_is_one_json_document(self, doc, argv, code, tmp_path):
        # as a process, so that warnings and usage errors reach stderr unless
        # the CLI keeps them out; the overflowing sigma warns before the
        # integrals fail.  --domain goes last wherever a document is given.
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        src = str(Path(spectral_corner.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_corner.cli", *argv,
             *(["--domain", str(p)] if doc else [])],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == code
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == {2: "spec", 3: "numerical"}[code]
        if "exp(700*x*y)" in argv:
            assert "overflow encountered in square" in err["warnings"]

    def test_anomaly_without_a_route_names_the_kind(self, disk_doc, capsys):
        code, out = run_json(["anomaly", "--domain", disk_doc, "--sigma",
                              "0.2*x*y"], capsys)
        assert code == 2
        err = json.loads(out.err)["error"]
        assert err["kind"] == "spec"
        assert err["message"].startswith("no spectrum route for kind 'disk'")
        assert "constant sigma" in err["message"]
        assert "polygon" in err["message"]

    def test_anomaly_grid_too_coarse_names_k_h_and_nodes(self, square_doc,
                                                         capsys):
        # the zeta'(0) window needs k = 517 at u = 1; h = 1/16 has 225 nodes
        code, out = run_json(["anomaly", "--domain", square_doc, "--sigma",
                              "0.2*x*y", "--grid-h", "0.0625", "--eigs", "60"],
                             capsys)
        assert code == 2
        message = json.loads(out.err)["error"]["message"]
        for part in ("k=517", "h=0.0625", "225 interior nodes", "reduce h"):
            assert part in message

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_short_default_window_names_it(self, command, disk_doc, capsys):
        # 400 disk eigenvalues put the default window at [0.0162, 0.1]
        code, out = run_json([command, "--domain", disk_doc], capsys)
        assert code == 2
        message = json.loads(out.err)["error"]["message"]
        assert "[0.0162, 0.1]" in message and "more eigenvalues" in message
        assert run_json(["trace", "--domain", disk_doc], capsys)[0] == 0

    def test_wedge_without_alpha_exits_2(self, capsys):
        code, out = run_json(["wedge"], capsys)
        assert code == 2
        err = json.loads(out.err)["error"]
        assert err == {"kind": "spec",
                       "message": "--alpha is required for this command"}

    def test_missing_domain_exits_2(self, capsys):
        code, out = run_json(["spectrum"], capsys)
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, out = run_json(["spectrum", "--domain", "/no/such/file.json"],
                             capsys)
        assert code == 2

    def test_numerical_failure_exits_3(self, disk_doc, capsys):
        code, out = run_json(["trace", "--domain", disk_doc, "--eigs", "50",
                              "--t-min", "1e-6", "--t-max", "1e-5"], capsys)
        assert code == 3
        err = json.loads(out.err)
        assert err["error"]["kind"] == "numerical"
        assert err["error"]["stage"]

    @pytest.mark.parametrize("doc", [
        {"kind": "sector", "params": {"alpha": 1e-9, "R": 1.0}},
        {"kind": "rectangle", "params": {"a": 1e-9, "b": 3.0}},
    ], ids=["sector", "rectangle"])
    def test_sliver_domain_exits_3(self, doc, tmp_path, capsys):
        # the first eigenvalue lies far above the Weyl guess of the cutoff
        p = tmp_path / "sliver.json"
        p.write_text(json.dumps(doc))
        code, out = run_json(["spectrum", "--domain", str(p), "--eigs", "4"],
                             capsys)
        assert code == 3
        assert json.loads(out.err)["error"]["stage"] == "analytic_spectrum"

    def test_bad_flag_values_exit_2(self, square_doc, capsys):
        code, out = run_json(["compare", "--domain", square_doc,
                              "--tol", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["trace", "--t-min", "nan", "--t-max", "0.1"],
        ["trace", "--t-min", "inf", "--t-max", "inf"],
        ["trace", "--t-points", "-1"],
        ["trace", "--t-points", "0"],
        ["spectrum", "--grid-h", "nan", "--sigma", "x", "--u", "1"],
        ["zdet", "--tol", "nan"],
        ["mc", "--t", "0.1", "nan"],
        ["wedge", "--alpha", "nan"],
        ["wedge", "--alpha", "inf"],
        ["wedge", "--alpha", "0.5", "--eps", "inf"],
        ["zeta", "--s", "nan"],
    ], ids=["t-min-nan", "t-range-inf", "t-points-negative", "t-points-zero",
            "grid-h-nan", "tol-nan", "mc-t-nan", "alpha-nan",
            "alpha-inf", "eps-inf", "s-nan"])
    def test_non_finite_or_empty_numbers_exit_2(self, argv, square_doc,
                                                capsys):
        # --domain and --eigs only where the command reads them
        tail = {"wedge": [], "mc": ["--domain", square_doc]}.get(
            argv[0], ["--domain", square_doc, "--eigs", "20"])
        code, out = run_json([*argv, *tail], capsys)
        assert code == 2
        err = json.loads(out.err)["error"]
        assert err["kind"] == "spec" and err["message"]


# Each RunConfig flag with a command-line value unlike its default, and the
# value the parser must hand RunConfig for it.
_FLAG_VALUES = {
    "domain": ("d.json", "d.json"), "sigma": ("x", "x"), "u": ("0.5", 0.5),
    "t_min": ("0.01", 0.01), "t_max": ("0.1", 0.1), "t_points": ("7", 7),
    "grid_h": ("0.125", 0.125), "eigs": ("9", 9), "seed": ("3", 3),
    "tol": ("0.5", 0.5), "out": ("o.json", "o.json"), "format": ("csv", "csv"),
    "alpha": ("1.5", [1.5]), "eps": ("0.5", [0.5]), "t": ("0.05", [0.05]),
    "samples": ("99", 99), "steps": ("8", 8), "s": ("3", [3.0]),
}
# The flags each command reads.
_SPECTRUM_ROW = {"domain", "sigma", "u", "grid_h", "eigs", "seed", "out",
                 "format"}
_TRACE_ROW = _SPECTRUM_ROW | {"t_min", "t_max", "t_points"}
_ROWS = {
    "spectrum": _SPECTRUM_ROW,
    "trace": _TRACE_ROW,
    "fit": _TRACE_ROW,
    "compare": _TRACE_ROW | {"tol"},
    "zeta": _SPECTRUM_ROW | {"tol", "s"},
    "zdet": _SPECTRUM_ROW | {"tol"},
    "anomaly": {"domain", "sigma", "grid_h", "eigs", "seed", "tol", "out",
                "format"},
    "wedge": {"alpha", "eps", "t", "out", "format"},
    "mc": {"domain", "t", "samples", "steps", "seed", "out", "format"},
}


class TestFlagTable:
    def test_rows_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
        assert set(_FLAG_VALUES) == fields
        assert sum(map(len, _ROWS.values())) == 81

    @pytest.mark.parametrize("command", sorted(_ROWS))
    @pytest.mark.parametrize("name", sorted(_FLAG_VALUES))
    def test_command_takes_only_its_flags(self, command, name, monkeypatch,
                                          capsys):
        text, value = _FLAG_VALUES[name]
        flag = "--" + name.replace("_", "-")
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        code = main([command, flag, text])
        err = capsys.readouterr().err
        if name in _ROWS[command]:
            assert code == 0 and getattr(seen[0], name) == value
        else:
            assert code == 2 and not seen
            error = json.loads(err)["error"]
            assert error["kind"] == "spec" and flag in error["message"]

    def test_help_exits_0_and_lists_only_row_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["wedge", "-h"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "--alpha" in text and "--domain" not in text


# Domain documents for the fuzz test: each kind with its own parameter
# names, any value of which may be junk, plus bogus kinds and shapes.
_NUMBER = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3),
                    st.sampled_from([0.5, 1.0, 1e-9]))
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.sampled_from(["nan", "inf", "-inf", "1.0", "x"]),
                  st.lists(_NUMBER, max_size=3),
                  st.lists(st.lists(_NUMBER, max_size=3), max_size=3),
                  st.dictionaries(st.text(max_size=2), _NUMBER, max_size=2))
_POINT = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=2)
_VERTICES = st.one_of(st.lists(_POINT, min_size=3, max_size=5), _JUNK)
_SLITS = st.one_of(st.lists(st.lists(_POINT, min_size=2, max_size=3),
                            max_size=2), _JUNK)
_VALUE = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), _NUMBER, _JUNK)
_PARAMS = {"rectangle": {"a": _VALUE, "b": _VALUE},
           "disk": {"R": _VALUE},
           "sector": {"alpha": _VALUE, "R": _VALUE},
           "polygon": {"vertices": _VERTICES},
           "slit-polygon": {"vertices": _VERTICES, "slits": _SLITS}}
_SIGMA = st.one_of(st.sampled_from(
    ["0.2*x*y", "sqrt(x-0.5)", "log(x)", "1/x", "foo(x)", "zoo", "x+I",
     "exp(1000*x)", ""]), _JUNK)
_KIND_DOC = st.sampled_from(sorted(_PARAMS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind),
         "params": st.one_of(st.fixed_dictionaries(_PARAMS[kind]),
                             st.fixed_dictionaries({}, optional=_PARAMS[kind]),
                             _JUNK)},
        optional={"sigma": _SIGMA}))
_DOC = st.one_of(_KIND_DOC, _KIND_DOC, _KIND_DOC,
                 st.fixed_dictionaries({"kind": _JUNK},
                                       optional={"params": _JUNK}),
                 _JUNK)


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_DOC)
    def test_malformed_documents_exit_0_2_or_3(self, doc, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        code, out = run_json(["spectrum", "--domain", str(p), "--u", "1",
                              "--eigs", "4", "--grid-h", "0.25"], capsys)
        assert code in (0, 2, 3)
        if code:
            err = json.loads(out.err)
            assert err["error"]["kind"] == {2: "spec", 3: "numerical"}[code]


class TestRunConfig:
    def test_direct_invocation(self, square_doc, tmp_path):
        out = tmp_path / "direct.json"
        cfg = RunConfig(command="spectrum", domain=square_doc, eigs=10,
                        out=str(out))
        assert run(cfg) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["count"] >= 10

    def test_validation(self):
        with pytest.raises(SpecError):
            RunConfig(command="frobnicate")
        with pytest.raises(SpecError):
            RunConfig(command="trace", format="xml")
        with pytest.raises(SpecError):
            RunConfig(command="trace", grid_h=-0.1)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_u_rejected(self, u):
        with pytest.raises(SpecError, match="--u must be finite"):
            RunConfig(command="spectrum", sigma="x", u=u)
