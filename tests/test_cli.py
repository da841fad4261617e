import json
import os
import subprocess
import sys
import time
from math import pi
from pathlib import Path

import pytest

import toeplab
from toeplab.cli import main
from toeplab.toric import EXAMPLE_SUBTORI

A1_POLY = {"terms": [{"gamma": [1, 0], "delta": [1, 0], "re": 1.0, "im": 0.0}]}
A1_INV = {"terms": [{"gamma": [1, 0], "coeff": 1}]}
A2_INV = {"terms": [{"gamma": [0, 1], "coeff": 1}]}
F_X = {"coeffs": [0, 1], "label": "x"}


def run_cli(tmp_path, experiment, manifest, extra=()):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main(["--experiment", experiment, "--manifest", str(mpath), "--out", str(out), *extra])
    return code, out


def test_theorem1_run(tmp_path):
    manifest = {"n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, 40], "fit_order": 1}
    code, out = run_cli(tmp_path, "theorem1", manifest)
    assert code == 0
    assert (out / "measures.csv").exists() and (out / "run.json").exists()
    fit = json.loads((out / "fit.json").read_text())
    # scaled measure is pi (1 + 1/k) on the nose
    assert fit["c"][0] == pytest.approx(pi, abs=1e-9)
    assert fit["c"][1] == pytest.approx(pi, abs=1e-7)
    # an invariant symbol: every monomial is its own 1x1 sector
    assert fit["sectors"] == [{"k": k, "count": k + 1, "largest": 1} for k in (10, 20, 30, 40)]
    lines = (out / "measures.csv").read_text().splitlines()
    assert lines[0] == "n,k,m,f_id,mu,scaled_mu"
    assert lines[1].startswith("2,10,1,x,5.5,")
    assert len(lines) == 5


@pytest.mark.parametrize("field,value", [
    ("re", "x"), ("re", None), ("re", True), ("im", "0"),
    ("gamma", ["a", 0]), ("gamma", [1.5, 0]), ("delta", [True, 0]), ("delta", 1),
    ("terms", 5),
], ids=["re_string", "re_null", "re_bool", "im_string", "gamma_letter", "gamma_float",
        "delta_bool", "delta_scalar", "terms_scalar"])
def test_theorem1_malformed_symbol_exits_2(tmp_path, field, value):
    term = {**A1_POLY["terms"][0]}
    symbol = {"terms": value} if field == "terms" else {"terms": [{**term, field: value}]}
    manifest = {"n": 2, "symbol": symbol, "f": F_X, "k_list": [10, 20, 30, 40]}
    code, _ = run_cli(tmp_path, "theorem1", manifest)
    assert code == 2


def test_theorem2_run(tmp_path):
    manifest = {
        "subtorus": {"example": "diagonal_circle_2"},
        "symbol": A1_INV,
        "f": F_X,
        "k_list": [10, 15, 20, 25, 30],
        "samples": 50000,
        "seed": 1,
    }
    code, out = run_cli(tmp_path, "theorem2", manifest)
    assert code == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["regular_free"]["ok"] is True
    assert payload["fit"]["c"][0] == pytest.approx(pi, abs=1e-6)
    assert abs(payload["leading_estimate"] - pi) < 5 * payload["leading_stderr"]
    lines = (out / "fiber_measures.csv").read_text().splitlines()
    assert lines[0] == "k,count,mu,scaled_mu"
    assert len(lines) == 6


def test_theorem2_regularity_failure_exits_3(tmp_path):
    manifest = {
        "subtorus": {"example": "weighted_line"},
        "symbol": A1_INV,
        "f": F_X,
        "k_list": [10, 15, 20],
    }
    code, out = run_cli(tmp_path, "theorem2", manifest)
    assert code == 3
    # the fiber measures succeed before the check fails; nothing is written
    assert not out.exists()


@pytest.mark.parametrize("experiment,manifest", [
    ("theorem1", {"n": 2, "symbol": {"terms": [{"gamma": [1, 0], "delta": [1, 0], "re": 1.5e308, "im": 0.0}]},
                  "f": {"coeffs": [0, 1e308]}, "k_list": [8, 12, 16, 24, 32, 48]}),
    ("theorem2", {"subtorus": {"example": "product_of_lines"}, "symbol": {"terms": [{"gamma": [1, 0, 0, 0], "coeff": "1e300"}]},
                  "f": {"coeffs": [0, 0, 1e300]}, "k_list": [4, 8, 12, 16, 24, 32, 40]}),
], ids=["theorem1", "theorem2"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_measures_exit_3(tmp_path, capsys, experiment, manifest):
    # the measures overflow to inf; a fit of them wrote NaN and Infinity, which is not JSON
    code, out = run_cli(tmp_path, experiment, manifest)
    assert code == 3
    assert not out.exists()
    assert "numerical failure in spectral.fit_expansion" in capsys.readouterr().err


def test_theorem2_unbounded_samples_refused_before_work(tmp_path):
    manifest = {"subtorus": {"example": "product_of_lines"}, "symbol": {"terms": [{"gamma": [1, 0, 0, 0], "coeff": 1}]},
                "f": F_X, "k_list": [4, 8, 12, 16, 24, 32, 40], "samples": 10 ** 12}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "theorem2", manifest)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert not out.exists()


def test_failed_rerun_leaves_earlier_run_untouched(tmp_path):
    manifest = {"n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, 40], "fit_order": 1}
    code, out = run_cli(tmp_path, "theorem1", manifest)
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # the measures are computed, then the fit finds 4 k values too few for order 5
    code, _ = run_cli(tmp_path, "theorem1", {**manifest, "f": {"coeffs": [0, 0, 1]}, "fit_order": 5})
    assert code == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_inverse_run(tmp_path):
    manifest = {
        "n": 2,
        "symbol": A1_INV,
        "grid": [["0", "1"], ["1/2", "1/2"], ["1/4", "3/4"]],
        "k_max_list": [16, 32, 64],
        "order": 1,
    }
    code, out = run_cli(tmp_path, "inverse", manifest)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [r["k_max"] for r in summary["runs"]] == [16, 32, 64]
    assert all(r["missing_points"] == 0 for r in summary["runs"])
    assert summary["runs"][-1]["max_abs_err"] < 1e-3
    # one acceleration step leaves an O(k^-2) tail
    assert summary["slope"] < -1.5
    lines = (out / "reconstruction.csv").read_text().splitlines()
    assert lines[0].startswith("k_max,point,levels,estimate,truth")
    assert len(lines) == 10


def test_inverse_rejects_repeated_k_max(tmp_path):
    # one distinct cutoff has no log-log slope
    manifest = {"n": 2, "symbol": A1_INV, "grid": [["1/2", "1/2"]], "k_max_list": [16, 16]}
    code, out = run_cli(tmp_path, "inverse", manifest)
    assert code == 2
    assert not out.exists()


def test_inverse_rejects_both_k_max_forms(tmp_path):
    manifest = {
        "n": 2,
        "symbol": A1_INV,
        "grid": [["1/2", "1/2"]],
        "k_max": 16,
        "k_max_list": [16, 32],
    }
    code, _ = run_cli(tmp_path, "inverse", manifest)
    assert code == 2


def test_model_run(tmp_path):
    manifest = {"states": [{"m": [1], "k_dim": 1}, {"m": [2], "k_dim": 1}]}
    code, out = run_cli(tmp_path, "model", manifest)
    assert code == 0
    report = json.loads((out / "isometry.json").read_text())
    assert report["ok"] is True
    assert report["quad"] == {"hermite_points": 64, "fourier_points": 24}


def test_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "out").write_text("a file, not a directory")
    code, _ = run_cli(tmp_path, "model", {"states": [{"m": [1], "k_dim": 1}]})
    assert code == 2
    assert "cannot write outputs" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "a file, not a directory"


def test_distinguish_run(tmp_path):
    manifest = {
        "subtorus": {"example": "diagonal_circle_2"},
        "symbol_a": A1_INV,
        "symbol_b": A2_INV,
        "k_max": 6,
    }
    code, out = run_cli(tmp_path, "distinguish", manifest)
    assert code == 0
    report = json.loads((out / "distinguish.json").read_text())
    assert report["first_labeled_difference"] == 1
    assert report["first_multiset_difference"] is None


def test_unknown_manifest_field(tmp_path):
    manifest = {"n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, 40], "bogus": 1}
    code, _ = run_cli(tmp_path, "theorem1", manifest)
    assert code == 2


THEOREM1 = {"n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, 40]}
DISTINGUISH = {"subtorus": {"example": "diagonal_circle_2"}, "symbol_a": A1_INV, "symbol_b": A2_INV, "k_max": 4}


@pytest.mark.parametrize("experiment,manifest,field", [
    ("theorem1", {**THEOREM1, "f": {**F_X, "bogus": 1}}, "bogus"),
    ("theorem1", {**THEOREM1, "f": {"label": "x"}}, "coeffs"),
    ("distinguish", {**DISTINGUISH, "symbol_a": {**A1_INV, "bogus": 1}}, "bogus"),
    ("distinguish", {**DISTINGUISH, "symbol_a": {}}, "terms"),
    ("distinguish", {**DISTINGUISH, "symbol_a": {"terms": [{"gamma": [1, 0], "coeff": 1, "bogus": 1}]}}, "bogus"),
    ("distinguish", {**DISTINGUISH, "symbol_a": {"terms": [{"gamma": [1, 0]}]}}, "coeff"),
    ("distinguish", {**DISTINGUISH, "subtorus": {"n": 2, "d": 1, "Bt": [[1, 1]], "alpha": [1], "bogus": 1}}, "bogus"),
    ("distinguish", {**DISTINGUISH, "subtorus": {"n": 2, "d": 1, "Bt": [[1, 1]]}}, "alpha"),
    ("distinguish", {**DISTINGUISH, "subtorus": {"example": "diagonal_circle_2", "bogus": 1}}, "bogus"),
    ("model", {"states": [{"m": [1], "k_dim": 1, "bogus": 1}]}, "bogus"),
    ("model", {"states": [{"m": [1]}]}, "k_dim"),
    # every quad field is optional, so a quad record can only have an unknown one
    ("model", {"states": [{"m": [1], "k_dim": 1}], "quad": {"bogus": 1}}, "bogus"),
], ids=["f_unknown", "f_missing", "symbol_unknown", "symbol_missing", "term_unknown", "term_missing",
        "subtorus_unknown", "subtorus_missing", "example_unknown", "state_unknown", "state_missing", "quad_unknown"])
def test_nested_record_fields_checked(tmp_path, capsys, experiment, manifest, field):
    code, out = run_cli(tmp_path, experiment, manifest)
    assert code == 2
    assert not out.exists()
    assert f"'{field}'" in capsys.readouterr().err


def test_readme_manifests_run(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    manifests = [json.loads(block.split("```", 1)[0]) for block in section.split("```json\n")[1:]]
    assert sorted(m["experiment"] for m in manifests) == ["distinguish", "inverse", "model", "theorem1", "theorem2"]
    for manifest in manifests:
        run_dir = tmp_path / manifest["experiment"]
        run_dir.mkdir()
        code, out = run_cli(run_dir, manifest["experiment"], manifest)
        assert code == 0
        outputs = json.loads((out / "run.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "run.json")


def test_experiment_mismatch(tmp_path):
    manifest = {"experiment": "model", "n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, 40]}
    code, _ = run_cli(tmp_path, "theorem1", manifest)
    assert code == 2


def test_missing_manifest(tmp_path):
    code = main(["--experiment", "model", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_malformed_manifest(tmp_path):
    mpath = tmp_path / "broken.json"
    mpath.write_text("{not json")
    code = main(["--experiment", "model", "--manifest", str(mpath), "--out", str(tmp_path / "o")])
    assert code == 2
    mpath.write_bytes(b"\xff\xfe{}")  # not UTF-8
    code = main(["--experiment", "model", "--manifest", str(mpath), "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_threads_flag(tmp_path):
    # BLAS threads come from the environment; the flag is unknown
    manifest = {"states": [{"m": [1], "k_dim": 1}]}
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "model", manifest, extra=("--threads", "1"))
    assert exc.value.code == 2


@pytest.mark.parametrize("experiment,manifest,literal", [
    ("distinguish", {"subtorus": {"example": "diagonal_circle_2"}, "symbol_a": A1_INV, "symbol_b": A2_INV,
                     "k_max": 4, "tol": "@"}, "NaN"),
    ("distinguish", {"subtorus": {"example": "diagonal_circle_2"}, "symbol_a": A1_INV, "symbol_b": A2_INV,
                     "k_max": 4, "tol": "@"}, "1e400"),
    ("theorem1", {"n": 2, "symbol": A1_POLY, "f": {"coeffs": [0, "@"]}, "k_list": [10, 20, 30, 40]}, "NaN"),
    ("theorem1", {"n": 2, "symbol": A1_POLY, "f": {"coeffs": [0, "@"]}, "k_list": [10, 20, 30, 40]}, "-Infinity"),
    ("inverse", {"n": 2, "symbol": A1_INV, "grid": [["@", "1/2"]], "k_max": 8}, "Infinity"),
    # integers past the float range where a float is read
    ("theorem1", {"n": 2, "symbol": A1_POLY, "f": {"coeffs": [0, "@"]}, "k_list": [10, 20, 30, 40]}, "1" + "0" * 400),
    ("distinguish", {"subtorus": {"example": "diagonal_circle_2"}, "symbol_a": A1_INV, "symbol_b": A2_INV,
                     "k_max": 4, "tol": "@"}, "1" + "0" * 400),
    ("theorem1", {"n": 2, "symbol": {"terms": [{**A1_POLY["terms"][0], "re": "@"}]}, "f": F_X,
                  "k_list": [10, 20, 30, 40]}, "1" + "0" * 400),
    ("theorem1", {"n": 2, "symbol": {"terms": [{**A1_POLY["terms"][0], "im": "@"}]}, "f": F_X,
                  "k_list": [10, 20, 30, 40]}, "-1" + "0" * 400),
    # past Python's 4,300-digit limit on int parsing, in a field that is never a float
    ("theorem1", {"n": 2, "symbol": A1_POLY, "f": F_X, "k_list": [10, 20, 30, "@"]}, "7" * 5000),
    # integers past the float range or int64 where the program reads them as such
    ("model", {"states": [{"m": ["@"], "k_dim": 1}]}, "1" + "0" * 400),
    ("theorem2", {"subtorus": {"n": 4, "d": 1, "Bt": [["@", 1, 1, 1]], "alpha": [1]}, "symbol": {
        "terms": [{"gamma": [0, 1, 0, 0], "coeff": 1}]}, "f": F_X, "k_list": [4, 8, 12]}, str(2**70)),
    ("inverse", {"n": 2, "symbol": {"terms": [{"gamma": [1, 0], "coeff": "@"}]}, "grid": [["1/2", "1/2"]],
                 "k_max": 8}, "1" + "0" * 400),
], ids=["tol_nan", "tol_overflow", "coeff_nan", "coeff_minus_infinity", "grid_infinity",
        "coeff_int_overflow", "tol_int_overflow", "re_int_overflow", "im_int_overflow", "int_5000_digits",
        "state_m_int_overflow", "weight_past_int64", "invariant_coeff_int_overflow"])
def test_non_finite_manifest_number_exits_2(tmp_path, experiment, manifest, literal):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest).replace('"@"', literal))
    out = tmp_path / "out"
    assert main(["--experiment", experiment, "--manifest", str(mpath), "--out", str(out)]) == 2
    assert not out.exists()


def _int_leaves(obj, path=()):
    """Paths to the integer leaves of a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    if isinstance(obj, int) and not isinstance(obj, bool):
        yield path
    for key, value in items:
        yield from _int_leaves(value, path + (key,))


def test_integer_leaves_past_machine_range_exit_0_or_2(tmp_path):
    """Each integer of each README manifest, set to 10**400 alone, runs or is
    refused with status 2 within a second; no integer crashes or hangs a run."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    manifests = [json.loads(block.split("```", 1)[0]) for block in section.split("```json\n")[1:]]
    theorem2 = next(m for m in manifests if m["experiment"] == "theorem2")
    sub = EXAMPLE_SUBTORI[theorem2["subtorus"]["example"]]
    manifests.append({**theorem2, "subtorus": {"n": sub.n, "d": sub.d, "alpha": list(sub.alpha),
                                               "Bt": [list(row) for row in sub.weight_matrix]}})
    for number, manifest in enumerate(manifests):
        for path in _int_leaves(manifest):
            changed = json.loads(json.dumps(manifest))
            parent = changed
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = 10**400
            run_dir = tmp_path / f"{number}_{'_'.join(map(str, path))}"
            run_dir.mkdir()
            start = time.perf_counter()
            code, _ = run_cli(run_dir, manifest["experiment"], changed)
            assert code in (0, 2), (manifest["experiment"], path)
            assert time.perf_counter() - start < 1.0, (manifest["experiment"], path)


def test_large_seed_stays_valid(tmp_path):
    manifest = {"subtorus": {"example": "full_torus_12"}, "symbol": A1_INV, "f": F_X,
                "k_list": [4, 6, 8], "seed": 10 ** 30}
    assert run_cli(tmp_path, "theorem2", manifest)[0] == 0


def test_inverse_cache_refused_before_building(tmp_path, capsys):
    manifest = {"n": 3, "symbol": {"terms": [{"gamma": [1, 0, 0], "coeff": 1}]},
                "grid": [["1/3", "1/3", "1/3"]], "k_max": 10 ** 12, "spacing": "all"}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "inverse", manifest)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert not (out / "reconstruction.csv").exists()
    assert "bytes, over the 2147483648-byte limit" in capsys.readouterr().err


def test_inverse_geometric_rays_read_at_high_levels(tmp_path):
    # 16 ray levels up to 99,999: cheap to read, though the top full fiber has 5e9 points
    manifest = {"n": 3, "symbol": {"terms": [{"gamma": [1, 0, 0], "coeff": 1}]},
                "grid": [["1/3", "1/3", "1/3"]], "k_max": 10 ** 5, "spacing": "geometric"}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "inverse", manifest)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["resolved_points"] == 1
    assert summary["runs"][0]["max_abs_err"] < 1e-9


def test_distinguish_work_refused_before_the_first_level(tmp_path, capsys):
    # a_1 and a_2 tie as multisets at every level, so nothing would end the walk early
    manifest = {"subtorus": {"example": "diagonal_circle_2"}, "symbol_a": A1_INV, "symbol_b": A2_INV,
                "k_max": 10 ** 9}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, "distinguish", manifest)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert not out.exists()
    assert "-point limit" in capsys.readouterr().err


def test_theorem1_poly_degree_past_cap_refused_before_work(tmp_path, monkeypatch, capsys):
    # the trace-power path caps f's degree; the manifest check refuses it before any block
    def no_block(*args, **kwargs):
        raise AssertionError("a block was assembled")

    monkeypatch.setattr(toeplab.cli, "assemble_block", no_block)
    f = {"coeffs": [0] * (toeplab.spectral.MAX_TRACE_DEGREE + 1) + [1]}
    manifest = {"n": 2, "symbol": A1_POLY, "f": f, "k_list": [10, 20, 30, 40], "measure": "poly"}
    code, out = run_cli(tmp_path, "theorem1", manifest)
    assert code == 2
    assert not out.exists()
    assert "trace-power cap 16" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_negative_seed_exits_2_before_writing(tmp_path, source):
    manifest = {
        "subtorus": {"example": "full_torus_12"},
        "symbol": {"terms": [{"gamma": [1, 0], "coeff": 1}]},
        "f": F_X,
        "k_list": [4, 6, 8],
        "seed": -1 if source == "manifest" else 3,
    }
    code, out = run_cli(tmp_path, "theorem2", manifest, extra=("--seed", "-1") if source == "flag" else ())
    assert code == 2
    assert not (out / "fiber_measures.csv").exists()


THEOREM2 = {"subtorus": {"example": "full_torus_12"}, "symbol": {"terms": [{"gamma": [1, 0], "coeff": 1}]},
            "f": F_X, "k_list": [4, 6, 8]}
INVERSE = {"n": 2, "symbol": A1_INV, "grid": [["1/2", "1/2"]], "k_max": 8}
MODEL = {"states": [{"m": [1], "k_dim": 1}]}


@pytest.mark.parametrize("experiment,manifest,path,low", [
    ("theorem1", THEOREM1, ("n",), 1),
    ("theorem1", THEOREM1, ("fit_order",), 0),
    ("theorem2", THEOREM2, ("fit_order",), 0),
    ("theorem2", THEOREM2, ("samples",), 10_000),
    ("theorem2", THEOREM2, ("seed",), 0),
    ("inverse", INVERSE, ("n",), 2),
    ("inverse", INVERSE, ("k_max",), 1),
    ("inverse", INVERSE, ("order",), 0),
    ("model", MODEL, ("states", 0, "k_dim"), 0),
    ("model", {**MODEL, "quad": {}}, ("quad", "hermite_points"), 2),
    ("model", {**MODEL, "quad": {}}, ("quad", "fourier_points"), 2),
    ("distinguish", DISTINGUISH, ("k_max",), 1),
], ids=["theorem1_n", "theorem1_fit_order", "theorem2_fit_order", "theorem2_samples", "seed", "inverse_n",
        "inverse_k_max", "inverse_order", "model_k_dim", "model_hermite_points", "model_fourier_points", "distinguish_k_max"])
def test_integer_fields_refuse_floats_bools_and_out_of_range(tmp_path, capsys, experiment, manifest, path, low):
    for value in (2.5, 2.0, True, float(low), low - 1):
        bad = json.loads(json.dumps(manifest))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, out = run_cli(tmp_path, experiment, bad)
        assert code == 2 and not out.exists(), value
        err = capsys.readouterr().err
        assert f"{path[-1]} must be an integer " in err and f"got {value!r}" in err, err


# Manifests the CLI refused itself before the library checked the same values;
# each is still refused, now by the library function that reads the value.
@pytest.mark.parametrize("experiment,manifest", [
    ("theorem1", {**THEOREM1, "f": {"coeffs": [0, "x"]}}),
    ("theorem1", {**THEOREM1, "f": {"coeffs": [0, True]}}),
    ("theorem1", {**THEOREM1, "f": {"coeffs": [0, 10**400]}}),
    ("distinguish", {**DISTINGUISH, "tol": "@"}),
    ("distinguish", {**DISTINGUISH, "tol": -1}),
    ("theorem1", {**THEOREM1, "n": 3}),
    ("inverse", {**INVERSE, "spacing": "foo"}),
    ("inverse", {**INVERSE, "order": 1.5}),
    ("inverse", {**INVERSE, "symbol": {"terms": [{"gamma": [1.5, 0], "coeff": 1}]}}),
    ("inverse", {**INVERSE, "symbol": {"terms": [{"gamma": 1, "coeff": 1}]}}),
    ("theorem1", {**THEOREM1, "symbol": {"terms": [{**A1_POLY["terms"][0], "gamma": [1.5, 0]}]}}),
    ("inverse", {**INVERSE, "symbol": {"terms": [{"gamma": [1, 0, 0], "coeff": 1}]}}),
], ids=["coeff_string", "coeff_bool", "coeff_int_overflow", "tol_string", "tol_negative", "symbol_on_two_of_three",
        "spacing_unknown", "order_float", "invariant_exponent_float", "invariant_exponent_scalar",
        "poly_exponent_float", "invariant_exponent_length"])
def test_values_the_library_refuses_exit_2_before_writing(tmp_path, experiment, manifest):
    code, out = run_cli(tmp_path, experiment, manifest)
    assert code == 2 and not out.exists()


# Manifests the CLI refuses before any work, one row per refusal it makes itself
# or made itself before the library's checks took the value over; the ids name them.
@pytest.mark.parametrize("experiment,manifest", [
    ("theorem1", {**THEOREM1, "f": 5}),
    ("theorem1", {**THEOREM1, "k_list": []}),
    ("inverse", {**INVERSE, "symbol": {"terms": [{"gamma": [1, 0], "coeff": True}]}}),
    ("inverse", {**INVERSE, "symbol": {"terms": [{"gamma": [1, 0], "coeff": "1/x"}]}}),
    ("distinguish", {**DISTINGUISH, "symbol_a": {"terms": []}}),
    ("theorem1", {**THEOREM1, "f": {"coeffs": []}}),
    ("theorem1", {**THEOREM1, "f": {"coeffs": [0, 1], "label": 5}}),
    ("distinguish", {**DISTINGUISH, "subtorus": {"example": "no_such_subtorus"}}),
    ("theorem1", {**THEOREM1, "measure": "dense"}),
    ("inverse", {**INVERSE, "grid": []}),
    ("inverse", {**INVERSE, "grid": [["1/2", "1/4", "1/4"]]}),
    ("model", {"states": []}),
    ("model", {"states": [{"m": 1, "k_dim": 1}]}),
], ids=["record_not_object", "k_list_empty", "coeff_bool", "coeff_unparsed", "terms_empty", "f_coeffs_empty",
        "f_label_not_string", "example_unknown", "measure_unknown", "grid_empty", "grid_row_length", "states_empty",
        "state_m_scalar"])
def test_manifests_refused_before_any_work_exit_2(tmp_path, capsys, experiment, manifest):
    code, out = run_cli(tmp_path, experiment, manifest)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("invalid input (")


@pytest.mark.parametrize("coeffs,message", [
    ("01", "f.coeffs must be a list or tuple, got '01'"),
    ({"0": 1}, "f.coeffs must be a list or tuple, got {'0': 1}"),
    ([], "polynomial needs at least one coefficient"),
], ids=["string", "object", "empty"])
def test_test_function_coefficients_are_checked_by_the_library(tmp_path, capsys, coeffs, message):
    # a string of digits was refused by the CLI's own list test; now multiindex._check_list names it
    code, out = run_cli(tmp_path, "theorem1", {**THEOREM1, "f": {"coeffs": coeffs}})
    assert code == 2 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("states,quad,code", [
    ([{"m": [1], "k_dim": 1}], {"hermite_points": 100000}, 2),
    # 24^10 points; counted, never built
    ([{"m": [1] * 10, "k_dim": 0}], {}, 2),
    # no transverse axis, so no Hermite rule is built
    ([{"m": [1], "k_dim": 0}], {"hermite_points": 100000}, 0),
], ids=["hermite_100000", "ten_angles", "hermite_unused"])
def test_model_grid_counted_before_built(tmp_path, states, quad, code):
    assert run_cli(tmp_path, "model", {"states": states, "quad": quad})[0] == code


def test_seed_flag_overrides_manifest(tmp_path):
    manifest = {
        "subtorus": {"example": "full_torus_12"},
        "symbol": {"terms": [{"gamma": [1, 0], "coeff": 1}]},
        "f": F_X,
        "k_list": [4, 6, 8],
        "seed": 3,
    }
    code, out = run_cli(tmp_path, "theorem2", manifest, extra=("--seed", "11"))
    assert code == 0
    run = json.loads((out / "run.json").read_text())
    assert run["seed"] == 11
    assert run["experiment"] == "theorem2"
    assert set(run["outputs"]) == {"fiber_measures.csv", "fit.json"}
    assert run["manifest"]["seed"] == 3


def test_rerun_is_byte_identical(tmp_path):
    manifest = {
        "subtorus": {"example": "diagonal_circle_2"},
        "symbol": A1_INV,
        "f": F_X,
        "k_list": [10, 15, 20],
        "samples": 20000,
    }
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, out1 = run_cli(tmp_path / "a", "theorem2", manifest)
    _, out2 = run_cli(tmp_path / "b", "theorem2", manifest)
    for name in ("fiber_measures.csv", "fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_module_entry_point(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"states": [{"m": [1], "k_dim": 0}]}))
    # the child imports toeplab from where this process found it
    src = str(Path(toeplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "toeplab.cli", "--experiment", "model",
         "--manifest", str(mpath), "--out", str(tmp_path / "o")],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "isometry.json").exists()
