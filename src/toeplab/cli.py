"""Command line driver for the standard experiments.

A run takes a JSON manifest, an output directory and an experiment name.
_EXPERIMENTS holds each experiment's runner, required fields and defaults;
_record checks every manifest record, top level and nested.  The runner
returns its outputs by file name, and only then does _write put them and a
run.json sidecar echoing the manifest under the directory.  Runs are
deterministic for a fixed seed and thread count.  Exit status 2 flags bad
flags or manifests, 3 a numerical failure naming the operation that broke;
either way nothing is written.  BLAS threads are set only through the
environment (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) before the interpreter
starts; importing the package already loads numpy and its BLAS.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from math import floor, isfinite, prod
from pathlib import Path

from ._exact import pivot_columns
from .canonical_model import ModelIndex, QuadratureSpec, check_isometry
from .errors import ToeplabError, ValidationError
from .hardy_sphere import InvariantSymbol, SymbolPoly, assemble_block
from .inverse import _as_point, _check_ray_reads, loglog_slope, reconstruct, spectral_distinguishability
from .multiindex import SubtorusData, _check_int, _check_ints, diagonal_circle, fiber_polytope_vertices
from .reduction import MAX_SAMPLES, MIN_SAMPLES
from .spectral import MAX_TRACE_DEGREE, TestFunction, fit_expansion, measure_eigen, measure_poly, scaled_measure
from .toric import EXAMPLE_SUBTORI, equivariant_spectrum, fiber_measure_series, regular_free_check, theorem2_leading

# Most fiber points a distinguish run may visit, and what one level costs
# beyond its points: about 5 us a point and 500 us a level on CPython 3.11.
_MAX_DISTINGUISH_POINTS = 10**7
_LEVEL_POINTS = 100


def _validation_error(message: str) -> ValidationError:
    return ValidationError(message, operation="cli.manifest")


def _finite(literal: str) -> float:
    """json's hook for float literals and NaN/Infinity; a literal past the
    float range, such as 1e400, reads as inf and is refused with them."""
    v = float(literal)
    if not isfinite(v):
        raise _validation_error(f"manifest number {literal} is not finite")
    return v


def _record(obj, where: str, required, optional=None) -> dict:
    """The fields of a manifest record, with absent optional ones set to their
    defaults; a non-object, an unknown field or a missing one is refused."""
    optional = optional or {}
    if not isinstance(obj, dict):
        raise _validation_error(f"{where} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    missing = [name for name in required if name not in obj]
    if unknown or missing:
        raise _validation_error(f"{where} has unknown fields {unknown} and lacks fields {missing}")
    return {**optional, **obj}


def _positive_ints(v, name: str, at_least: int) -> tuple[int, ...]:
    ks = _check_ints(v, name, 1, "cli.manifest")
    if len(ks) < at_least:
        raise _validation_error(f"field '{name}' must list at least {at_least} positive integers")
    return ks


def _invariant_symbol(obj, n: int, name: str) -> InvariantSymbol:
    terms = _record(obj, f"field '{name}'", ("terms",))["terms"]
    if not isinstance(terms, list) or not terms:
        raise _validation_error(f"'{name}.terms' must be a nonempty list")
    records = [_record(term, f"a term of '{name}'", ("gamma", "coeff")) for term in terms]
    return InvariantSymbol.from_poly([(t["gamma"], t["coeff"]) for t in records], n)  # which checks each gamma and coeff


def _test_function(obj) -> TestFunction:
    f = _record(obj, "field 'f'", ("coeffs",), {"label": "poly"})
    if not isinstance(f["coeffs"], list) or not f["coeffs"]:
        raise _validation_error("'f.coeffs' must be a nonempty list")
    if not isinstance(f["label"], str):
        raise _validation_error("'f.label' must be a string")
    return TestFunction.polynomial(f["coeffs"], label=f["label"])


def _subtorus(obj) -> SubtorusData:
    if isinstance(obj, dict) and "example" in obj:
        name = _record(obj, "field 'subtorus'", ("example",))["example"]
        if not isinstance(name, str) or name not in EXAMPLE_SUBTORI:
            raise _validation_error(f"unknown example subtorus {name!r}; have {sorted(EXAMPLE_SUBTORI)}")
        return EXAMPLE_SUBTORI[name]
    s = _record(obj, "field 'subtorus'", ("n", "d", "Bt", "alpha"))
    return SubtorusData(n=s["n"], d=s["d"], weight_matrix=s["Bt"], alpha=s["alpha"])


def _run_theorem1(fields: dict, seed: int) -> dict:
    n = _check_int(fields["n"], "n", 1, "cli.manifest")
    symbol = SymbolPoly.from_json(fields["symbol"])  # assemble_block refuses a symbol on other than n coordinates
    f = _test_function(fields["f"])
    ks = _positive_ints(fields["k_list"], "k_list", 1)
    order = _check_int(fields["fit_order"], "fit_order", 0, "cli.manifest")
    method = fields["measure"]
    if method not in ("eigen", "poly"):
        raise _validation_error("field 'measure' must be 'eigen' or 'poly'")
    if method == "poly" and f.degree > MAX_TRACE_DEGREE:
        raise _validation_error(f"'f' of degree {f.degree} is past the trace-power cap {MAX_TRACE_DEGREE} of 'poly'")
    m = n - 1
    rows = []
    samples = []
    sectors = []
    for k in ks:
        block = assemble_block(symbol, n, k)
        mu = measure_eigen(block, f) if method == "eigen" else measure_poly(block, f)
        sm = scaled_measure(mu, m, k)
        rows.append([n, k, m, f.label, repr(mu), repr(sm)])
        samples.append((k, sm))
        sectors.append({"k": k, "count": sum(len(pos) for pos, _ in block.sectors),
                        "largest": max(pos.shape[1] for pos, _ in block.sectors)})
    fit = fit_expansion(samples, order=order)
    return {"measures.csv": (["n", "k", "m", "f_id", "mu", "scaled_mu"], rows),
            "fit.json": {**fit.to_json(), "sectors": sectors}}


def _run_theorem2(fields: dict, seed: int) -> dict:
    sub = _subtorus(fields["subtorus"])
    symbol = _invariant_symbol(fields["symbol"], sub.n, "symbol")
    f = _test_function(fields["f"])
    ks = _positive_ints(fields["k_list"], "k_list", 1)
    order = sub.n - sub.d if fields["fit_order"] is None else _check_int(fields["fit_order"], "fit_order", 0, "cli.manifest")
    _check_int(fields["samples"], "samples", MIN_SAMPLES, "cli.manifest", high=MAX_SAMPLES)
    rows = fiber_measure_series(symbol, f, sub, ks)
    fit = fit_expansion([(k, sm) for k, _, _, sm in rows], order=order)
    report = regular_free_check(sub)
    est, se = theorem2_leading(symbol, f, sub, samples=fields["samples"], seed=seed)
    return {
        "fiber_measures.csv": (["k", "count", "mu", "scaled_mu"],
                               [[k, count, repr(mu), repr(sm)] for k, count, mu, sm in rows]),
        "fit.json": {"fit": fit.to_json(), "leading_estimate": est, "leading_stderr": se,
                     "regular_free": report.to_json()},
    }


def _grid_points(v, n: int) -> list[tuple[Fraction, ...]]:
    if not isinstance(v, list) or not v:
        raise _validation_error("field 'grid' must be a nonempty list of points")
    return [_as_point(row, n) for row in v]


def _check_distinguish_work(sub: SubtorusData, k_max: int) -> None:
    """Refuse a distinguish run whose levels up to k_max may cost more than
    _MAX_DISTINGUISH_POINTS, stopping at the first level past it.  Coordinate
    i of a level-k point lies in [0, k max_v v_i] over the level-1 vertices
    v, and the coordinates off the pivot columns of Bt fix the others."""
    vertices = fiber_polytope_vertices(sub)
    pivots = pivot_columns(sub.weight_matrix)
    tops = [max((v[i] for v in vertices), default=0) for i in range(sub.n) if i not in pivots]
    total = 0
    for k in range(1, k_max + 1):
        total += _LEVEL_POINTS + prod(floor(k * t) + 1 for t in tops)
        if total > _MAX_DISTINGUISH_POINTS:
            raise _validation_error(f"comparing levels 1 to {k} of {k_max} may cost {total} fiber points, "
                                    f"over the {_MAX_DISTINGUISH_POINTS}-point limit")


def _run_inverse(fields: dict, seed: int) -> dict:
    n = _check_int(fields["n"], "n", 2, "cli.manifest")
    symbol = _invariant_symbol(fields["symbol"], n, "symbol")
    grid = _grid_points(fields["grid"], n)
    if (fields["k_max"] is None) == (fields["k_max_list"] is None):
        raise _validation_error("provide exactly one of 'k_max' and 'k_max_list'")
    if fields["k_max_list"] is None:
        k_maxes = [_check_int(fields["k_max"], "k_max", 1, "cli.manifest")]
    else:
        k_maxes = _positive_ints(fields["k_max_list"], "k_max_list", 2)
        if len(set(k_maxes)) < len(k_maxes):
            raise _validation_error("field 'k_max_list' repeats a value")
    order, spacing = fields["order"], fields["spacing"]  # reconstruct refuses either before any read
    # the levels column keeps every level of every run, so all runs are charged as one sum
    _check_ray_reads(grid, k_maxes, spacing, "cli.manifest")

    sub = diagonal_circle(n)
    runs = []
    rows = []
    for k_max in k_maxes:
        rec = reconstruct(lambda k: equivariant_spectrum(symbol, sub, k), n, grid, k_max, order=order, spacing=spacing)
        errs = []
        for ray in rec.rays:
            truth = symbol.evaluate([float(c) for c in ray.point])
            abs_err = None if ray.missing else abs(ray.estimate - truth)
            if abs_err is not None:
                errs.append(abs_err)
            rows.append([
                k_max,
                " ".join(str(c) for c in ray.point),
                " ".join(map(str, ray.ks)),
                "" if ray.estimate is None else repr(ray.estimate),
                repr(truth),
                "" if abs_err is None else repr(abs_err),
                "" if ray.error is None else repr(ray.error),
                int(ray.low_confidence),
                int(ray.missing),
            ])
        runs.append({
            "k_max": k_max,
            "max_abs_err": max(errs) if errs else None,
            "resolved_points": len(errs),
            "missing_points": len(rec.rays) - len(errs),
        })
    summary = {"order": order, "spacing": spacing, "runs": runs, "slope": None}
    errs = [r["max_abs_err"] for r in runs]
    if len(runs) >= 2 and all(e is not None and e > 0 for e in errs):
        summary["slope"] = loglog_slope([r["k_max"] for r in runs], errs)
    return {"reconstruction.csv": (["k_max", "point", "levels", "estimate", "truth", "abs_err",
                                    "error_estimate", "low_confidence", "missing"], rows),
            "summary.json": summary}


def _run_model(fields: dict, seed: int) -> dict:
    if not isinstance(fields["states"], list) or not fields["states"]:
        raise _validation_error("field 'states' must be a nonempty list")
    states = []
    for obj in fields["states"]:
        s = _record(obj, "a state", ("m", "k_dim"))
        states.append(ModelIndex(m=s["m"], k_dim=s["k_dim"]))
    quad = _record(fields["quad"], "field 'quad'", (), _EXPERIMENTS["model"][2]["quad"])
    report = check_isometry(states, QuadratureSpec(hermite_points=quad["hermite_points"], fourier_points=quad["fourier_points"]))
    return {"isometry.json": report.to_json()}


def _run_distinguish(fields: dict, seed: int) -> dict:
    sub = _subtorus(fields["subtorus"])
    sym_a = _invariant_symbol(fields["symbol_a"], sub.n, "symbol_a")
    sym_b = _invariant_symbol(fields["symbol_b"], sub.n, "symbol_b")
    k_max = _check_int(fields["k_max"], "k_max", 1, "cli.manifest")
    _check_distinguish_work(sub, k_max)
    report = spectral_distinguishability(
        lambda k: equivariant_spectrum(sym_a, sub, k),
        lambda k: equivariant_spectrum(sym_b, sub, k),
        k_max,
        tol=fields["tol"],
    )
    return {"distinguish.json": report.to_json()}


# Each experiment's runner, required fields and optional fields with their
# defaults; every manifest may also give 'experiment' and 'seed' (default 0).
# theorem2's fit_order None stands for n - d.
_EXPERIMENTS = {
    "theorem1": (_run_theorem1, ("n", "symbol", "f", "k_list"), {"fit_order": 2, "measure": "eigen"}),
    "theorem2": (_run_theorem2, ("subtorus", "symbol", "f", "k_list"), {"fit_order": None, "samples": 200_000}),
    "inverse": (_run_inverse, ("n", "symbol", "grid"),
                {"k_max": None, "k_max_list": None, "order": 1, "spacing": "geometric"}),
    "model": (_run_model, ("states",), {"quad": {"hermite_points": 64, "fourier_points": 24}}),
    "distinguish": (_run_distinguish, ("subtorus", "symbol_a", "symbol_b", "k_max"), {"tol": 1e-12}),
}


def _write(out: Path, outputs: dict) -> None:
    """Write each output under out: a (header, rows) pair as CSV, an object as JSON."""
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in outputs.items():
        with open(out / name, "w", newline="") as fh:
            if isinstance(payload, tuple):
                w = csv.writer(fh)
                w.writerow(payload[0])
                w.writerows(payload[1])
            else:
                fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_manifest(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or text, an int past 4,300 digits
        raise _validation_error(f"cannot read manifest: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toeplab",
        description="Run spectral-measure experiments from a JSON manifest.",
    )
    parser.add_argument("--experiment", required=True, choices=_EXPERIMENTS)
    parser.add_argument("--manifest", required=True, help="path to the JSON manifest")
    parser.add_argument("--out", required=True, help="output directory, created if absent")
    parser.add_argument("--seed", type=int, default=None, help="overrides the manifest seed")
    args = parser.parse_args(argv)

    runner, required, optional = _EXPERIMENTS[args.experiment]
    try:
        manifest = _load_manifest(args.manifest)
        fields = _record(manifest, "the manifest", required, {"experiment": args.experiment, "seed": 0, **optional})
        if fields["experiment"] != args.experiment:
            raise _validation_error(f"manifest declares experiment {fields['experiment']!r}, flag says {args.experiment!r}")
        seed = _check_int(fields["seed"] if args.seed is None else args.seed, "seed", 0, "cli.manifest")
        outputs = runner(fields, seed)
    except ValidationError as exc:
        print(f"invalid input ({exc.operation}): {exc}", file=sys.stderr)
        return 2
    except ToeplabError as exc:
        print(f"numerical failure in {exc.operation}: {exc}", file=sys.stderr)
        return 3

    run = {"experiment": args.experiment, "seed": seed, "outputs": list(outputs), "manifest": manifest}
    try:
        _write(Path(args.out), {**outputs, "run.json": run})
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
