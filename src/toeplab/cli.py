"""Command line driver for the standard experiments.

Each run takes a JSON manifest, an output directory and an experiment
name, writes CSV/JSON results plus a run.json sidecar echoing the
manifest, and is deterministic for a fixed seed and thread count.  Exit
status 2 flags bad flags or manifests, 3 a numerical failure naming the
operation that broke.  BLAS threads are set only through the environment
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) before the interpreter starts;
importing the package already loads numpy and its BLAS.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import cache
from math import floor, isfinite, lcm, prod
from pathlib import Path

from ._exact import pivot_columns
from .canonical_model import ModelIndex, QuadratureSpec, check_isometry
from .errors import ToeplabError, ValidationError
from .hardy_sphere import InvariantSymbol, SymbolPoly, assemble_block
from .inverse import loglog_slope, reconstruct, spectral_distinguishability
from .multiindex import MAX_SECTOR_BYTES, SubtorusData, _is_int, diagonal_circle, fiber_polytope_vertices
from .spectral import TestFunction, fit_expansion, measure_eigen, measure_poly, scaled_measure
from .toric import EXAMPLE_SUBTORI, equivariant_spectrum, fiber_measure_series, regular_free_check, theorem2_leading

_EXPERIMENTS = ("theorem1", "theorem2", "inverse", "model", "distinguish")

# Bytes one ray level holds in an inverse run: level, weight, eigenvalues, spectrum
# and output text (680-840 measured on 64-bit CPython 3.11, n = 2..5, one ray a level).
_RAY_LEVEL_BYTES = 1024

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


def _check_keys(manifest: dict, allowed: set[str]) -> None:
    unknown = set(manifest) - allowed
    if unknown:
        raise _validation_error(f"unknown manifest fields {sorted(unknown)}")


def _int_field(manifest: dict, name: str, minimum: int, default=None) -> int:
    if name not in manifest:
        if default is None:
            raise _validation_error(f"missing required field '{name}'")
        return default
    v = manifest[name]
    if not _is_int(v) or v < minimum:
        raise _validation_error(f"field '{name}' must be an integer >= {minimum}")
    return v


def _positive_ints(manifest: dict, name: str, at_least: int) -> list[int]:
    v = manifest.get(name)
    if not isinstance(v, list) or len(v) < at_least or not all(_is_int(k) and k >= 1 for k in v):
        raise _validation_error(f"field '{name}' must list at least {at_least} positive integers")
    return v


def _coefficient(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise _validation_error(f"coefficient {v!r} must be a number or a fraction string")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise _validation_error(f"cannot parse coefficient {v!r}") from None


def _invariant_symbol(obj, n: int):
    if not isinstance(obj, dict) or set(obj) != {"terms"} or not isinstance(obj["terms"], list) or not obj["terms"]:
        raise _validation_error("invariant symbol must be {'terms': [...]} with at least one term")
    pairs = []
    for term in obj["terms"]:
        if not isinstance(term, dict) or set(term) != {"gamma", "coeff"}:
            raise _validation_error("each symbol term needs exactly the fields 'gamma' and 'coeff'")
        g = term["gamma"]
        if not isinstance(g, list) or len(g) != n or not all(_is_int(e) and e >= 0 for e in g):
            raise _validation_error(f"term exponents {g!r} must be {n} nonnegative integers")
        pairs.append((tuple(g), _coefficient(term["coeff"])))
    return InvariantSymbol.from_poly(pairs, n)


def _test_function(obj):
    if not isinstance(obj, dict) or not set(obj) <= {"coeffs", "label"} or "coeffs" not in obj:
        raise _validation_error("field 'f' must be {'coeffs': [...]} with an optional 'label'")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) and abs(c) <= sys.float_info.max for c in coeffs):
        raise _validation_error("'f.coeffs' must be a nonempty list of numbers in the float range")
    label = obj.get("label", "poly")
    if not isinstance(label, str):
        raise _validation_error("'f.label' must be a string")
    return TestFunction.polynomial([float(c) for c in coeffs], label=label)


def _subtorus(obj):
    if isinstance(obj, dict) and set(obj) == {"example"}:
        name = obj["example"]
        if name not in EXAMPLE_SUBTORI:
            raise _validation_error(f"unknown example subtorus {name!r}; have {sorted(EXAMPLE_SUBTORI)}")
        return EXAMPLE_SUBTORI[name]
    if isinstance(obj, dict):
        return SubtorusData.from_json(obj)
    raise _validation_error("field 'subtorus' must be an object")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _run_theorem1(manifest: dict, out: Path, seed: int) -> list[str]:
    _check_keys(manifest, {"experiment", "seed", "n", "symbol", "f", "k_list", "fit_order", "measure"})
    n = _int_field(manifest, "n", minimum=1)
    if "symbol" not in manifest:
        raise _validation_error("missing required field 'symbol'")
    symbol = SymbolPoly.from_json(manifest["symbol"])
    if symbol.n != n:
        raise _validation_error("symbol index length disagrees with n")
    f = _test_function(manifest.get("f", {}))
    ks = _positive_ints(manifest, "k_list", 1)
    order = _int_field(manifest, "fit_order", minimum=0, default=2)
    method = manifest.get("measure", "eigen")
    if method not in ("eigen", "poly"):
        raise _validation_error("field 'measure' must be 'eigen' or 'poly'")
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
        sectors.append({"k": k, "count": len(block.sectors),
                        "largest": max(len(pos) for pos, _ in block.sectors)})
    _write_csv(out / "measures.csv", ["n", "k", "m", "f_id", "mu", "scaled_mu"], rows)
    fit = fit_expansion(samples, order=order)
    _write_json(out / "fit.json", {**fit.to_json(), "sectors": sectors})
    return ["measures.csv", "fit.json"]


def _run_theorem2(manifest: dict, out: Path, seed: int) -> list[str]:
    _check_keys(manifest, {"experiment", "seed", "subtorus", "symbol", "f", "k_list", "fit_order", "samples"})
    if "subtorus" not in manifest:
        raise _validation_error("missing required field 'subtorus'")
    sub = _subtorus(manifest["subtorus"])
    if "symbol" not in manifest:
        raise _validation_error("missing required field 'symbol'")
    symbol = _invariant_symbol(manifest["symbol"], sub.n)
    f = _test_function(manifest.get("f", {}))
    ks = _positive_ints(manifest, "k_list", 1)
    m = sub.n - sub.d
    order = _int_field(manifest, "fit_order", minimum=0, default=m)
    samples = _int_field(manifest, "samples", minimum=10_000, default=200_000)
    rows = fiber_measure_series(symbol, f, sub, ks)
    _write_csv(out / "fiber_measures.csv", ["k", "count", "mu", "scaled_mu"],
               [[k, count, repr(mu), repr(sm)] for k, count, mu, sm in rows])
    fit = fit_expansion([(k, sm) for k, _, _, sm in rows], order=order)
    report = regular_free_check(sub)
    est, se = theorem2_leading(symbol, f, sub, samples=samples, seed=seed)
    _write_json(out / "fit.json", {
        "fit": fit.to_json(),
        "leading_estimate": est,
        "leading_stderr": se,
        "regular_free": report.to_json(),
    })
    return ["fiber_measures.csv", "fit.json"]


def _grid_points(manifest: dict, n: int) -> list[tuple[Fraction, ...]]:
    v = manifest.get("grid")
    if not isinstance(v, list) or not v:
        raise _validation_error("field 'grid' must be a nonempty list of points")
    pts = []
    for row in v:
        if not isinstance(row, list) or len(row) != n:
            raise _validation_error(f"grid point {row!r} must have {n} entries")
        pts.append(tuple(_coefficient(c) for c in row))
    return pts


def _check_ray_reads(grid, k_maxes: list[int], spacing: str) -> None:
    """Refuse an inverse run whose ray reads would pass MAX_SECTOR_BYTES:
    each ray holds one level, weight and eigenvalue per level, and a ray of
    denominator q has k_max // q levels, or its bit length when geometric."""
    levels = 0
    for q in (lcm(*(c.denominator for c in p)) for p in grid):
        levels += sum(k_max // q if spacing == "all" else (k_max // q).bit_length() for k_max in k_maxes)
    if levels * _RAY_LEVEL_BYTES > MAX_SECTOR_BYTES:
        raise _validation_error(f"reading {levels} ray levels needs {levels * _RAY_LEVEL_BYTES} "
                                f"bytes, over the {MAX_SECTOR_BYTES}-byte limit")


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


def _run_inverse(manifest: dict, out: Path, seed: int) -> list[str]:
    _check_keys(manifest, {"experiment", "seed", "n", "symbol", "grid", "k_max", "k_max_list", "order", "spacing"})
    n = _int_field(manifest, "n", minimum=2)
    symbol = _invariant_symbol(manifest.get("symbol"), n)
    grid = _grid_points(manifest, n)
    if ("k_max" in manifest) == ("k_max_list" in manifest):
        raise _validation_error("provide exactly one of 'k_max' and 'k_max_list'")
    if "k_max" in manifest:
        k_maxes = [_int_field(manifest, "k_max", minimum=1)]
    else:
        k_maxes = _positive_ints(manifest, "k_max_list", 2)
    order = _int_field(manifest, "order", minimum=0, default=1)
    spacing = manifest.get("spacing", "geometric")
    if spacing not in ("geometric", "all"):
        raise _validation_error("field 'spacing' must be 'geometric' or 'all'")
    _check_ray_reads(grid, k_maxes, spacing)

    sub = diagonal_circle(n)
    oracle = cache(lambda k: equivariant_spectrum(symbol, sub, k))  # shared by every k_max run
    runs = []
    rows = []
    for k_max in k_maxes:
        rec = reconstruct(oracle, n, grid, k_max, order=order, spacing=spacing)
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
    _write_csv(out / "reconstruction.csv", ["k_max", "point", "levels", "estimate", "truth", "abs_err",
                                            "error_estimate", "low_confidence", "missing"], rows)
    summary = {"order": order, "spacing": spacing, "runs": runs, "slope": None}
    errs = [r["max_abs_err"] for r in runs]
    if len(runs) >= 2 and all(e is not None and e > 0 for e in errs):
        summary["slope"] = loglog_slope([r["k_max"] for r in runs], errs)
    _write_json(out / "summary.json", summary)
    return ["reconstruction.csv", "summary.json"]


def _run_model(manifest: dict, out: Path, seed: int) -> list[str]:
    _check_keys(manifest, {"experiment", "seed", "states", "quad"})
    states_obj = manifest.get("states")
    if not isinstance(states_obj, list) or not states_obj:
        raise _validation_error("field 'states' must be a nonempty list")
    states = []
    for s in states_obj:
        if not isinstance(s, dict) or set(s) != {"m", "k_dim"}:
            raise _validation_error("each state needs exactly the fields 'm' and 'k_dim'")
        m = s["m"]
        if not isinstance(m, list) or not all(_is_int(c) for c in m):
            raise _validation_error(f"state frequency {m!r} must be a list of integers")
        states.append(ModelIndex(m=tuple(m), k_dim=_int_field(s, "k_dim", minimum=0)))
    quad_obj = manifest.get("quad", {})
    if not isinstance(quad_obj, dict) or not set(quad_obj) <= {"hermite_points", "fourier_points"}:
        raise _validation_error("field 'quad' may set only 'hermite_points' and 'fourier_points'")
    quad = QuadratureSpec(
        hermite_points=_int_field(quad_obj, "hermite_points", minimum=2, default=64),
        fourier_points=_int_field(quad_obj, "fourier_points", minimum=2, default=24),
    )
    report = check_isometry(states, quad)
    _write_json(out / "isometry.json", report.to_json())
    return ["isometry.json"]


def _run_distinguish(manifest: dict, out: Path, seed: int) -> list[str]:
    _check_keys(manifest, {"experiment", "seed", "subtorus", "symbol_a", "symbol_b", "k_max", "tol"})
    if "subtorus" not in manifest:
        raise _validation_error("missing required field 'subtorus'")
    sub = _subtorus(manifest["subtorus"])
    sym_a = _invariant_symbol(manifest.get("symbol_a"), sub.n)
    sym_b = _invariant_symbol(manifest.get("symbol_b"), sub.n)
    k_max = _int_field(manifest, "k_max", minimum=1)
    tol = manifest.get("tol", 1e-12)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol <= sys.float_info.max:
        raise _validation_error("field 'tol' must be a nonnegative number in the float range")
    _check_distinguish_work(sub, k_max)
    report = spectral_distinguishability(
        lambda k: equivariant_spectrum(sym_a, sub, k),
        lambda k: equivariant_spectrum(sym_b, sub, k),
        k_max,
        tol=float(tol),
    )
    _write_json(out / "distinguish.json", report.to_json())
    return ["distinguish.json"]


_RUNNERS = {
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "inverse": _run_inverse,
    "model": _run_model,
    "distinguish": _run_distinguish,
}


def _load_manifest(path: str, experiment: str) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or text, an int past 4,300 digits
        raise _validation_error(f"cannot read manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise _validation_error("manifest must be a JSON object")
    declared = manifest.get("experiment")
    if declared is not None and declared != experiment:
        raise _validation_error(f"manifest declares experiment {declared!r}, flag says {experiment!r}")
    return manifest


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

    try:
        manifest = _load_manifest(args.manifest, args.experiment)
        seed = manifest.get("seed", 0) if args.seed is None else args.seed
        if not _is_int(seed) or seed < 0:
            raise _validation_error(f"seed {seed!r} must be a nonnegative integer")
        out = Path(args.out)
        outputs = _RUNNERS[args.experiment](manifest, out, seed)
    except ValidationError as exc:
        print(f"invalid input ({exc.operation}): {exc}", file=sys.stderr)
        return 2
    except ToeplabError as exc:
        print(f"numerical failure in {exc.operation}: {exc}", file=sys.stderr)
        return 3

    _write_json(out / "run.json", {
        "experiment": args.experiment,
        "seed": seed,
        "outputs": outputs,
        "manifest": manifest,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
