"""Exact references for every workload operation, and the output checks.

References come from the public exact functions ``monomial_norm`` (the
Dirichlet moment E[a^mu] on the simplex, and the squared norm of z^mu on
the sphere) and ``sphere_sigma_volume``; nothing here calls the code path
under test.  Tolerances are stated next to each check.  ``check`` returns
the problems it found and the relative errors against the exact values;
the largest of those, over a workload, is its ``ref_rel_err``.  Monte
Carlo results are checked in units of their reported stderr instead and
are left out of ``ref_rel_err``, which is thereby deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import product
from math import comb, lcm
from pathlib import Path

from toeplab.hardy_sphere import monomial_norm
from toeplab.reduction import sphere_sigma_volume

MC_SIGMAS = 5.0        # Monte Carlo estimates must lie within this many stderr
FIT_REL_TOL = 1e-3     # fitted c0 against the exact limit
FLOAT_REL_TOL = 1e-12  # float outputs that are roundings of exact values
INVERSE_REL_TOL = 1e-2  # ray extrapolations against the exact symbol value
MODEL_TOL = 1e-8       # Gram defects, the program's own "ok" threshold

EXAMPLE_BLOCKS = {"product_of_lines": ((0, 1), (2, 3))}


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref else abs(x)


# ---- polynomial algebra with exact coefficients -------------------------

def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _compose(f_coeffs, g: dict, one_key) -> dict:
    """f(g) as an exponent dict, f given by ascending coefficients."""
    out: dict = {}
    power = {one_key: Fraction(1)}
    for j, fj in enumerate(f_coeffs):
        if j:
            power = _mul(power, g)
        for e, c in power.items():
            out[e] = out.get(e, 0) + Fraction(fj) * c
    return out


class _Complex:
    """Exact complex number over the rationals, enough for _mul."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __mul__(self, o):
        o = o if isinstance(o, _Complex) else _Complex(o)
        return _Complex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __add__(self, o):
        o = o if isinstance(o, _Complex) else _Complex(o)
        return _Complex(self.re + o.re, self.im + o.im)

    __radd__ = __add__


# ---- exact limits -------------------------------------------------------

def sphere_c0(symbol_json: dict, f_coeffs, n: int) -> float:
    """sigma_vol(n) * E[f(F)] over the unit sphere of C^n, F as given in the manifest.

    The float coefficients the program reads are converted exactly, and
    E[z^gamma conj(z)^delta] = [gamma = delta] * monomial_norm(gamma).
    """
    F = {}
    for t in symbol_json["terms"]:
        key = tuple(t["gamma"]) + tuple(t["delta"])
        F[key] = F.get(key, _Complex(0)) + _Complex(t["re"], t["im"])
    fF = _compose(f_coeffs, F, (0,) * (2 * n))
    mean = _Complex(0)
    for e, c in fF.items():
        if e[:n] == e[n:]:
            mean = mean + c * monomial_norm(e[:n], n)
    if mean.im != 0:
        raise ValueError("symbol is not Hermitian: E[f(F)] is not real")
    return sphere_sigma_volume(n) * float(mean.re)


def _invariant_terms(symbol_json: dict) -> dict:
    g: dict = {}
    for t in symbol_json["terms"]:
        key = tuple(t["gamma"])
        g[key] = g.get(key, 0) + Fraction(t["coeff"])
    return g


def _blocks(subtorus: dict) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Coordinate blocks of a subtorus whose rows are disjoint 0/1 indicators at level 1."""
    if "example" in subtorus:
        blocks = EXAMPLE_BLOCKS[subtorus["example"]]
        return sum(len(b) for b in blocks), blocks
    rows, n = subtorus["Bt"], subtorus["n"]
    blocks = tuple(tuple(i for i, w in enumerate(r) if w) for r in rows)
    cover = sorted(i for b in blocks for i in b)
    if cover != list(range(n)) or any(w not in (0, 1) for r in rows for w in r) \
            or any(a != 1 for a in subtorus["alpha"]):
        raise ValueError("references cover only disjoint 0/1 weight blocks at level 1")
    return n, blocks


def fiber_points(blocks, n: int, k: int):
    """Lattice points of the fiber: every block sums to k, in no particular order."""
    def compositions(size, total):
        if size == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(size - 1, total - first):
                yield (first,) + rest
    for parts in product(*(list(compositions(len(b), k)) for b in blocks)):
        beta = [0] * n
        for b, part in zip(blocks, parts):
            for i, v in zip(b, part):
                beta[i] = v
        yield tuple(beta)


def exact_eigenvalue(g: dict, beta, n: int) -> Fraction:
    """sum_gamma c_gamma h(beta + gamma) / h(beta) with h = monomial_norm."""
    h_beta = monomial_norm(beta, n)
    return sum((c * monomial_norm(tuple(b + e for b, e in zip(beta, gamma)), n) / h_beta
                for gamma, c in g.items()), Fraction(0))


def toric_c0(g: dict, f_coeffs, n: int, blocks) -> float:
    """Limit of the scaled fiber measure: V * E[f(g(a / |a|_1))], a uniform on the polytope.

    For disjoint blocks at level 1 the polytope is a product of unit
    simplices, so E[a^mu] factors into Dirichlet moments monomial_norm and
    V = prod sigma_vol(block size); |a|_1 is the number of blocks.
    """
    scale = Fraction(1, len(blocks))
    g_scaled = {e: c * scale ** sum(e) for e, c in g.items()}
    fg = _compose(f_coeffs, g_scaled, (0,) * n)
    mean = Fraction(0)
    for e, c in fg.items():
        moment = Fraction(1)
        for b in blocks:
            moment *= monomial_norm(tuple(e[i] for i in b), len(b))
        mean += c * moment
    volume = math.prod(sphere_sigma_volume(len(b)) for b in blocks)
    return volume * float(mean)


def _poly_value(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def ray_levels(point, k_max: int) -> list[int]:
    q = lcm(*(c.denominator for c in point))
    return list(range(q, k_max + 1, q))


# ---- per-operation references -------------------------------------------

def expected(op: dict) -> dict:
    """Exact reference values for one operation."""
    m = op["manifest"]
    if m.get("experiment") == "theorem1" or op["kind"] == "mc":
        return {"c0": sphere_c0(m["symbol"], m["f"]["coeffs"], m["n"])}
    if m.get("experiment") == "theorem2":
        n, blocks = _blocks(m["subtorus"])
        g = _invariant_terms(m["symbol"])
        fc = m["f"]["coeffs"]
        rows = {}
        for k in m["k_list"]:
            pts = list(fiber_points(blocks, n, k))
            rows[k] = (len(pts), sum(_poly_value(fc, exact_eigenvalue(g, b, n)) for b in pts))
        return {"c0": toric_c0(g, fc, n, blocks), "rows": rows, "m": n - len(blocks),
                "counts": {k: math.prod(comb(k + len(b) - 1, len(b) - 1) for b in blocks)
                           for k in m["k_list"]}}
    if m.get("experiment") == "inverse":
        g = _invariant_terms(m["symbol"])
        pts = [tuple(Fraction(c) for c in p) for p in m["grid"]]
        truth = {p: sum((c * math.prod(x ** e for x, e in zip(p, gamma)) for gamma, c in g.items()),
                        Fraction(0)) for p in pts}
        need = max(2, m["order"] + 1)
        runs = {k: {p: ray_levels(p, k) for p in pts} for k in m["k_max_list"]}
        return {"truth": truth, "levels": runs, "need": need}
    if m.get("experiment") == "distinguish":
        return {"first_labeled_difference": 1, "first_multiset_difference": None}
    if m.get("experiment") == "model":
        q = m["quad"]
        return {"states": len(m["states"]), "grid_points": q["hermite_points"] * q["fourier_points"]}
    raise ValueError(f"no reference for operation {op['name']!r}")


# ---- output checks ------------------------------------------------------

def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(op: dict, out: Path, ref: dict) -> tuple[list[str], list[float]]:
    """Problems found in one operation's outputs, and its relative errors."""
    m = op["manifest"]
    problems: list[str] = []
    errs: list[float] = []

    def expect(cond: bool, what: str):
        if not cond:
            problems.append(what)

    if op["kind"] == "mc":
        r = _read_json(out / "mc.json")
        expect(r["stderr"] > 0, "Monte Carlo stderr is not positive")
        expect(abs(r["c0"] - ref["c0"]) <= MC_SIGMAS * r["stderr"],
               f"Monte Carlo c0 {r['c0']} is more than {MC_SIGMAS} stderr from {ref['c0']}")
        return problems, errs

    run = _read_json(out / "run.json")
    expect(run["manifest"] == m and run["experiment"] == m["experiment"], "run.json does not echo the manifest")
    exp = m["experiment"]
    if exp == "theorem1":
        rows = _read_csv(out / "measures.csv")
        expect([int(r["k"]) for r in rows] == m["k_list"], "measures.csv k column differs from k_list")
        for r in rows:
            k, mu, sm = int(r["k"]), float(r["mu"]), float(r["scaled_mu"])
            expect(int(r["n"]) == m["n"] and int(r["m"]) == m["n"] - 1, f"k={k}: wrong n or m")
            expect(mu > 0 and _rel(sm, (2 * math.pi / k) ** (m["n"] - 1) * mu) <= FLOAT_REL_TOL,
                   f"k={k}: scaled_mu is not (2 pi/k)^m mu")
        fit = _read_json(out / "fit.json")
        err = _rel(fit["c"][0], ref["c0"])
        errs.append(err)
        expect(err <= FIT_REL_TOL, f"fit c0 {fit['c'][0]} vs exact {ref['c0']}: rel err {err:.2e}")
        expect(fit["k_range"] == [min(m["k_list"]), max(m["k_list"])], "fit k_range is wrong")
    elif exp == "theorem2":
        rows = _read_csv(out / "fiber_measures.csv")
        expect([int(r["k"]) for r in rows] == m["k_list"], "fiber_measures.csv k column differs from k_list")
        for r in rows:
            k = int(r["k"])
            count, mu_exact = ref["rows"][k]
            expect(int(r["count"]) == ref["counts"][k] == count, f"k={k}: fiber count {r['count']} != {count}")
            err = _rel(float(r["mu"]), float(mu_exact))
            errs.append(err)
            expect(err <= FLOAT_REL_TOL, f"k={k}: fiber measure rel err {err:.2e}")
            expect(_rel(float(r["scaled_mu"]), (2 * math.pi / k) ** ref["m"] * float(r["mu"])) <= FLOAT_REL_TOL,
                   f"k={k}: scaled_mu is not (2 pi/k)^(n-d) mu")
        fit = _read_json(out / "fit.json")
        err = _rel(fit["fit"]["c"][0], ref["c0"])
        errs.append(err)
        expect(err <= FIT_REL_TOL, f"fit c0 {fit['fit']['c'][0]} vs exact {ref['c0']}: rel err {err:.2e}")
        expect(fit["regular_free"]["ok"] is True, "regular-free check did not pass")
        expect(fit["leading_stderr"] > 0 and
               abs(fit["leading_estimate"] - ref["c0"]) <= MC_SIGMAS * fit["leading_stderr"],
               f"sampled limit {fit['leading_estimate']} is more than {MC_SIGMAS} stderr from {ref['c0']}")
    elif exp == "inverse":
        rows = _read_csv(out / "reconstruction.csv")
        expect(len(rows) == len(m["grid"]) * len(m["k_max_list"]), "reconstruction.csv has the wrong row count")
        worst: dict = {}
        for r in rows:
            k_max = int(r["k_max"])
            p = tuple(Fraction(c) for c in r["point"].split())
            truth = ref["truth"][p]
            levels = ref["levels"][k_max][p]
            expect([int(x) for x in r["levels"].split()] == levels, f"{r['point']} @ {k_max}: wrong levels")
            expect(_rel(float(r["truth"]), float(truth)) <= FLOAT_REL_TOL, f"{r['point']}: wrong truth")
            missing = len(levels) < ref["need"]
            expect(int(r["missing"]) == int(missing), f"{r['point']} @ {k_max}: missing flag is wrong")
            if not missing:
                err = _rel(float(r["estimate"]), float(truth))
                errs.append(err)
                expect(err <= INVERSE_REL_TOL, f"{r['point']} @ {k_max}: rel err {err:.2e}")
                worst[k_max] = max(worst.get(k_max, 0.0), float(r["abs_err"]))
        summary = _read_json(out / "summary.json")
        for run_ in summary["runs"]:
            k_max = run_["k_max"]
            resolved = sum(len(v) >= ref["need"] for v in ref["levels"][k_max].values())
            expect(run_["resolved_points"] == resolved, f"k_max={k_max}: wrong resolved count")
            expect(run_["missing_points"] == len(m["grid"]) - resolved, f"k_max={k_max}: wrong missing count")
            expect(run_["max_abs_err"] == worst.get(k_max), f"k_max={k_max}: max_abs_err disagrees with the rows")
        expect(summary["slope"] is not None and summary["slope"] < 0, "error does not decay with k_max")
    elif exp == "distinguish":
        rep = _read_json(out / "distinguish.json")
        for key, val in ref.items():
            expect(rep[key] == val, f"{key} = {rep[key]}, expected {val}")
        expect(rep["labeled_differ"] is True and rep["multiset_differ"] is False, "wrong differ flags")
    elif exp == "model":
        rep = _read_json(out / "isometry.json")
        expect(rep["ok"] is True, "isometry check is not ok")
        expect(rep["states"] == ref["states"] and rep["grid_points"] == ref["grid_points"], "wrong model sizes")
        defect = max(rep["max_gram_offdiag"], rep["max_gram_diag_error"])
        errs.append(defect)
        expect(defect <= MODEL_TOL, f"Gram defect {defect:.2e}")
    return problems, errs
