"""Workload definitions: the operations of each workload, built from a seed.

Sizes are fixed.  The seed picks the Monte Carlo seeds and a symmetry of
each problem (a coordinate permutation that maps the fiber or grid to
itself and, on the sphere, a rational unit phase of the off-diagonal
coefficient), applied to the rational symbol coefficients; the n-d=3
theorem2 case keeps the symbol a_1, whose permutations change its peak
memory.  The program
therefore sees different manifests for different seeds, while cost and
the exact limits it is checked against stay the same, so timings and
ref_rel_err are comparable across seeds.

This module imports nothing beyond the standard library; the parent and
the worker both build the operations from it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

# Why each workload is in the benchmark (BENCHMARK.json carries these lines).
WORKLOADS = {
    "sphere_dense": "the only dense path: blocks, eigensolves, matrix powers, projectors; "
                    "reduction.c0_simplex_quad and calibrate_volume stay unmeasured, no CLI path calls them",
    "toric_fibers": "bounding-box fiber DFS, fiber_volume fit and polytope sampler; "
                    "no dense matrix; keeps the n-d=3 theorem2 defect counted",
    "inverse_rays": "many small toric levels read back through per-weight lookups "
                    "and exact Neville extrapolation",
}

# Rational points on the unit circle; |u| = 1 exactly.
_PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]

# The symmetry group of the product_of_lines fiber {b1+b2 = k, b3+b4 = k}.
_PRODUCT_OF_LINES_SYMMETRIES = [
    p for p in permutations(range(4))
    if {frozenset(p[:2]), frozenset(p[2:])} == {frozenset((0, 1)), frozenset((2, 3))}
]

# Interior points of the simplex with denominator 12: a permutation-stable grid.
INVERSE_GRID = [
    (Fraction(i, 12), Fraction(j, 12), Fraction(12 - i - j, 12))
    for i in range(1, 11) for j in range(1, 12 - i)
]

# Base invariant symbols as (exponents, coefficient) pairs.
_TORIC_SYMBOL = [((1, 0, 0, 0), Fraction(1, 2)), ((0, 0, 2, 0), Fraction(1, 3))]
_RAY_SYMBOL = [((0, 0, 0), Fraction(1, 2)), ((2, 0, 0), Fraction(2, 3)), ((0, 1, 1), Fraction(1, 5))]
_CYCLE3 = (1, 2, 0)


def _permute(terms, perm):
    """Relabel coordinates: exponent i of the result is exponent perm[i] of the input."""
    return [(tuple(g[j] for j in perm), c) for g, c in terms]


def _invariant_json(terms) -> dict:
    return {"terms": [{"gamma": list(g), "coeff": str(c)} for g, c in terms]}


def _sphere_symbol(rng: random.Random) -> dict:
    """F = a_p/2 + c z_p conj(z_q) + conj(c) z_q conj(z_p) with |c| = 1/2."""
    p, q, _ = rng.sample(range(3), 3)
    x, y, r = rng.choice(_PYTHAGOREAN)
    x, y = rng.choice([(x, y), (y, x)])
    re, im = x / (2 * r), rng.choice([1, -1]) * y / (2 * r)
    e_p = [int(i == p) for i in range(3)]
    e_q = [int(i == q) for i in range(3)]
    return {"terms": [
        {"gamma": e_p, "delta": e_p, "re": 0.5, "im": 0.0},
        {"gamma": e_p, "delta": e_q, "re": re, "im": im},
        {"gamma": e_q, "delta": e_p, "re": re, "im": -im},
    ]}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one workload, in run order.

    Each operation has a ``name``, a ``kind`` ("cli" runs ``toeplab.cli.main``
    on the manifest, "mc" calls ``toeplab.reduction.c0_sphere_mc``) and the
    ``manifest`` the program sees.  An operation that fails today in a
    documented way carries ``known_defect``: the exit code and the stderr
    text of that failure.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sphere_dense":
        symbol = _sphere_symbol(rng)
        return [
            {"name": "theorem1_x2_eigen", "kind": "cli", "manifest": {
                "experiment": "theorem1", "n": 3, "symbol": symbol,
                "f": {"coeffs": [0, 0, 1], "label": "x2"},
                "k_list": list(range(16, 65, 8)), "measure": "eigen", "seed": 0}},
            {"name": "theorem1_x4_poly", "kind": "cli", "manifest": {
                "experiment": "theorem1", "n": 3, "symbol": symbol,
                "f": {"coeffs": [0, 0, 0, 0, 1], "label": "x4"},
                "k_list": list(range(16, 49, 4)), "measure": "poly", "seed": 0}},
            {"name": "c0_sphere_mc", "kind": "mc", "manifest": {
                "n": 3, "symbol": symbol, "f": {"coeffs": [0, 0, 1]},
                "samples": 1_000_000, "seed": rng.randrange(2**31)}},
            {"name": "model", "kind": "cli", "manifest": {
                "experiment": "model",
                "states": [{"m": [s * m], "k_dim": 1} for m in range(1, 5) for s in (1, -1)],
                "quad": {"hermite_points": 64, "fourier_points": 40}, "seed": 0}},
        ]
    if workload == "toric_fibers":
        lines_perm = rng.choice(_PRODUCT_OF_LINES_SYMMETRIES)
        return [
            {"name": "theorem2_product_of_lines", "kind": "cli", "manifest": {
                "experiment": "theorem2", "subtorus": {"example": "product_of_lines"},
                "symbol": _invariant_json(_permute(_TORIC_SYMBOL, lines_perm)),
                "f": {"coeffs": [0, 0, 1]}, "k_list": list(range(8, 41, 4)),
                "samples": 200_000, "seed": rng.randrange(2**31)}},
            # n - d = 3: fiber_volume's default k window starts below the
            # fit's minimum k, a known defect; the reference is ready for the fix.
            {"name": "theorem2_diagonal_circle_4", "kind": "cli",
             "known_defect": {"exit": 2, "stderr": "k values must be at least 6 for order 3"},
             "manifest": {
                "experiment": "theorem2",
                "subtorus": {"n": 4, "d": 1, "Bt": [[1, 1, 1, 1]], "alpha": [1]},
                "symbol": _invariant_json([((1, 0, 0, 0), Fraction(1))]),
                "f": {"coeffs": [0, 1]}, "k_list": list(range(6, 17)),
                "samples": 200_000, "seed": rng.randrange(2**31)}},
        ]
    perm = rng.sample(range(3), 3)
    symbol = _permute(_RAY_SYMBOL, perm)
    return [
        {"name": "inverse", "kind": "cli", "manifest": {
            "experiment": "inverse", "n": 3, "symbol": _invariant_json(symbol),
            "grid": [[str(c) for c in pt] for pt in INVERSE_GRID],
            "k_max_list": [36, 72], "order": 4, "spacing": "all", "seed": 0}},
        {"name": "distinguish", "kind": "cli", "manifest": {
            "experiment": "distinguish", "subtorus": {"example": "diagonal_circle_3"},
            "symbol_a": _invariant_json(symbol),
            "symbol_b": _invariant_json(_permute(symbol, _CYCLE3)),
            "k_max": 40, "seed": 0}},
    ]
