import time
from fractions import Fraction
from math import isqrt, prod, sqrt

import numpy as np
import pytest

from toeplab.errors import SymbolFormatError, ValidationError
from toeplab.hardy_sphere import (
    MAX_SYMBOL_DEGREE,
    InvariantSymbol,
    SymbolPoly,
    assemble_block,
    invariant_eigenvalue,
    monomial_norm,
)
from toeplab.spectral import TestFunction, measure_eigen, measure_poly


def test_monomial_norm_small_cases():
    assert monomial_norm((0, 0), 2) == 1
    assert monomial_norm((1, 0), 2) == Fraction(1, 2)
    assert monomial_norm((1, 1), 2) == Fraction(1, 6)
    assert monomial_norm((2, 1), 2) == Fraction(1, 12)
    assert monomial_norm((0, 0, 0), 3) == 1
    assert monomial_norm((1, 1, 1), 3) == Fraction(2 * 1 * 1 * 1, 5 * 4 * 3 * 2)


def test_monomial_norms_sum_to_binomial_identity():
    # sum over |mu| = k of 1/h equals dim of degree k+? no; instead check
    # normalization: h(mu)/h(0) products telescope along unit steps.
    n = 2
    step = monomial_norm((3, 2), n) / monomial_norm((2, 2), n)
    assert step == Fraction(3, 6)  # mu1 / (n-1+|mu|)


def test_monomial_norm_monte_carlo():
    """Sphere average of |z^mu|^2 is the closed-form norm."""
    rng = np.random.default_rng(42)
    w = rng.standard_normal((400_000, 2, 2))
    z = w[..., 0] + 1j * w[..., 1]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    vals = np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 2
    se = vals.std(ddof=1) / len(vals) ** 0.5
    assert abs(vals.mean() - float(monomial_norm((1, 1), 2))) < 3 * se


def test_symbol_requires_hermitian_closure():
    with pytest.raises(SymbolFormatError):
        SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)])
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    assert len(sym.terms) == 2


def test_symbol_requires_degree_balance():
    with pytest.raises(SymbolFormatError):
        SymbolPoly.from_terms([((2, 0), (0, 1), 1.0)], hermitize=True)


def test_symbol_degree_limit():
    top = MAX_SYMBOL_DEGREE
    assert SymbolPoly.from_terms([((top, 0), (0, top), 1.0)], hermitize=True).n == 2
    assert InvariantSymbol.from_poly([((top - 1, 1), 1)], 2).n == 2
    for degree in (top + 1, 10**400):
        with pytest.raises(SymbolFormatError, match="degree"):
            SymbolPoly.from_terms([((degree, 0), (0, degree), 1.0)], hermitize=True)
        with pytest.raises(SymbolFormatError, match="degree"):
            InvariantSymbol.from_poly([((0, 0), 1), ((degree, 0), 1)], 2)


def test_invariant_coefficients_stay_in_float_range():
    # every eigenvalue and value is at most the coefficients' modulus sum
    assert InvariantSymbol.from_poly([((1, 0), 2**1023), ((0, 1), -(2**1022))], 2).evaluate((1.0, 0.0)) == 2.0**1023
    for terms in ([((1, 0), 10**400)], [((1, 0), 2**1023), ((0, 1), -(2**1023))]):
        with pytest.raises(SymbolFormatError, match="float range"):
            InvariantSymbol.from_poly(terms, 2)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "minus_inf"])
def test_symbols_refuse_coefficients_that_are_not_finite(c):
    with pytest.raises(SymbolFormatError, match=r"coefficient \S+ is not finite") as info:
        InvariantSymbol.from_poly([((1, 0), c)], 2)
    assert info.value.operation == "hardy_sphere.InvariantSymbol"
    for terms, hermitize in (([((1, 0), (1, 0), c)], False), ([((1, 0), (0, 1), complex(c, 0.5))], True),
                             ([((1, 0), (0, 1), c), ((0, 1), (1, 0), c)], False)):
        with pytest.raises(SymbolFormatError, match=r"coefficient \S+ is not finite"):
            SymbolPoly.from_terms(terms, hermitize=hermitize)


def test_symbol_refuses_a_coefficient_sum_past_the_float_range():
    with pytest.raises(SymbolFormatError, match="coefficient inf is not finite"):
        SymbolPoly.from_terms([((1, 0), (1, 0), 1e308), ((1, 0), (1, 0), 1e308)])


def test_symbol_conjugate_partner_tolerance():
    e, f = (1, 0), (0, 1)
    # 0.1 + 0.2 rounds to 0.30000000000000004, one ulp away from 0.3
    sym = SymbolPoly(terms=((e, f, 0.1), (e, f, 0.2), (f, e, 0.3)))
    assert len(sym.terms) == 3
    with pytest.raises(SymbolFormatError, match="conjugate partner"):
        SymbolPoly(terms=((e, f, 0.3),))
    with pytest.raises(SymbolFormatError, match="conjugate partner"):
        SymbolPoly(terms=((e, f, 0.3), (f, e, 0.3001)))


def test_symbol_diagonal_term_must_be_real():
    with pytest.raises(SymbolFormatError):
        SymbolPoly.from_terms([((1, 0), (1, 0), 1j)])


def test_symbol_refuses_structural_faults_by_name():
    with pytest.raises(SymbolFormatError, match="at least one term"):
        SymbolPoly(terms=())
    with pytest.raises(SymbolFormatError, match="share the coordinate count"):
        SymbolPoly(terms=(((1, 0), (1, 0), 1.0), ((1, 0, 0), (1, 0, 0), 1.0)))
    # hermitize adds partners to off-diagonal terms only, so it refuses a complex diagonal itself
    with pytest.raises(SymbolFormatError, match="diagonal term coefficient must be real"):
        SymbolPoly.from_terms([((1, 0), (1, 0), 1j)], hermitize=True)
    for record in ([], {"terms": [], "extra": 1}, {"items": []}):
        with pytest.raises(ValidationError, match=r"^symbol record must be \{'terms': \[\.\.\.\]\}$"):
            SymbolPoly.from_json(record)


# numpy's int64 is no Python int, as everywhere in the package
@pytest.mark.parametrize("c", ["x", None, [1], True, np.int64(1)], ids=["string", "none", "list", "bool", "int64"])
def test_symbol_refuses_coefficients_that_are_not_numbers(c):
    with pytest.raises(SymbolFormatError, match=r"^coefficient .+ is not an int, float, Fraction or complex$") as info:
        SymbolPoly.from_terms([((1, 0), (1, 0), c)])
    assert info.value.operation == "hardy_sphere.SymbolPoly"


def test_symbol_json_round_trip():
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 0.5 + 0.25j)], hermitize=True)
    record = {"terms": [
        {"gamma": [1, 0], "delta": [0, 1], "re": 0.5, "im": 0.25},
        {"gamma": [0, 1], "delta": [1, 0], "re": 0.5, "im": -0.25},
    ]}
    assert SymbolPoly.from_json(record) == sym
    with pytest.raises(ValidationError):
        SymbolPoly.from_json({"terms": [{"gamma": [1, 0], "delta": [0, 1], "re": 1.0}]})


def test_symbol_evaluate_is_real_for_hermitian():
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    z = np.array([[0.6, 0.8j], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
    vals = sym.evaluate(z)
    assert np.allclose(vals.imag, 0.0, atol=1e-15)
    # 2 Re(z1 conj z2) at the second point is 1
    assert vals.real[1] == pytest.approx(1.0)


def test_invariant_symbol_evaluations():
    a1 = InvariantSymbol.coordinate(0, 3)
    assert a1.evaluate((0.2, 0.3, 0.5)) == pytest.approx(0.2)
    pts = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert a1.eval_array(pts) == pytest.approx([0.2, 1.0])


def test_invariant_eigenvalue_closed_forms():
    a1 = InvariantSymbol.coordinate(0, 2)
    a1sq = InvariantSymbol.from_poly([((2, 0), 1)], 2)
    for k in (1, 5, 12):
        for j in range(k + 1):
            alpha = (j, k - j)
            assert invariant_eigenvalue(a1, alpha) == Fraction(j + 1, k + 2)
            assert invariant_eigenvalue(a1sq, alpha) == Fraction((j + 2) * (j + 1), (k + 3) * (k + 2))


def test_invariant_eigenvalue_alpha_length_and_size():
    a1 = InvariantSymbol.coordinate(0, 2)
    for alpha in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValidationError):
            invariant_eigenvalue(a1, alpha)
    # entries beyond int64 stay exact
    for j, k in [(2**63, 2**63 + 5), (2**70, 2**70)]:
        assert invariant_eigenvalue(a1, (j, k - j)) == Fraction(j + 1, k + 2)


def dense(block) -> np.ndarray:
    """The block's dim x dim matrix, its sectors scattered into zeros."""
    q = np.zeros((block.dim, block.dim), dtype=complex)
    for positions, matrices in block.sectors:
        for pos, m in zip(positions, matrices):
            q[np.ix_(pos, pos)] = m
    return q


def hermiticity_defect(m: np.ndarray) -> float:
    """max|m - m^H| / max(1, max|m|)."""
    return float(np.max(np.abs(m - m.conj().T)) / max(1.0, float(np.max(np.abs(m)))))


def test_block_diagonal_invariant_case():
    a1 = InvariantSymbol.coordinate(0, 2)
    block = assemble_block(a1.to_symbol_poly(), 2, 2)
    assert block.exact_diagonal == (Fraction(3, 4), Fraction(2, 4), Fraction(1, 4))
    q = dense(block)
    assert np.allclose(q, np.diag([0.75, 0.5, 0.25]))
    assert hermiticity_defect(q) == 0.0


def test_block_constant_symbol_is_identity():
    block = assemble_block(SymbolPoly.from_terms([((0, 0, 0), (0, 0, 0), 2.0)]), 3, 2)
    assert np.allclose(dense(block), 2.0 * np.eye(block.dim))


def test_block_offdiagonal_frozen_value():
    # k=1, term z1 conj z2 couples basis (1,0) and (0,1) with weight 1/2... times
    # sqrt ratio; frozen from the rational formula.
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    block = assemble_block(sym, 2, 1)
    q = dense(block)
    assert q[0, 1] == pytest.approx(1 / 3)
    assert q[1, 0] == pytest.approx(1 / 3)
    assert q[0, 0] == 0.0


def test_block_offdiagonal_matches_sphere_integral():
    """One off-diagonal entry cross-checked by Monte Carlo on the sphere.

    The entry (beta, alpha) is the sphere average of F z^alpha conj(z^beta)
    divided by sqrt(h(alpha) h(beta)).
    """
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    k = 2
    block = assemble_block(sym, 2, k)
    alpha, beta = (1, 1), (2, 0)
    i = block.basis.index(beta)
    j = block.basis.index(alpha)
    rng = np.random.default_rng(7)
    w = rng.standard_normal((600_000, 2, 2))
    z = w[..., 0] + 1j * w[..., 1]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    F = 2 * (z[:, 0] * z[:, 1].conj()).real
    integrand = F * z[:, 0] * z[:, 1] * np.conj(z[:, 0] ** 2)
    norm = float(monomial_norm(alpha, 2) * monomial_norm(beta, 2)) ** 0.5
    samples = integrand.real / norm
    se = samples.std(ddof=1) / len(samples) ** 0.5
    assert abs(samples.mean() - dense(block)[i, j].real) < 3 * se


def test_block_hermiticity_nontrivial():
    sym = SymbolPoly.from_terms([((1, 0, 0), (0, 1, 0), 0.3 + 0.4j)], hermitize=True)
    block = assemble_block(sym, 3, 3)
    assert hermiticity_defect(dense(block)) < 1e-15


def test_symbol_permutation_relabels_block():
    sym = SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True)
    swapped = SymbolPoly(terms=tuple((g[::-1], d[::-1], c) for g, d, c in sym.terms))
    b1 = assemble_block(sym, 2, 2)
    b2 = assemble_block(swapped, 2, 2)
    assert np.allclose(sorted(np.linalg.eigvalsh(dense(b1))), sorted(np.linalg.eigvalsh(dense(b2))))


def dense_oracle(sym: SymbolPoly, n: int, basis) -> np.ndarray:
    """Q[beta, alpha] = sum_t c_t h(alpha+gamma_t) / sqrt(h(alpha) h(beta)), from monomial_norm."""
    index = {mi: i for i, mi in enumerate(basis)}
    q = np.zeros((len(basis), len(basis)), dtype=complex)
    for gamma, delta, c in sym.terms:
        for j, alpha in enumerate(basis):
            beta = tuple(a + g - d for a, g, d in zip(alpha, gamma, delta))
            if min(beta) < 0:
                continue
            top = monomial_norm(tuple(a + g for a, g in zip(alpha, gamma)), n)
            q[index[beta], j] += complex(c) * sqrt(top * top / (monomial_norm(alpha, n) * monomial_norm(beta, n)))
    return q


ORACLE_SYMBOLS = {
    # the benchmark's sphere shape: a_1/2 + c z_1 conj(z_2) + c.c.
    "sphere_shape": (SymbolPoly.from_terms(
        [((1, 0, 0), (1, 0, 0), 0.5), ((1, 0, 0), (0, 1, 0), 0.3 + 0.4j)], hermitize=True), 11),
    # shifts e_1 - e_2 and e_2 - e_3 span the degree-zero lattice
    "one_sector": (SymbolPoly.from_terms(
        [((1, 0, 0), (0, 1, 0), 0.25), ((0, 1, 0), (0, 0, 1), -0.5j), ((0, 0, 1), (0, 0, 1), 0.75)],
        hermitize=True), 1),
    # shift 2(e_1 - e_2): the charge lattice misses the parity of alpha_1
    "torsion": (SymbolPoly.from_terms([((2, 0, 0), (0, 2, 0), 0.7)], hermitize=True), 11),
    "invariant": (InvariantSymbol.from_poly(
        [((2, 0, 0), 1), ((0, 1, 1), Fraction(1, 2))], 3).to_symbol_poly(), 66),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS))
def test_block_sectors_match_dense_oracle(name):
    sym, n_sectors = ORACLE_SYMBOLS[name]
    block = assemble_block(sym, 3, 10)
    q = dense_oracle(sym, 3, block.basis)
    assert np.max(np.abs(dense(block) - q)) <= 1e-15

    positions = [j for pos, _ in block.sectors for j in pos.ravel().tolist()]
    assert sorted(positions) == list(range(block.dim))
    assert sum(m.shape[0] * m.shape[1] for _, m in block.sectors) == block.dim
    assert sum(len(pos) for pos, _ in block.sectors) == n_sectors
    label = np.empty(block.dim, dtype=int)
    for s, pos in enumerate(p for stack, _ in block.sectors for p in stack):
        label[pos] = s
    assert np.all(q[label[:, None] != label[None, :]] == 0)
    # one (positions, matrices) pair per size, every stack a view of one buffer the measures read in place
    assert len({m.shape[1] for _, m in block.sectors}) == len(block.sectors)
    assert all(pos.dtype == np.int64 and pos.shape == m.shape[:2] for pos, m in block.sectors)
    buffer = block.sectors[0][1].base
    assert buffer.size == sum(m.size for _, m in block.sectors)
    assert all(np.shares_memory(m, buffer) for _, m in block.sectors)

    f = TestFunction.polynomial([0.1, -0.5, 0.0, 1.0, 0.25])
    want_eig = float(np.sum(f(np.linalg.eigvalsh(q))))
    power, want_poly = np.eye(block.dim), f.coeffs[0] * block.dim
    for c in f.coeffs[1:]:
        power = power @ q
        want_poly += c * float(np.trace(power).real)
    assert measure_eigen(block, f) == pytest.approx(want_eig, rel=1e-12)
    assert measure_poly(block, f) == pytest.approx(want_poly, rel=1e-12)


def _entry_oracle_norm_ratio(alpha, gamma, n):
    """h(alpha+gamma)/h(alpha) as a product of small integer factors."""
    num = 1
    for a, g in zip(alpha, gamma):
        for t in range(1, g + 1):
            num *= a + t
    den = 1
    base = n - 1 + sum(alpha)
    for s in range(1, sum(gamma) + 1):
        den *= base + s
    return Fraction(num, den)


def _entry_oracle_sqrt(q):
    """Exact square root of a non-negative rational, or None."""
    pn, pd = isqrt(q.numerator), isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


def entry_oracle(sym: SymbolPoly, n: int, k: int):
    """The per-entry Fraction assembly: one Fraction radicand per (term, monomial) pair.

    Returns the dense matrix, the exact diagonal, the sector positions (charge
    groups in first-seen order) and every off-diagonal radicand.
    """
    from toeplab import _exact
    from toeplab.multiindex import enumerate_degree

    basis = enumerate_degree(n, k)
    index = {mi: i for i, mi in enumerate(basis)}
    shifts = [[g - d for g, d in zip(gamma, delta)] for gamma, delta, _ in sym.terms if gamma != delta]
    charges = _exact.integer_nullspace(shifts or [[0] * n])
    groups = {}
    for j, alpha in enumerate(basis):
        key = tuple(sum(c * a for c, a in zip(row, alpha)) for row in charges)
        groups.setdefault(key, []).append(j)
    q = np.zeros((len(basis), len(basis)), dtype=complex)
    diag = [Fraction(0)] * len(basis)
    radicands = []
    for gamma, delta, c in sym.terms:
        shift = tuple(g - d for g, d in zip(gamma, delta))
        for j, alpha in enumerate(basis):
            beta = tuple(a + s for a, s in zip(alpha, shift))
            if any(b < 0 for b in beta):
                continue
            i = index[beta]
            r_alpha = _entry_oracle_norm_ratio(alpha, gamma, n)
            if i == j:
                diag[j] += Fraction(c.real) * r_alpha
            else:
                r = r_alpha * _entry_oracle_norm_ratio(beta, delta, n)
                radicands.append(r)
                root = _entry_oracle_sqrt(r)
                mag = float(root) if root is not None else float(np.sqrt(float(r)))
                q[i, j] += complex(c) * mag
    for j in range(len(basis)):
        q[j, j] = float(diag[j])
    return q, tuple(diag), [tuple(g) for g in groups.values()], radicands


ENTRY_ORACLE_CASES = [
    *[(name, sym, 3, k) for name, (sym, _) in sorted(ORACLE_SYMBOLS.items()) for k in (0, 1, 2, 10)],
    ("z1_conj_z2", SymbolPoly.from_terms([((1, 0), (0, 1), 1.0)], hermitize=True), 2, 12),
    ("one_coordinate", SymbolPoly.from_terms([((2,), (2,), 0.3)]), 1, 5),
    ("complex_coefficient", SymbolPoly.from_terms(
        [((2, 0), (1, 1), 0.3 - 0.7j), ((0, 1), (0, 1), Fraction(2, 7))], hermitize=True), 2, 10),
    # sector sizes 10, 18, 24, 28, 30, 30, 28, 24, 18, 10: equal sizes apart in first-seen order
    ("scattered_sizes", SymbolPoly.from_terms(
        [((1, 0, 0, 0), (0, 1, 0, 0), 0.25 + 0.1j), ((0, 0, 1, 0), (0, 0, 0, 1), -0.4)], hermitize=True), 4, 9),
    # |gamma| = |delta| = 6 at k = 60: P reaches 7.4e19 > 2^63
    ("degree_six", SymbolPoly.from_terms([((6, 0), (5, 1), Fraction(1, 3))], hermitize=True), 2, 60),
]


@pytest.mark.parametrize("name,sym,n,k", ENTRY_ORACLE_CASES,
                         ids=[f"{name}-k{k}" for name, _, _, k in ENTRY_ORACLE_CASES])
def test_block_bitwise_matches_entry_oracle(name, sym, n, k):
    block = assemble_block(sym, n, k)
    q, diag, groups, radicands = entry_oracle(sym, n, k)
    assert dense(block).tobytes() == q.tobytes()
    assert block.exact_diagonal == diag
    by_size = {}
    for g in groups:
        by_size.setdefault(len(g), []).append(list(g))
    assert [pos.tolist() for pos, _ in block.sectors] == list(by_size.values())
    if name == "z1_conj_z2":
        assert any(_entry_oracle_sqrt(r) is not None for r in radicands)
    if name == "degree_six":
        den = prod(n - 1 + k + s for s in range(1, 7))
        assert max(r * den * den for r in radicands) > 2**63


def test_block_refuses_oversized_sectors():
    sym, _ = ORACLE_SYMBOLS["one_sector"]
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match=r"dim 80601 \(largest sector 80601\) needs 103944339216 bytes"):
        assemble_block(sym, 3, 400)
    assert time.perf_counter() - t0 < 5.0
    sym, _ = ORACLE_SYMBOLS["sphere_shape"]
    block = assemble_block(sym, 3, 64)
    assert block.dim == 2145
    assert max(m.shape[1] for _, m in block.sectors) == 65


def test_block_refuses_oversized_basis_before_enumerating():
    # C(205, 5) = 2.9e9 monomials: 16 bytes each already pass the limit
    sym = InvariantSymbol.coordinate(0, 6).to_symbol_poly()
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match=r"dim 2872408791 needs at least 45958540656 bytes"):
        assemble_block(sym, 6, 200)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("level", [2.5, 2.0, True])
def test_block_refuses_non_integer_levels(level):
    # a float degree must not reach math.perm, nor True stand for degree 1
    with pytest.raises(ValidationError, match="k must be an integer >= 0"):
        assemble_block(InvariantSymbol.coordinate(0, 2).to_symbol_poly(), 2, level)
    with pytest.raises(ValidationError, match="n must be an integer >= 1"):
        assemble_block(InvariantSymbol.coordinate(0, 1).to_symbol_poly(), level, 2)
