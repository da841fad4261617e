import tracemalloc
import warnings
from itertools import product
from math import pi

import numpy as np
import pytest

from toeplab.canonical_model import (
    _TILE,
    IsometryReport,
    ModelIndex,
    QuadratureSpec,
    annihilation_residual,
    _design_matrix,
    check_isometry,
    fm_eval,
    fm_normalization,
)
from toeplab.errors import ValidationError


def test_model_index_validation():
    with pytest.raises(ValidationError):
        ModelIndex(m=(), k_dim=1)
    with pytest.raises(ValidationError):
        ModelIndex(m=(0, 0), k_dim=1)
    with pytest.raises(ValidationError):
        ModelIndex(m=(1,), k_dim=-1)
    with pytest.raises(ValidationError):
        ModelIndex(m=(1.0,), k_dim=1)


def test_model_index_float_range():
    with pytest.raises(ValidationError, match="float range"):
        ModelIndex(m=(10**400,), k_dim=1)
    # (|m|/pi)^(k_dim/4) passes the float range from k_dim = 5 on
    assert ModelIndex(m=(10**308,), k_dim=4).frequency == 1e308
    with pytest.raises(ValidationError, match="normalization"):
        ModelIndex(m=(10**308,), k_dim=5)


def test_frequency_is_euclidean():
    assert ModelIndex(m=(3, 4), k_dim=0).frequency == 5.0
    assert ModelIndex(m=(-2,), k_dim=1).frequency == 2.0
    assert ModelIndex(m=(1, 1), k_dim=1).l_dim == 2


def test_normalization_value():
    idx = ModelIndex(m=(1,), k_dim=1)
    assert fm_normalization(idx) == pytest.approx((1 / pi) ** 0.25 / (2 * pi) ** 0.5, rel=1e-15)


def test_fm_eval_pointwise():
    idx = ModelIndex(m=(2,), k_dim=1)
    norm = fm_normalization(idx)
    assert fm_eval(idx, (0.0,), (0.0,)) == pytest.approx(norm)
    # theta = pi/2 with m = 2 flips the sign
    assert fm_eval(idx, (0.0,), (pi / 2,)) == pytest.approx(-norm)
    # unit transverse displacement damps by exp(-|m|/2)
    assert fm_eval(idx, (1.0,), (0.0,)) == pytest.approx(norm * np.exp(-1.0))


def test_fm_eval_broadcasts_and_validates():
    idx = ModelIndex(m=(1,), k_dim=1)
    y = np.zeros((5, 1))
    theta = np.linspace(0, 1, 5)[:, None]
    assert fm_eval(idx, y, theta).shape == (5,)
    with pytest.raises(ValidationError):
        fm_eval(idx, (0.0, 0.0), (0.0,))
    with pytest.raises(ValidationError):
        fm_eval(idx, (0.0,), (0.0, 0.0))


FAMILY = [ModelIndex(m=(s,), k_dim=1) for s in (-2, -1, 1, 2)]


def test_gram_matrix_is_identity():
    rep = check_isometry(FAMILY)
    assert rep.max_gram_diag_error < 1e-12
    assert rep.max_gram_offdiag < 1e-12


def test_gram_rejects_mixed_dimensions():
    for bad in ([ModelIndex(m=(1,), k_dim=1), ModelIndex(m=(1,), k_dim=2)], []):
        with pytest.raises(ValidationError) as exc:
            check_isometry(bad)
        assert exc.value.operation == "canonical_model.check_isometry"


def test_check_isometry_defaults():
    rep = check_isometry(FAMILY)
    assert isinstance(rep, IsometryReport)
    assert rep.ok
    assert rep.states == 4
    assert rep.grid_points == 64 * 24
    assert rep.max_idempotency_defect < 1e-12
    assert rep.max_selfadjoint_defect < 1e-12
    js = rep.to_json()
    assert js["ok"] is True
    assert js["quad"] == {"hermite_points": 64, "fourier_points": 24}


def test_check_isometry_flags_aliased_rule():
    """The factored Pi^2 - Pi = F (G - I) B still exposes a bad rule."""
    fam = [ModelIndex(m=(s * m,), k_dim=1) for m in range(1, 6) for s in (1, -1)]
    quad = QuadratureSpec(24, 8)
    with pytest.warns(UserWarning, match="alias"):
        rep = check_isometry(fam, quad)
    with pytest.warns(UserWarning, match="alias"):
        weights, F = _design_matrix(fam, quad)
    proj = F @ (F.conj().T * weights[None, :])
    dense = float(np.max(np.abs(proj @ proj - proj)))
    assert rep.max_idempotency_defect > 1e-3
    assert rep.max_idempotency_defect == pytest.approx(dense, abs=1e-12)
    wp = weights[:, None] * proj
    selfadj = float(np.max(np.abs(wp - wp.conj().T)))
    assert selfadj > 0
    assert rep.max_selfadjoint_defect == pytest.approx(selfadj, rel=1e-6, abs=0)
    assert not rep.ok


def test_check_isometry_pure_torus_states():
    fam = [ModelIndex(m=(s,), k_dim=0) for s in (1, 2, 3)]
    rep = check_isometry(fam)
    assert rep.max_gram_diag_error < 1e-12
    assert rep.max_gram_offdiag < 1e-12


def test_check_isometry_grid_cap():
    with pytest.raises(ValidationError):
        check_isometry(FAMILY, QuadratureSpec(64, 65))


# the model experiment's family in the sphere_dense benchmark workload
EIGHT = [ModelIndex(m=(s * m,), k_dim=1) for m in range(1, 5) for s in (1, -1)]


@pytest.mark.parametrize("quad,frozen", [
    (QuadratureSpec(64, 40),
     "(5.411101533084234e-16, 9.325874711591118e-15, 1.5039013244869805e-16, 6.508786608027976e-19)"),
    (QuadratureSpec(30, 10),
     "(8.146832550981567e-16, 3.530352964409289e-07, 2.7363560362733927e-08, 1.3887591973071574e-17)"),
], ids=["2560_points", "300_points"])
def test_check_isometry_bits_frozen(quad, frozen):
    # each defect is the largest of entries that are one length-8 product
    # each, so the walk over the grid moves no bit; 300 points end in a
    # partial tile
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 10 angles alias the |m| = 4 states
        rep = check_isometry(EIGHT, quad)
    defects = (rep.max_gram_offdiag, rep.max_gram_diag_error, rep.max_idempotency_defect, rep.max_selfadjoint_defect)
    assert repr(defects) == frozen


# the aliased family of test_check_isometry_flags_aliased_rule
ALIASED = [ModelIndex(m=(s * m,), k_dim=1) for m in range(1, 6) for s in (1, -1)]


@pytest.mark.parametrize("family,quad,frozen", [
    (EIGHT, QuadratureSpec(64, 64),
     "(3.8942138595414504e-16, 9.325873623687858e-15, 9.792847342082915e-17, 2.175498386946725e-19)"),
    (ALIASED, QuadratureSpec(24, 8),
     "(0.9999924368333354, 9.881039170678285e-05, 0.304050747609908, 1.3944339072654627e-17)"),
], ids=["4096_points", "aliased_rule"])
def test_check_isometry_bits_frozen_at_cap_and_aliased(family, quad, frozen):
    # recorded from the walk over every tile: the bounded walk must find
    # the same maxima at the grid cap and where the defects are order one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = check_isometry(family, quad)
    defects = (rep.max_gram_offdiag, rep.max_gram_diag_error, rep.max_idempotency_defect, rep.max_selfadjoint_defect)
    assert repr(defects) == frozen


def full_tile_walk(family, quad):
    """The idempotency and self-adjointness maxima over every tile, in row-major tile order."""
    weights, F = _design_matrix(family, quad)
    B = F.conj().T * weights[None, :]
    defect = (B @ F - np.eye(F.shape[1])) @ B
    idem = selfadj = 0.0
    for i, j in product(range(0, len(weights), _TILE), repeat=2):
        rows, cols = slice(i, i + _TILE), slice(j, j + _TILE)
        idem = max(idem, float(np.max(np.abs(F[rows] @ defect[:, cols]))))
        if j >= i:
            wp = (F[rows] @ B[:, cols]) * weights[rows, None]
            wp_t = (F[cols] @ B[:, rows]) * weights[cols, None]
            selfadj = max(selfadj, float(np.max(np.abs(wp - wp_t.conj().T))))
    return idem, selfadj


def random_families(seed, count):
    """Families of 1-12 states on grids of 2-64 points per axis with a partial last tile."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        k_dim, l_dim = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        quad = QuadratureSpec(int(rng.integers(2, 65)), int(rng.integers(2, 65)))
        points = quad.hermite_points**k_dim * quad.fourier_points**l_dim
        if points > 4096 or points % _TILE == 0:
            continue
        top = int(rng.choice([3, 8, 40]))
        ms = [m for m in rng.integers(-top, top + 1, size=(int(rng.integers(1, 13)), l_dim)).tolist() if any(m)]
        if ms:
            found.append(([ModelIndex(m=tuple(m), k_dim=k_dim) for m in ms], quad))
    return found


PURE_TORUS = ([ModelIndex(m=(s, t), k_dim=0) for s, t in [(1, 0), (0, 1), (2, -1), (-3, 2)]], QuadratureSpec(2, 45))


@pytest.mark.parametrize("family,quad", random_families(15, 12) + [PURE_TORUS])
def test_bounded_walk_matches_full_walk(family, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = check_isometry(family, quad)
        idem, selfadj = full_tile_walk(family, quad)
    assert repr((rep.max_idempotency_defect, rep.max_selfadjoint_defect)) == repr((idem, selfadj))
    tiles = -(-rep.grid_points // _TILE)
    assert rep.idempotency_tiles[1] == tiles * tiles
    assert rep.selfadjoint_tiles[1] == tiles * (tiles + 1) // 2


def test_pure_torus_walk_computes_every_tile():
    # every state has modulus (2 pi)^(-l/2) at every point, so every tile's
    # bound is as large as the maxima and none can be skipped
    rep = check_isometry(*PURE_TORUS)
    assert rep.grid_points == 45 * 45
    assert rep.idempotency_tiles == (256, 256)
    assert rep.selfadjoint_tiles == (136, 136)


def test_tiles_computed_reported():
    # sphere_dense's model family: the Gaussian cores hold both maxima
    rep = check_isometry(EIGHT, QuadratureSpec(64, 40))
    computed = rep.to_json()["tiles_computed"]
    assert computed == {"idempotency": list(rep.idempotency_tiles), "selfadjoint": list(rep.selfadjoint_tiles)}
    assert computed["idempotency"][1] == 400 and computed["selfadjoint"][1] == 210
    for done, total in computed.values():
        assert 1 <= done <= total / 10


def test_check_isometry_memory_at_grid_cap():
    # one grid x grid complex array at 4,096 points is 256 MiB; the check
    # holds only tiles of it
    tracemalloc.start()
    try:
        check_isometry(EIGHT, QuadratureSpec(64, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_quadrature_warnings():
    with pytest.warns(UserWarning, match="alias"):
        check_isometry([ModelIndex(m=(5,), k_dim=1)], QuadratureSpec(24, 8))
    with pytest.warns(UserWarning, match="Hermite"):
        check_isometry([ModelIndex(m=(1,), k_dim=1)], QuadratureSpec(8, 24))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_isometry([ModelIndex(m=(5,), k_dim=1)], QuadratureSpec(24, 24))


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(1, 24)


def test_annihilation_residual_true_state():
    idx = ModelIndex(m=(3,), k_dim=1)
    assert annihilation_residual(idx, (0.4,), (0.2,)) < 1e-5
    # central differences: shrinking the step by 10 gains two orders
    r_coarse = annihilation_residual(idx, (0.4,), (0.2,), step=1e-2)
    r_fine = annihilation_residual(idx, (0.4,), (0.2,), step=1e-3)
    assert r_fine < r_coarse / 50
    two_d = ModelIndex(m=(1, 2), k_dim=2)
    assert annihilation_residual(two_d, (0.1, 0.2), (0.3, 0.5)) < 1e-5


def test_annihilation_detects_wrong_width():
    # apply the width-2 operator to the width-1 state by hand: the
    # residual is |mu_wrong - mu| * y, an order-one mismatch
    idx = ModelIndex(m=(1,), k_dim=1)
    y0, step = 0.7, 1e-3

    def g(y):
        return fm_eval(idx, (y,), (0.0,))

    deriv = (g(y0 + step) - g(y0 - step)) / (2 * step)
    residual = abs(deriv + y0 * 2.0 * g(y0)) / abs(g(y0))
    assert residual == pytest.approx(0.7, abs=1e-5)


def test_annihilation_residual_validation():
    with pytest.raises(ValidationError):
        annihilation_residual(ModelIndex(m=(1,), k_dim=0), (), (0.0,))
