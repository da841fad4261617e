import tracemalloc
import warnings
from math import pi

import numpy as np
import pytest

from toeplab.canonical_model import (
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
