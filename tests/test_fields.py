"""Catalog field construction, gradients, decay certificates, transforms."""

import numpy as np
import pytest

from heisbeta.fields import _EXP_ZERO, catalog, precompose_dilation
from heisbeta.hgroup import (dilate, gauge, group_mul, horizontal_derivative,
                             sign_automorphisms)

from conftest import random_points

SMOOTH = ["gaussian", "affine", "vertical-wave", "coordinate", "quadratic"]


def central_difference(f, j, x, h=1e-5):
    ev = f.eval
    step = np.zeros(x.shape[-1])
    step[j - 1] = h
    return (ev(group_mul(x, step)) - ev(group_mul(x, -step))) / (2.0 * h)


def test_catalog_rejects_unknown_names_and_params():
    with pytest.raises(ValueError, match="unknown field"):
        catalog("fourier")
    with pytest.raises(ValueError, match="unexpected parameters"):
        catalog("gaussian", sigma=2.0)
    with pytest.raises(ValueError):
        catalog("affine", a=np.ones(3))  # needs length 2n
    with pytest.raises(ValueError):
        catalog("coordinate", axis=5)
    with pytest.raises(ValueError):
        catalog("quadratic", j=0, k=1)
    for name, params in [("affine", {"a": [np.inf, 1.0]}), ("affine", {"b": np.nan}),
                         ("vertical-wave", {"omega": np.inf}),
                         ("vertical-wave", {"omega": -np.inf}),
                         ("vertical-wave", {"omega": np.nan})]:
        with pytest.raises(ValueError, match="finite"):
            catalog(name, **params)
    for name, params in [("coordinate", {"axis": 1.5}), ("coordinate", {"axis": np.inf}),
                         ("quadratic", {"j": 1.9, "k": 2}),
                         ("quadratic", {"j": 1, "k": np.nan})]:
        with pytest.raises(ValueError, match="integer"):
            catalog(name, **params)
    assert catalog("coordinate", axis="t").label == "coordinate(t)"
    assert catalog("coordinate", axis=2.0).label == "coordinate(z2)"


@pytest.mark.parametrize("n", [1, 2])
def test_catalog_defaults_are_the_builders_defaults(n):
    """A name without params builds the field of its builder's keyword
    defaults: a = (1, ..., 1) and b = 1 for affine, omega = 1, axis = 1,
    j = k = 1."""
    explicit = {
        "gaussian": ({}, "gaussian"),
        "bump": ({}, "bump"),
        "affine": ({"a": np.ones(2 * n), "b": 1.0}, "affine"),
        "vertical-wave": ({"omega": 1.0}, "vertical-wave(omega=1)"),
        "coordinate": ({"axis": 1}, "coordinate(z1)"),
        "quadratic": ({"j": 1, "k": 1}, "quadratic(z1*z1)"),
    }
    pts = random_points(np.random.default_rng(8), 64, n=n, z_extent=1.2, t_extent=1.5)
    for name, (params, label) in explicit.items():
        f, g = catalog(name, n=n), catalog(name, n=n, **params)
        assert f.label == g.label == label
        assert np.array_equal(f.eval(pts), g.eval(pts))
        assert np.array_equal(f.analytic_hgrad(pts), g.analytic_hgrad(pts))
    # one param of two keeps the other's default
    assert np.array_equal(catalog("affine", n=n, b=0.0).eval(pts),
                          catalog("affine", n=n, a=np.ones(2 * n), b=0.0).eval(pts))
    for name, params in (("gaussian", {"sigma": 2.0}), ("affine", {"c": 1, "b": 0})):
        key = sorted(set(params) - {"b"})
        with pytest.raises(ValueError) as info:
            catalog(name, n=n, **params)
        assert str(info.value) == f"unexpected parameters for {name!r}: {key}"


@pytest.mark.parametrize("name", SMOOTH)
@pytest.mark.parametrize("n", [1, 2])
def test_analytic_gradient_matches_difference_quotient(name, n):
    f = catalog(name, n=n)
    rng = np.random.default_rng(21)
    pts = random_points(rng, 40, n=n, z_extent=1.2, t_extent=1.5)
    grad = f.analytic_hgrad(pts)
    assert grad.shape == (40, 2 * n)
    for j in range(1, 2 * n + 1):
        num = central_difference(f, j, pts)
        assert np.max(np.abs(num - grad[:, j - 1])) < 5e-9


def test_bump_gradient_away_from_kinks():
    f = catalog("bump")
    rng = np.random.default_rng(22)
    raw = random_points(rng, 300, z_extent=0.8, t_extent=0.2)
    r = gauge(raw)
    pts = raw[(r > 0.2) & (r < 0.9)]
    assert len(pts) > 30
    grad = f.analytic_hgrad(pts)
    for j in (1, 2):
        num = central_difference(f, j, pts, h=1e-6)
        assert np.max(np.abs(num - grad[:, j - 1])) < 1e-6


def test_horizontal_derivative_uses_analytic_gradient():
    f = catalog("gaussian")
    x = np.array([0.3, -0.2, 0.1])
    assert horizontal_derivative(f, 1, x) == f.analytic_hgrad(x)[..., 0]


def _previous_zsq(p):
    return np.einsum("...i,...i->...", p[..., :-1], p[..., :-1])


def _previous_bump(p):
    zsq = _previous_zsq(p)
    u = np.sqrt(zsq * zsq + 16.0 * p[..., -1] ** 2)
    w = 1.0 - u
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(u < 1.0, np.exp(-1.0 / np.where(w > 0, w, 1.0)), 0.0)


# the catalog evaluators as they were formed before they worked in place
PREVIOUS_EVALUATORS = {
    "gaussian": lambda p: np.exp(-_previous_zsq(p) - p[..., -1] ** 2),
    "bump": _previous_bump,
    "vertical-wave": lambda p: (np.exp(-_previous_zsq(p) - p[..., -1] ** 2)
                                * np.sin(7.0 * p[..., -1])),
}


def _previous_wave_grad(p):
    x, y, t = np.split(p, [(p.shape[-1] - 1) // 2, p.shape[-1] - 1], axis=-1)
    s, c = np.sin(7.0 * t), np.cos(7.0 * t)
    common = t * s - 3.5 * c
    return np.concatenate([-2.0 * x * s + y * common, -2.0 * y * s - x * common],
                          axis=-1) * PREVIOUS_EVALUATORS["gaussian"](p)[..., None]


def _previous_gauss_grad(p):
    x, y, t = np.split(p, [(p.shape[-1] - 1) // 2, p.shape[-1] - 1], axis=-1)
    return (np.concatenate([-2.0 * x + y * t, -2.0 * y - x * t], axis=-1)
            * PREVIOUS_EVALUATORS["gaussian"](p)[..., None])


# the gradients built on the gaussian factor, as they were formed before it
# skipped exp past its underflow cut
PREVIOUS_GRADIENTS = {"gaussian": _previous_gauss_grad,
                      "vertical-wave": _previous_wave_grad}


def _assert_same_bits(got, want):
    # every bit, so -0.0 and +0.0 differ; every NaN is one value
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("name", sorted(PREVIOUS_EVALUATORS))
@pytest.mark.parametrize("n", [1, 2])
def test_in_place_evaluators_keep_their_bits(name, n):
    f = catalog(name, n=n, **({"omega": 7.0} if name == "vertical-wave" else {}))
    previous = PREVIOUS_EVALUATORS[name]
    previous_grad = PREVIOUS_GRADIENTS.get(name)
    rng = np.random.default_rng(53)
    gsq = []
    # at scales 12, 20 and 40, |z|^2 + t^2 reaches exp's subnormal band
    # (708-745) and the lanes past the underflow cut at 746
    for scale in (0.2, 0.6, 2.0, 12.0, 20.0, 40.0):
        pts = rng.normal(scale=scale, size=(40, 6, 2 * n + 1))
        gsq.append((pts**2).sum(axis=-1).ravel())
        # the coordinate-major layout of a sweep tile, read as a strided view
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1)
        for p in (pts, strided):
            got = f.eval(p)
            assert got.shape == p.shape[:-1] and got.flags.owndata
            _assert_same_bits(got, previous(p))
            if previous_grad is not None:
                _assert_same_bits(f.analytic_hgrad(p), previous_grad(p))
        for x in pts[0]:
            got = f.eval(x)
            assert np.shape(got) == ()
            _assert_same_bits(got, previous(x))
            _assert_same_bits(got, f.eval(x[None])[0])
    gsq = np.concatenate(gsq)
    assert np.any((gsq > 708.0) & (gsq < 746.0)) and np.any(gsq > 746.0)
    # non-finite coordinates: every axis in turn holds inf, -inf or NaN
    pts = rng.normal(size=(3, 2 * n + 1, 2 * n + 1))
    for i, bad in enumerate((np.inf, -np.inf, np.nan)):
        pts[i][np.diag_indices(2 * n + 1)] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_same_bits(f.eval(pts), previous(pts))
        if previous_grad is not None:
            _assert_same_bits(f.analytic_hgrad(pts), previous_grad(pts))


@pytest.mark.parametrize("n", [1, 2])
def test_coordinate_is_the_affine_field_with_its_bits(n):
    """coordinate(z_j) is the affine field a = e_j, b = 0, relabelled: on
    finite non-zero points its values and gradients keep the bits of the
    coordinate read and the constant e_j."""
    rng = np.random.default_rng(59)
    for j in range(1, 2 * n + 1):
        f = catalog("coordinate", n=n, axis=j)
        assert f.label == f"coordinate(z{j})"
        e = np.zeros(2 * n)
        e[j - 1] = 1.0
        for scale in (1e-3, 1.0, 1e3):
            pts = rng.normal(scale=scale, size=(40, 6, 2 * n + 1))
            assert np.all(pts != 0.0)
            strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1)
            for p in (pts, strided, pts[0, 0]):
                _assert_same_bits(f.eval(p), p[..., j - 1])
                _assert_same_bits(f.analytic_hgrad(p),
                                  np.broadcast_to(e, p.shape[:-1] + (2 * n,)))


@pytest.mark.parametrize("n", [1, 2])
def test_gaussian_family_gradient_bounds_keep_their_bits(n):
    """The gaussian and the vertical wave share one gradient bound,
    sqrt(2n) r (2 + r^2/4 + |omega|/2) envelope, omega = 0 for the gaussian."""
    r = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 400)])
    envelope = np.exp(-np.minimum(r**4 / 16.0, r**2))
    _assert_same_bits(catalog("gaussian", n=n).grad_decay_bound(r),
                      np.sqrt(2.0 * n) * r * (2.0 + r**2 / 4.0) * envelope)
    for omega in (0.5, 1.0, 7.0, 16.0):
        _assert_same_bits(
            catalog("vertical-wave", n=n, omega=omega).grad_decay_bound(r),
            np.sqrt(2.0 * n) * r * (2.0 + r**2 / 4.0 + omega / 2.0) * envelope)


def test_exp_is_zero_past_the_gaussian_cut():
    """_gauss writes +0.0 for |z|^2 + t^2 > _EXP_ZERO without calling exp;
    numpy's exp gives the same bits there."""
    g = np.concatenate([np.linspace(_EXP_ZERO, 5000.0, 1_000_001),
                        np.geomspace(5000.0, 1e308, 1000), [np.inf]])
    e = np.exp(-g)
    assert not e.any() and not np.signbit(e).any()


def test_bump_support():
    f = catalog("bump")
    rng = np.random.default_rng(23)
    pts = random_points(rng, 500, z_extent=2.0, t_extent=2.0)
    r = gauge(pts)
    vals = f.eval(pts)
    assert np.all(vals[r >= 1.0] == 0.0)
    inside = (r < 0.95) & (r > 0.0)
    assert np.all(vals[inside] > 0.0)
    assert np.all(f.analytic_hgrad(pts[r >= 1.0]) == 0.0)


@pytest.mark.parametrize("name,params", [
    ("gaussian", {}),
    ("vertical-wave", {"omega": 4.0}),
    ("bump", {}),
    ("vertical-wave", {"omega": -4.0}),  # the bound reads |omega|
])
def test_decay_certificates_hold(name, params):
    f = catalog(name, **params)
    rng = np.random.default_rng(24)
    pts = random_points(rng, 2000, z_extent=4.0, t_extent=9.0)
    r = gauge(pts)
    keep = r >= f.support_radius
    assert keep.sum() > 500
    pts, r = pts[keep], r[keep]
    assert np.all(np.abs(f.eval(pts)) <= f.decay_bound(r) * (1 + 1e-12))
    gnorm = np.linalg.norm(f.analytic_hgrad(pts), axis=-1)
    assert np.all(gnorm <= f.grad_decay_bound(r) * (1 + 1e-12))


def test_decay_bounds_integrable():
    # bounds must decay fast enough for L^1 tail sums downstream
    f = catalog("gaussian")
    rs = np.geomspace(1.0, 50.0, 40)
    vals = f.decay_bound(rs) * rs**4
    assert vals[-1] < 1e-12


def test_precompose_dilation_exact():
    f = catalog("gaussian")
    s = 2.0
    fs = precompose_dilation(f, s)
    rng = np.random.default_rng(26)
    pts = random_points(rng, 50)
    assert np.array_equal(fs.eval(pts), f.eval(dilate(s, pts)))
    assert np.array_equal(fs.analytic_hgrad(pts), s * f.analytic_hgrad(dilate(s, pts)))
    assert fs.support_radius == pytest.approx(0.5)
    # dilated decay certificate still valid
    r = gauge(pts)
    keep = r >= fs.support_radius
    assert np.all(np.abs(fs.eval(pts[keep])) <= fs.decay_bound(r[keep]) * (1 + 1e-12))
    assert precompose_dilation(f, 1.0) is f
    with pytest.raises(ValueError):
        precompose_dilation(f, -2.0)


@pytest.mark.parametrize("name", ["gaussian", "vertical-wave", "affine"])
def test_remapped_fields_follow_the_closed_forms(name):
    """Dilation maps the points, the gradient times s, the support radius
    and both decay certificates, at n = 1 and n = 2."""
    s = 2.0
    rs = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    for n in (1, 2):
        f = catalog(name, n=n)
        pts = random_points(np.random.default_rng(27), 30, n=n)
        fs = precompose_dilation(f, s)
        assert np.array_equal(fs.eval(pts), f.eval(dilate(s, pts)))
        assert np.array_equal(fs.analytic_hgrad(pts), s * f.analytic_hgrad(dilate(s, pts)))
        if f.support_radius is None:
            assert fs.support_radius is fs.decay_bound is fs.grad_decay_bound is None
            continue
        assert fs.support_radius == f.support_radius / s
        for r in (rs, 1.5):
            assert np.array_equal(fs.decay_bound(r), f.decay_bound(s * np.asarray(r)))
            assert np.array_equal(
                fs.grad_decay_bound(r), s * f.grad_decay_bound(s * np.asarray(r))
            )


def test_affine_field_values():
    f = catalog("affine", n=2, a=[1.0, 2.0, 3.0, 4.0], b=-1.0)
    p = np.array([1.0, 1.0, 1.0, 1.0, 99.0])
    assert f.eval(p) == pytest.approx(9.0)
    assert np.array_equal(f.analytic_hgrad(p), [1.0, 2.0, 3.0, 4.0])


def test_default_parameters():
    w = catalog("vertical-wave")
    assert "omega=1" in w.label
    c = catalog("coordinate")
    p = np.array([3.0, 5.0, 7.0])
    assert c.eval(p) == 3.0


SIGN_CASES = [
    ("gaussian", {}), ("bump", {}), ("vertical-wave", {}), ("coordinate", {}),
    ("coordinate", {"axis": "t"}), ("quadratic", {}), ("quadratic", {"j": 1, "k": 2}),
    ("affine", {}), ("affine", {"b": 0.0}),
]


@pytest.mark.parametrize("name, params", SIGN_CASES)
@pytest.mark.parametrize("n", [1, 2])
def test_sign_certificate_holds_exactly_where_it_is_set(name, params, n):
    """f(sigma y) = c_sigma f(y) bit for bit, one sign per sign automorphism
    sigma, on random points exactly for the fields that certify it; affine
    maps with a != 0 fail it.  Dilation keeps the certificate."""
    f = catalog(name, n=n, **params)
    rng = np.random.default_rng(73)
    y = random_points(rng, 64, n, z_extent=0.3, t_extent=0.2)  # inside the bump
    fy = f.eval(y)
    assert np.all(fy != 0.0)
    holds = all(
        np.array_equal(f.eval(y * sigma), fy) or np.array_equal(f.eval(y * sigma), -fy)
        for sigma in sign_automorphisms(n)
    )
    assert holds == f.sign_symmetric == (name != "affine")
    assert precompose_dilation(f, 2.0).sign_symmetric == f.sign_symmetric
