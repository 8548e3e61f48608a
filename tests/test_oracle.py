"""The gaussian's exact p = 2 references (gaussian_oracle) against brute
force: its autocorrelation against tensor quadrature, the per-radius
Dorronsoro identity against the sweep's own betas integrated over a
Cartesian mesh, and the Poincare t-grid sum against its recorded value."""

import math

import numpy as np
import pytest

from heisbeta.beta import scale_sweep
from heisbeta.fields import catalog
from heisbeta.hgroup import group_mul
from heisbeta.quad import QuadSpec, ball_template
from heisbeta.verify import HarnessConfig, dorronsoro_ratio

from gaussian_oracle import autocorrelation, beta_sq_integral, dorronsoro_lhs, poincare_lhs


def _mesh(dim, h, extent):
    """Points of the uniform mesh h Z^dim in the cube of half-width extent."""
    axis = np.arange(-extent, extent + h / 2, h)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


# the trapezoid rule on a uniform mesh converges faster than any power for
# these entire, gaussian-decaying integrands; h = 0.3 (n = 1) and 0.5
# (n = 2, 2.5M points) leave about 2e-15 and 1e-8
@pytest.mark.parametrize("n, g, h, extent, tol", [
    (1, [0.7, -1.1, 0.4], 0.3, 5.1, 1e-13),
    (1, [2.0, 1.5, -1.0], 0.3, 5.1, 1e-13),
    (1, [0.0, 0.0, 0.0], 0.3, 5.1, 1e-13),
    (2, [1.5, -1.0, 0.5, 1.2, 0.9], 0.5, 4.5, 1e-7),
], ids=["n1-near", "n1-far", "n1-origin", "n2"])
def test_autocorrelation_matches_brute_force_quadrature(n, g, h, extent, tol):
    f = catalog("gaussian", n=n)
    g = np.array(g)
    rest = _mesh(2 * n, h, extent)
    total = 0.0
    for first in np.arange(-extent, extent + h / 2, h):  # one slab at a time
        y = np.concatenate([np.full((len(rest), 1), first), rest], axis=-1)
        total += np.sum(f.eval(y) * f.eval(group_mul(y, g)))
    assert total * h ** (2 * n + 1) == pytest.approx(float(autocorrelation(g, n)), rel=tol)


def test_per_radius_dorronsoro_identity_matches_the_sweep_betas():
    """int beta_{f,1,2}(B(x, r))^2 dx from the sweep's betas on a mesh of
    centers (h = 0.4 out to 6.4: 35,937 centers) equals the oracle's pair
    mean on the same 512-sample template."""
    f = catalog("gaussian")
    tpl = ball_template(1, QuadSpec(samples=512, seed=42))
    rs = np.array([0.3, 1.0, 3.0])
    h = 0.4
    betas = scale_sweep(f, _mesh(3, h, 6.4), rs, 1, 2.0, tpl, want_se=False,
                        amax=False)["beta"]
    got = np.sum(betas**2, axis=0) * h**3
    want = [beta_sq_integral(tpl, r) for r in rs]
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("n, want", [(1, 2.21252), (2, 2.77299)])
def test_poincare_t_grid_closed_form(n, want):
    lhs = poincare_lhs(n, HarnessConfig(n=n).t_grid)
    assert lhs == pytest.approx(want, abs=5e-6)
    # the default window loses 0.4 % against the continuum pi / sqrt(2) at n = 1
    if n == 1:
        assert 0.99 < lhs / (math.pi / math.sqrt(2.0)) < 1.0


@pytest.mark.xfail(strict=True, reason="the norm domain's 32 directions bias the "
                   "lhs (+6.8 % at seed 42) far past its reported truncation")
def test_dorronsoro_lhs_within_its_truncation_of_the_reference():
    """At the benchmark's dorronsoro arguments (p = q = 2, 512 samples,
    8 radii per decade, box radius 16) the harness's lhs should lie within
    its reported lhs truncation of the exact lhs on the same template and
    scale grid."""
    config = HarnessConfig(p=2.0, q=2.0, box_radius=16.0, per_decade=8,
                           spec=QuadSpec(samples=512, seed=42))
    rep = dorronsoro_ratio(catalog("gaussian"), config)
    want = dorronsoro_lhs(ball_template(1, config.sweep_spec), config.scale_grid)
    assert abs(rep.lhs - want) <= rep.truncation[0]
