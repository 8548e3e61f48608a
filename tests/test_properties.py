"""Property tests for the invariants the ball sweep and the CLI rest on."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heisbeta.cli import _SUITES, RunConfig, _echo_lines, parse_config
from heisbeta.fields import catalog
from heisbeta.hgroup import dilate, group_mul
from heisbeta.quad import BallTemplate, ball_values, radius_products, twist_nodes


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3),
       nr=st.integers(1, 4), m=st.integers(1, 6))
def test_twist_nodes_equal_group_law(data, n, k, nr, m):
    dim = 2 * n + 1
    finite = dict(allow_nan=False, allow_infinity=False)
    x = data.draw(hnp.arrays(float, (k, dim), elements=st.floats(-50, 50, **finite)))
    u = data.draw(hnp.arrays(float, (m, dim), elements=st.floats(-1, 1, **finite)))
    rs = data.draw(hnp.arrays(float, (nr,), elements=st.floats(1e-3, 1e2, **finite)))
    per_tile = twist_nodes(x, rs, u, np.empty((dim, k, nr, m)))
    # the products a sweep forms once for every center block: the same bits
    shared = twist_nodes(x, rs, u, np.empty((dim, k, nr, m)), ru=radius_products(rs, u))
    assert np.array_equal(shared, per_tile)
    got = np.moveaxis(per_tile, 0, -1)
    want = group_mul(x[:, None, None, :], dilate(rs[:, None], u[None])[None])
    # horizontal coordinates are the same sums; the vertical one regroups
    # the twist, so it agrees to rounding of its largest term
    assert np.array_equal(got[..., :-1], want[..., :-1])
    r = rs[None, :, None]
    xs = np.abs(x)
    scale = xs[:, None, None, -1] + r * r + r * xs[:, None, None, :-1].sum(-1)
    assert np.all(np.abs(got[..., -1] - want[..., -1]) <= 1e-14 * scale)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 2), k=st.integers(1, 3),
       nr=st.integers(1, 4), m=st.integers(1, 6), per_center=st.booleans())
def test_ball_values_equal_field_at_group_law_nodes(data, n, k, nr, m, per_center):
    dim = 2 * n + 1
    finite = dict(allow_nan=False, allow_infinity=False)
    x = data.draw(hnp.arrays(float, (k, dim), elements=st.floats(-3, 3, **finite)))
    u = data.draw(hnp.arrays(float, (m, dim), elements=st.floats(-1, 1, **finite)))
    shape = (k, nr) if per_center else (nr,)
    rs = data.draw(hnp.arrays(float, shape, elements=st.floats(1e-3, 3.0, **finite)))
    tpl = BallTemplate(nodes=u, units=m, orbit=1, m2=(u[:, :-1] ** 2).mean(axis=0))
    f = catalog("gaussian", n=n)
    got = ball_values(f, x, rs, tpl)
    r = rs[..., None] if per_center else rs[None, :, None]
    want = f.eval(group_mul(x[:, None, None, :], dilate(r, u)))
    assert got.shape == (k, nr, m)
    # the nodes agree to 1e-14 of their largest term (above), at most about
    # 40 here, and the gaussian's slope is below 1
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def _field(n):
    """A catalog field name with parameters, some of them vectors."""
    value = st.floats(-1e6, 1e6, allow_nan=False)
    return st.one_of(
        st.just(("gaussian", {})),
        st.builds(lambda a, b: ("affine", {"a": tuple(a), "b": b}),
                  st.lists(value, min_size=2 * n, max_size=2 * n), value),
        st.builds(lambda omega: ("vertical-wave", {"omega": omega}),
                  value | st.integers(-100, 100)),
        st.builds(lambda axis: ("coordinate", {"axis": axis}),
                  st.integers(1, 2 * n) | st.just("t")),
    )


@st.composite
def run_configs(draw):
    """A RunConfig every suite accepts: p in (1, 2] and q below the
    exponent window's lowest edge, Q / (Q - 1) at n = 2; at n = 2 no grid
    count (2, 4 or 5) whose mesh or half-resolution twin keeps no ball
    node; and no grid count 2 or 3, whose twin is the origin alone, for a
    suite that fits slopes with error estimates."""
    n = draw(st.integers(1, 2))
    field, params = draw(_field(n))
    suite = draw(st.sampled_from(_SUITES))
    alpha = draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    mode = draw(st.sampled_from(["grid", "montecarlo"]))
    slopes = mode == "grid" and (
        suite in ("beta", "dorronsoro") or suite == "squarefn" and alpha >= 1.0)
    return RunConfig(
        suite=suite,
        n=n,
        field=field,
        field_params=params,
        p=draw(st.floats(1.0, 2.0, exclude_min=True)),
        q=draw(st.floats(1.0, 1.15)),
        alpha=alpha,
        r_min=draw(st.floats(1e-6, 1.0)),
        r_max=draw(st.floats(2.0, 1e6)),
        per_decade=draw(st.integers(1, 64)),
        t_min=draw(st.floats(1e-6, 1.0)),
        t_max=draw(st.floats(2.0, 1e6)),
        t_per_decade=draw(st.integers(1, 64)),
        box_radius=draw(st.floats(0.011, 1e3)),
        mode=mode,
        samples=draw(st.integers(1, 10**6)),
        grid_per_axis=draw(
            st.integers(4 if slopes else 2, 20).filter(
                lambda p: n == 1 or p not in (2, 4, 5))
        ),
        seed=draw(st.integers(0, 2**32)),
        workers=draw(st.integers(1, 8)),
        out=draw(st.sampled_from([None, "run.csv"])),
        format=draw(st.sampled_from(["csv", "json"])),
        timestamp=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(config=run_configs())
def test_config_echo_round_trips(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "echo.conf"
        path.write_text("\n".join(_echo_lines(config)) + "\n")
        parsed = parse_config(["--config", str(path)])
    unechoed = dict(workers=1, out=None, timestamp=True)
    assert replace(parsed, **unechoed) == replace(config, **unechoed)
