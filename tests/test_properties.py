"""Property tests for the invariants the ball sweep rests on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heisbeta.beta import twist_nodes
from heisbeta.hgroup import dilate, group_mul


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3),
       nr=st.integers(1, 4), m=st.integers(1, 6))
def test_twist_nodes_equal_group_law(data, n, k, nr, m):
    dim = 2 * n + 1
    finite = dict(allow_nan=False, allow_infinity=False)
    x = data.draw(hnp.arrays(float, (k, dim), elements=st.floats(-50, 50, **finite)))
    u = data.draw(hnp.arrays(float, (m, dim), elements=st.floats(-1, 1, **finite)))
    rs = data.draw(hnp.arrays(float, (nr,), elements=st.floats(1e-3, 1e2, **finite)))
    got = np.moveaxis(twist_nodes(x, rs, u, np.empty((dim, k, nr, m))), 0, -1)
    want = group_mul(x[:, None, None, :], dilate(rs[:, None], u[None])[None])
    # horizontal coordinates are the same sums; the vertical one regroups
    # the twist, so it agrees to rounding of its largest term
    assert np.array_equal(got[..., :-1], want[..., :-1])
    r = rs[None, :, None]
    xs = np.abs(x)
    scale = xs[:, None, None, -1] + r * r + r * xs[:, None, None, :-1].sum(-1)
    assert np.all(np.abs(got[..., -1] - want[..., -1]) <= 1e-14 * scale)
