"""Shared test helpers: seeded point clouds, committed fixtures, a strict
JSON reader for CLI output and a record of the square functions' sweeps."""

import json
import pathlib

import numpy as np
import pytest

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures.json"


@pytest.fixture(scope="session")
def fixtures():
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture
def swept_degrees(monkeypatch):
    """(d, want_se) of every scale_sweep the square functions run."""
    from heisbeta import beta, squarefn

    calls = []

    def spy(f, centers, rs, d, *args, **kwargs):
        calls.append((d, kwargs.get("want_se", True)))
        return beta.scale_sweep(f, centers, rs, d, *args, **kwargs)

    monkeypatch.setattr(squarefn, "scale_sweep", spy)
    return calls


def random_points(rng, count, n=1, z_extent=2.0, t_extent=4.0):
    """Seeded points in a centered coordinate box, shape (count, 2n+1)."""
    dim = 2 * n + 1
    pts = np.empty((count, dim))
    pts[:, :-1] = rng.uniform(-z_extent, z_extent, size=(count, dim - 1))
    pts[:, -1] = rng.uniform(-t_extent, t_extent, size=count)
    return pts


def rel_err(a, b):
    denom = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.where(denom > 0, denom, 1.0)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens, which
    are not JSON; the CLI writes non-finite numbers as strings."""
    return json.loads(text, parse_constant=_reject_constant)
