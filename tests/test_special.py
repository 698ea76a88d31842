"""The numpy special functions against scipy.special, and a scipy-free import."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sp

from hawkeskit._util import logsumexp, ndtr, ndtri


def test_ndtr_matches_scipy_on_its_working_range():
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-37.0, 9.0, 200_001), rng.uniform(-37.0, 9.0, 100_000)])
    got, want = ndtr(x), sp.ndtr(x)
    assert np.max(np.abs(got - want)) <= 4e-16
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_ndtr_edges_and_shapes():
    # exp(-x*x/2) is subnormal at -37.8; like scipy, ndtr flushes it to 0
    edges = np.array([-np.inf, np.inf, 0.0, -37.8, -40.0, 40.0])
    assert ndtr(edges).tolist() == sp.ndtr(edges).tolist() == [0.0, 1.0, 0.5, 0.0, 0.0, 1.0]
    assert np.isnan(ndtr(np.array([np.nan]))).all()
    x = np.array([[0.1, -2.0], [9.0, -1.2]])
    assert ndtr(x).shape == (2, 2)
    assert np.allclose(ndtr(x), sp.ndtr(x), rtol=1e-15, atol=0.0)
    assert float(ndtr(0.3)) == pytest.approx(float(sp.ndtr(0.3)), rel=1e-15)


def test_ndtri_matches_scipy_and_inverts_ndtr():
    rng = np.random.default_rng(1)
    tail = np.logspace(-12.0, np.log10(0.5), 100_000)
    p = np.concatenate([tail, 1.0 - tail, rng.uniform(1e-12, 1.0 - 1e-12, 100_000)])
    got, want = ndtri(p), sp.ndtri(p)
    nonzero = want != 0.0
    assert np.array_equal(got[~nonzero], want[~nonzero])
    assert np.max(np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])) <= 1e-14
    x = np.linspace(-6.0, 6.0, 1001)
    assert np.allclose(ndtri(ndtr(x)), x, rtol=0.0, atol=1e-8)


def _around(values):
    """Each value with its two float neighbours."""
    v = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def test_ndtri_matches_scipy_at_its_band_boundaries():
    r5 = math.exp(-25.0)  # r = sqrt(-log p) = 5 splits the near and far tails
    p = np.concatenate([
        _around([0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425]),  # |q| = 0.425
        _around([r5, 1.0 - r5]),
        _around([0.5]),
        [5e-324, 1e-300],
    ])
    got, want = ndtri(p), sp.ndtri(p)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    nonzero = want != 0.0
    assert np.array_equal(got[~nonzero], want[~nonzero])
    assert np.max(np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])) <= 1e-14
    assert ndtri(p[:12].reshape(3, 4)).shape == (3, 4)
    assert ndtri(0.3).shape == ()


def test_ndtri_edges():
    got = ndtri(np.array([0.0, 1.0, 0.5, -0.0, -0.1, 1.1, np.nan, -np.inf, np.inf]))
    assert got[:4].tolist() == [-np.inf, np.inf, 0.0, -np.inf]
    assert np.isnan(got[4:]).all()


def test_logsumexp_matches_scipy_with_minus_inf_rows():
    rng = np.random.default_rng(2)
    a = rng.normal(scale=30.0, size=(40, 5))
    a[3] = -np.inf
    a[7, 2] = -np.inf
    a[11] = [800.0, 799.0, -800.0, 0.0, 1.0]  # exp overflows without the shift
    for axis in (None, 0, 1):
        got, want = logsumexp(a, axis=axis), sp.logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.allclose(np.asarray(got)[finite], np.asarray(want)[finite], rtol=1e-14, atol=0.0)
    assert logsumexp(a, axis=1)[3] == -np.inf
    assert logsumexp(np.array([1.0, np.inf])) == np.inf


@pytest.mark.parametrize("module", ["hawkeskit", "hawkeskit.cli"])
def test_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}; "
        "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == ""
