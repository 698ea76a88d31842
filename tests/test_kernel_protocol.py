"""The kernel protocol: every kernel family answers the same members.

Each kernel is a sum of ``n_components`` fixed components.  These tests pin
each member against its definition: ``mass`` is the integral of
``density`` (and ``mass(lag, start)`` its integral from ``start``),
``mass(inf)`` gives the totals behind ``branching_matrix``, the finite
kernels' ``pair_terms`` scatter to ``density`` and to the mass beyond each
lag (for the grid kernel this checks its bin lookup against its own
indicator basis), every kernel's ``thinning`` closures of time over a
history give the array bound and ``density`` contraction in plain floats
(an event at the query time counts in the bound alone), and ``quantile``
samples a component's mass on ``[0, upper]``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hawkeskit.core import (
    DiscretizedKernel,
    EventSequence,
    ExponentialKernel,
    GaussianBasisKernel,
    HawkesModel,
    UnsupportedKernelError,
    ValidationError,
    branching_matrix,
    compensator,
    kernel_lag_averages,
)
from hawkeskit.data import Corpus
from hawkeskit.learn import fit_mle

KERNELS = {
    "exp": ExponentialKernel(decay=1.3),
    "basis": GaussianBasisKernel(centers=np.array([0.0, 0.8, 2.5]), bandwidth=0.6, support=3.5),
    "grid": DiscretizedKernel(dt=0.5, n_lags=6),
}
IDS = list(KERNELS)


def _kernel(name):
    return KERNELS[name]


def _breakpoints(kern, lag):
    # densities jump at the support and the grid's at every bin edge too;
    # quad needs to know where
    if math.isinf(kern.support):
        return None
    step = getattr(kern, "dt", kern.support)
    edges = np.arange(step, kern.support + step / 2, step)
    return [float(e) for e in edges if e < lag] or None


def _coeffs(kern, D=3, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 0.2, size=(kern.n_components, D, D))


def _lags(kern, n=400, seed=1):
    top = 8.0 if math.isinf(kern.support) else 1.3 * kern.support
    lags = np.random.default_rng(seed).uniform(0.0, top, n)
    # plus the exact lags where a kernel switches: bin edges and the support
    step = getattr(kern, "dt", kern.support)
    edges = [] if math.isinf(step) else np.arange(0.0, kern.support + step / 2, step)
    return np.concatenate([[0.0], edges, lags])


@pytest.mark.parametrize("name", IDS)
def test_shapes_and_support(name):
    kern = _kernel(name)
    lags = _lags(kern).reshape(-1, 1)
    C = kern.n_components
    assert kern.density(lags).shape == (C,) + lags.shape
    assert kern.mass(lags).shape == (C,) + lags.shape
    if name == "exp":
        assert C == 1 and kern.support == math.inf
    else:
        assert np.all(kern.density(np.array([kern.support, 2 * kern.support])) == 0.0)


@pytest.mark.parametrize("name", IDS)
def test_mass_is_the_integral_of_density(name):
    kern = _kernel(name)
    for lag in (0.3, 1.1, 2.75, 3.2, 6.0):
        got = kern.mass(np.array(lag))
        for c in range(kern.n_components):
            ref, _ = quad(
                lambda x: float(kern.density(np.array(x))[c]), 0.0, lag,
                points=_breakpoints(kern, lag), limit=200, epsabs=1e-13,
            )
            assert got[c] == pytest.approx(ref, abs=1e-9), (lag, c)


@pytest.mark.parametrize("name", IDS)
def test_mass_at_infinity_gives_the_branching_totals(name):
    kern = _kernel(name)
    totals = kern.mass(np.inf)
    expected = {"exp": [1.0], "basis": [1.0, 1.0, 1.0], "grid": [0.5] * 6}[name]
    np.testing.assert_allclose(totals, expected, rtol=1e-15)
    coeffs = _coeffs(kern, D=2)
    A = coeffs[0] if name == "exp" else coeffs
    model = HawkesModel(mu=np.array([0.1, 0.2]), kernel=kern, A=A)
    np.testing.assert_allclose(
        branching_matrix(model), np.einsum("c,cvu->vu", totals, coeffs), rtol=1e-14
    )


@pytest.mark.parametrize("name", ["basis", "grid", "grid-edge"])
def test_pair_terms_scatter_to_density_and_tail_mass(name):
    # dt = 0.7, L = 10: the last lag lies below the support 7.0, but its
    # ratio to dt rounds to 10.0, past the last bin
    kern = DiscretizedKernel(dt=0.7, n_lags=10) if name == "grid-edge" else _kernel(name)
    lags = np.append(_lags(kern), 6.999999999999999)
    for tail, want in ((False, kern.density(lags)),
                       (True, kern.mass(np.inf)[:, None] - kern.mass(lags))):
        comp, vals = kern.pair_terms(lags, tail)
        comp, cols = np.broadcast_arrays(comp, np.arange(lags.size))
        assert comp.shape == vals.shape
        dense = np.zeros((kern.n_components, lags.size))
        np.add.at(dense, (comp, cols), vals)
        np.testing.assert_array_equal(dense, want)


def _sup_table(kern, coeffs):
    # per lag and source, the most each component can excite from that lag on,
    # summed over components and targets: for the grid the suffix max over
    # bins, for a basis its peak before the center and its density after, for
    # the exponential its (decreasing) density
    if isinstance(kern, DiscretizedKernel):
        suf = np.maximum.accumulate(coeffs[::-1], axis=0)[::-1].sum(axis=2)  # (L, D)
        return lambda x: suf[np.minimum((x / kern.dt).astype(np.int64), kern.n_lags - 1)] * (
            x < kern.support)[:, None]
    if isinstance(kern, ExponentialKernel):
        sup = kern.density
    else:
        peak = kern.density(kern.centers).diagonal()
        sup = lambda x: np.where(x <= kern.centers[:, None], peak[:, None], kern.density(x))
    return lambda x: np.einsum("cw,cv->wv", sup(x), coeffs.sum(axis=2))


@pytest.mark.parametrize("name", ["exp", "basis", "grid", "grid-edge"])
def test_thinning_members_match_the_array_formulas(name):
    kern = DiscretizedKernel(dt=0.7, n_lags=10) if name == "grid-edge" else _kernel(name)
    D = 3
    coeffs = _coeffs(kern, D)
    rng = np.random.default_rng(5)
    top = 8.0 if math.isinf(kern.support) else kern.support
    step = getattr(kern, "dt", top / 4)
    edges = np.arange(0.0, top + step / 2, step)  # 0, bin edges, support
    lags = np.concatenate([edges, [np.nextafter(top, 0.0)], rng.uniform(0.0, 1.2 * top, 6)])
    marks = rng.integers(0, D, lags.size)
    table = _sup_table(kern, coeffs)
    # the exponential state sums its events in time order, not as one dot product
    rtol = 1e-14 if name == "exp" else 1e-15
    t0 = 0.0  # so the lags t0 - ts are exactly the lags above
    for w in (0, 5, lags.size):  # empty, shorter and longer than 8 events
        order = np.argsort(-lags[:w], kind="stable")  # the history in time order
        x, m = lags[:w][order], marks[:w][order]
        bound, excite = kern.thinning(coeffs, (t0 - x).tolist(), m.tolist())
        got_b, got_e = bound(t0), excite(t0)
        assert type(got_b) is float and len(got_e) == D
        past = x > 0.0  # the event at lag 0 counts in the bound, not in the excitation
        want_e = kern.density(x[past]).reshape(-1) @ coeffs[:, m[past], :].reshape(-1, D)
        want_b = float(table(x)[np.arange(w), m].sum())
        if w == 0:
            assert got_b == 0.0 and got_e == [0.0] * D
        np.testing.assert_allclose(got_b, want_b, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(got_e, want_e, rtol=rtol, atol=0.0)
        # it bounds the excitation at every later time
        for ahead in np.linspace(0.0, top, 41):
            assert sum(excite(t0 + ahead)) <= got_b * (1 + 1e-15)
    # an event tied with t: its full weight in the bound, nothing in the excitation
    bound, excite = kern.thinning(coeffs, [t0], [1])
    np.testing.assert_allclose(bound(t0), table(np.zeros(1))[0, 1], rtol=1e-15, atol=0.0)
    assert bound(t0) > 0.0 and excite(t0) == [0.0] * D


@pytest.mark.parametrize("name", IDS)
def test_mass_from_a_start(name):
    kern = _kernel(name)
    lags = _lags(kern)
    rng = np.random.default_rng(3)
    start = lags * rng.uniform(0.0, 1.0, lags.size)
    start[:5] = lags[:5]  # empty windows
    np.testing.assert_allclose(
        kern.mass(lags, start), kern.mass(lags) - kern.mass(start), rtol=1e-12, atol=1e-15
    )
    assert np.all(kern.mass(lags[:5], start[:5]) == 0.0)
    # a zero start is the mass from zero, to the bit
    assert np.array_equal(kern.mass(lags, 0.0), kern.mass(lags))


def test_exponential_windows_far_into_the_decay_keep_relative_precision():
    # one-bin windows [k, k+1] up to lag * decay = 38, where 1 - mass is
    # below the spacing of doubles near 1
    decay, dt, L = 1.0, 1.0, 39
    model = HawkesModel(mu=np.array([0.0]), kernel=ExponentialKernel(decay), A=np.array([[0.5]]))
    k = np.arange(L)
    want = 0.5 * np.exp(-decay * k * dt) * -np.expm1(-decay * dt) / dt
    avg = kernel_lag_averages(model, dt, L)[:, 0, 0]
    np.testing.assert_allclose(avg, want, rtol=1e-12, atol=0.0)
    seq = EventSequence(np.array([0.0]), np.array([0]), 0.0, 100.0, 1, "s")
    comp = [compensator(model, seq, 0, float(a), float(a + dt)) for a in k]
    np.testing.assert_allclose(comp, want * dt, rtol=1e-12, atol=0.0)


def test_grid_lag_averages_on_its_own_grid_are_its_step_values():
    # each bin's mass is a whole bin of one component and none of the others,
    # so the averages are the coefficients themselves; the edges k * dt are
    # exact here, as they are for the demo's dt = 0.25
    kern = KERNELS["grid"]
    coeffs = _coeffs(kern, D=2)
    model = HawkesModel(mu=np.array([0.1, 0.2]), kernel=kern, A=coeffs)
    assert np.array_equal(kernel_lag_averages(model, kern.dt, kern.n_lags), coeffs)


@pytest.mark.parametrize("name", IDS)
def test_quantile_samples_the_truncated_component(name):
    kern = _kernel(name)
    n = 4000
    uppers = [0.7, np.inf] if name == "exp" else [0.6 * kern.support, np.inf]
    rng = np.random.default_rng(3)
    for upper in uppers:
        total = kern.mass(np.array(upper))
        for c in range(kern.n_components):
            if total[c] <= 0.0:
                continue  # a grid bin that starts past upper has nothing to draw
            x = kern.quantile(np.full(n, c), rng.random(n), np.full(n, upper))
            assert np.all((x >= 0.0) & (x <= upper)), (upper, c)
            cdf = np.sort(kern.mass(x)[c] / total[c])
            grid = np.arange(1, n + 1) / n
            ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
            assert ks < 1.63 / math.sqrt(n), (upper, c, ks)  # 1% level


def test_coeffs_is_a_read_only_component_view():
    exp = HawkesModel(np.array([0.1, 0.2]), KERNELS["exp"], np.array([[0.1, 0.2], [0.3, 0.1]]))
    assert exp.coeffs.shape == (1, 2, 2) and np.shares_memory(exp.coeffs, exp.A)
    assert not exp.coeffs.flags.writeable
    grid = HawkesModel(np.array([0.1]), KERNELS["grid"], np.full((6, 1, 1), 0.1))
    assert grid.coeffs.shape == (6, 1, 1)


def test_unknown_kernel_is_a_named_error():
    with pytest.raises(UnsupportedKernelError) as info:
        HawkesModel(np.array([0.1]), kernel=object(), A=np.zeros((1, 1)))
    assert isinstance(info.value, ValidationError)  # the CLI maps it to exit 2
    seq = EventSequence(np.array([1.0, 2.0]), np.array([0, 0]), 0.0, 3.0, 1)
    with pytest.raises(UnsupportedKernelError):
        fit_mle(Corpus((seq,), 1), object())
