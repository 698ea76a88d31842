"""Core types and numerics for multivariate Hawkes processes.

A model is a baseline rate vector ``mu`` plus an impact kernel ``phi_vu(t)``
giving the added intensity on dimension ``u`` at lag ``t`` after an event of
dimension ``v``.  The conditional intensity used throughout is

    lambda_u(t) = mu[u] + sum_{t_i < t} phi_{m_i, u}(t - t_i)

with strictly-past history (left limit at event times).  Three kernel
families are supported: exponential decay, truncated Gaussian basis
expansions, and step functions on a fixed lag grid.

Each kernel is a sum of ``C = n_components`` fixed components, weighted by
the model's coefficients ``coeffs[c, v, u]``.  At lags >= 0 it provides the
per-component ``density(lags)`` and ``mass(lags, start=0)`` (integral over
``[start, lag]``; ``mass(inf)`` is the total), each of shape ``(C,) +
lags.shape``; its ``support`` (``inf`` for the exponential kernel);
``quantile(comp, u01, upper)`` for the branch sampler; ``thinning(coeffs,
ts, ms)``, the Ogata loop's ``(scan, fresh)`` over its history lists
(``scan(t)`` returns, from one pass over the window, each target's excitation
from the strict past and a bound on the excitation ahead of t; ``fresh[m]``
is a new mark-m event's bound term); and, for finite support,
``pair_terms(lags, tail=False)``, each lag's nonzero components as
(component, value) terms (one grid bin, every basis).
Every primitive below uses only these.  The sum over past events has one
builder, ``_excitation``, the one place that decides its layout, features
(q, C·D) with column c·D + v, and how to build them: the exponential
kernel's O(n·D) recursion (``exp_weighted_excitation``, which scatters each
event's weight into its own mark's column and takes one cumulative sum per
feature over blocks of up to 600 e-folds), else pair terms within the
support, scattered by one bincount.  Its ``tail`` mode sums the mass still
ahead in place of the density.  Intensity grids, every event intensity and
compensator and every EM statistic read it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from ._util import ndtr, ndtri


class HawkesError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(HawkesError):
    """Invalid input: bad shapes, dimension mismatches, broken invariants."""


class UnsupportedKernelError(ValidationError):
    """Operation requires a kernel representation it was not given."""


class StabilityWarning(UserWarning):
    """Spectral radius of the branching matrix is >= 1 (non-stationary)."""


NEG_INF = float("-inf")


def _check_int(name: str, value, lo: int) -> None:
    """Raise ValidationError unless ``value`` is an integer >= ``lo``.

    Python and numpy integers pass; bools and floats, even integral ones, do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValidationError(f"{name} must be an integer >= {lo}, got {value!r}")


def _is_real(x) -> bool:
    """True for an int or float, Python or numpy, that is not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _leaves(x) -> list:
    """The entries of ``x``, flattened through nested lists and tuples."""
    return [y for z in x for y in _leaves(z)] if isinstance(x, (list, tuple)) else [x]


def _check_real(name: str, value, lo: float = -math.inf, *, above: bool = False,
                hi: float = math.inf):
    """Raise ValidationError unless ``value`` is finite, real and in range.

    The range is ``lo <= value <= hi``, or ``lo < value <= hi`` with
    ``above``.  A Python or numpy scalar is checked in plain floats and
    returned as given; an ndarray of integer or float dtype, or nested lists
    and tuples of reals, is checked entry by entry and returned as float64.
    Bools, strings and other non-reals are refused, as ``_check_int``
    refuses them, also as list entries, which numpy would coerce.
    """
    if _is_real(value):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (lo < x if above else lo <= x) and x <= hi:
            return value
        got = repr(value)
    else:
        if isinstance(value, (list, tuple)):
            for x in _leaves(value):
                if not _is_real(x):  # raises for a bool, a string or a bool array
                    _check_real(name, x, lo, above=above, hi=hi)
            value = np.asarray(value)
        if not isinstance(value, np.ndarray):
            got = f"{type(value).__name__} {value!r}"
        elif value.dtype.kind not in "iuf":
            got = f"an array of {value.dtype}"
        else:
            arr = value.astype(np.float64, copy=False)
            ok = np.isfinite(arr)
            if lo > -math.inf:
                ok &= arr > lo if above else arr >= lo
            if hi < math.inf:
                ok &= arr <= hi
            if ok.all():
                return arr
            at = np.unravel_index(np.argmin(ok), ok.shape)
            got = f"{float(arr[at])!r} at index {at[0] if len(at) == 1 else tuple(map(int, at))}"
    rule = "finite"
    if hi < math.inf:
        rule += f" and in {'(' if above else '['}{lo:g}, {hi:g}]"
    elif lo > -math.inf:
        rule += f" and {'>' if above else '>='} {lo:g}"
    raise ValidationError(f"{name} must be {rule}, got {got}")


@dataclass(frozen=True)
class Event:
    """A single timestamped event with an integer mark (dimension index)."""

    time: float
    mark: int

    def __post_init__(self):
        _check_real("event time", self.time, 0)
        mark = self.mark
        if isinstance(mark, (bool, np.bool_)) or not (
            isinstance(mark, (int, float, np.integer, np.floating)) and float(mark).is_integer()
        ):
            raise ValidationError(f"event mark must be an integer, got {mark!r}")
        if mark < 0:
            raise ValidationError(f"event mark must be >= 0, got {mark}")


@dataclass(frozen=True, eq=False, slots=True)
class EventSequence:
    """An ordered sequence of events on an observation window.

    ``times`` and ``marks`` are parallel arrays sorted nondecreasing in time;
    marks are dimension indices in ``[0, dim)``.  Instances are immutable and
    safe to share across threads; they keep their fields in slots, with no
    per-instance ``__dict__``, since a corpus may hold many short sequences.
    """

    times: np.ndarray
    marks: np.ndarray
    t_start: float
    t_end: float
    dim: int
    id: str = ""

    def __post_init__(self):
        times = np.asarray(_check_real(f"sequence {self.id!r}: times", self.times, 0))
        raw_marks = np.asarray(self.marks)
        if raw_marks.dtype.kind == "b" or (raw_marks.dtype.kind == "f" and not np.all(
            np.isfinite(raw_marks) & (raw_marks == np.round(raw_marks))
        )):
            raise ValidationError(f"sequence {self.id!r}: marks must be integers")
        marks = np.asarray(raw_marks, dtype=np.int64)
        times.setflags(write=False)
        marks.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        if times.ndim != 1 or marks.ndim != 1 or times.shape != marks.shape:
            raise ValidationError("times and marks must be 1-d arrays of equal length")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        _check_real(f"sequence {self.id!r}: t_start", self.t_start)
        _check_real(f"sequence {self.id!r}: t_end", self.t_end)
        if self.t_end < self.t_start:
            raise ValidationError(
                f"t_end ({self.t_end}) must be >= t_start ({self.t_start})"
            )
        if times.size:
            if np.any(np.diff(times) < 0):
                raise ValidationError(f"sequence {self.id!r}: times must be sorted")
            if times[0] < self.t_start or times[-1] > self.t_end:
                raise ValidationError(
                    f"sequence {self.id!r}: events outside window "
                    f"[{self.t_start}, {self.t_end}]"
                )
            if marks.min() < 0 or marks.max() >= self.dim:
                raise ValidationError(
                    f"sequence {self.id!r}: marks must lie in [0, {self.dim})"
                )

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which rechecks
        # the arrays and makes them read-only again
        return type(self), (self.times, self.marks, self.t_start, self.t_end, self.dim, self.id)

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        t_start: float,
        t_end: float,
        dim: int,
        id: str = "",
    ) -> "EventSequence":
        evs = list(events)
        times = np.array([e.time for e in evs], dtype=np.float64)
        marks = np.array([e.mark for e in evs])
        return cls(times, marks, t_start, t_end, dim, id)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(
            Event(float(t), int(m)) for t, m in zip(self.times, self.marks)
        )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __len__(self) -> int:
        return int(self.times.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return (
            self.id == other.id
            and self.dim == other.dim
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.marks, other.marks)
        )

    def __hash__(self):
        return hash((self.id, self.dim, self.t_start, self.t_end, len(self)))


def _windowed(support, ts):
    """A finite kernel's window of time over the history list ``ts``, for its ``scan``.

    ``ts`` is in time order and only appended to, and query times never decrease.
    ``window(t)`` drops the events spent by t (lag >= support) for good and returns
    ``(start, end)``: ``ts[start:end]`` is the strict past within the support, which
    both sums of ``scan(t)`` read, and ``ts[end:]`` the events tied with t, which add
    to the bound at full weight and nothing to the excitation."""
    start = 0

    def window(t):
        nonlocal start
        spent, end = t - support, len(ts)
        while start < end and ts[start] <= spent:
            start += 1
        while end > start and ts[end - 1] >= t:
            end -= 1
        return start, end

    return window


def _dense_pair_terms(kernel, lags, tail: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pair terms that list all C components of each lag: comp (C, 1), vals (C, P)."""
    vals = kernel.mass(np.inf)[:, None] - kernel.mass(lags) if tail else kernel.density(lags)
    return np.arange(kernel.n_components)[:, None], vals


@dataclass(frozen=True)
class ExponentialKernel:
    """Exponential impact kernel ``phi_vu(t) = A[v,u] * decay * exp(-decay*t)``.

    The decay rate is shared across all pairs; with this normalization each
    pair's kernel integrates to ``A[v,u]``, so the coefficient array is
    exactly the branching matrix.  Its one component has unbounded support.
    """

    decay: float
    n_components = 1
    support = math.inf

    def __post_init__(self):
        _check_real("decay", self.decay, 0, above=True)

    def density(self, lags) -> np.ndarray:
        """Density at lags >= 0, shape ``(1,) + lags.shape``."""
        return self.decay * np.exp(-self.decay * np.asarray(lags, dtype=np.float64))[None]

    def mass(self, lags, start=0.0) -> np.ndarray:
        """Integral over ``[start, lag]``, 0 <= start <= lag; shape ``(1,) + lags.shape``.

        A difference of the two tail masses, so a window far out in the
        decay keeps its relative precision.
        """
        lags = np.asarray(lags, dtype=np.float64)
        return (np.exp(-self.decay * np.asarray(start)) - np.exp(-self.decay * lags))[None]

    def quantile(self, comp, u01, upper) -> np.ndarray:
        """Lags whose mass is ``u01`` times the mass of ``[0, upper]``."""
        return -np.log1p(-u01 * (1.0 - np.exp(-self.decay * upper))) / self.decay

    def thinning(self, coeffs, ts, ms):
        """Thinning ``(scan, fresh)`` over the history lists ``ts`` and ``ms``, in plain
        floats.  ``scan(t)`` decays a state per target to t, taking in each event before
        t once, as in the exact sampler (O(D) per event and query), and returns that
        state, each target's excitation from the strict past, with its total plus the
        full weight of the events at t as the bound (it only decays ahead); ``fresh[m]``
        is all that an event in m adds."""
        omega, jump = self.decay, (self.decay * coeffs[0]).tolist()  # jump[v][u]: v adds to u
        out = [sum(row) for row in jump]
        t0, g, n = -math.inf, [0.0] * len(jump), 0  # g: excitation at t0 from ts[:n]

        def scan(t):
            nonlocal t0, g, n
            while n < len(ts) and ts[n] < t:
                decay = math.exp(-omega * (ts[n] - t0))
                g = [x * decay + j for x, j in zip(g, jump[ms[n]])]
                t0, n = ts[n], n + 1
            decay = math.exp(-omega * (t - t0))
            g, t0 = [x * decay for x in g], t
            return g, sum(g) + sum([out[v] for v in ms[n:]])

        return scan, out


@dataclass(frozen=True, eq=False)
class GaussianBasisKernel:
    """Impact kernels expanded over truncated Gaussian bases.

    Each basis is a Gaussian density with one of ``centers`` and common
    ``bandwidth``, truncated to ``[0, support]`` and renormalized to unit
    mass there, so coefficients again sum to the branching matrix.
    """

    centers: np.ndarray
    bandwidth: float
    support: float = 10.0

    def __post_init__(self):
        centers = np.asarray(_check_real("centers", self.centers, 0))
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if centers.ndim != 1 or centers.size == 0:
            raise ValidationError("centers must be a nonempty 1-d array")
        if np.any(np.diff(centers) < 0):
            raise ValidationError("centers must be sorted nondecreasing")
        _check_real("bandwidth", self.bandwidth, 0, above=True)
        if self.support != math.inf:
            _check_real("support", self.support, 0, above=True)
        if not np.all(self._norms > 0):
            raise ValidationError(
                f"basis centers {centers[~(self._norms > 0)].tolist()} have no mass inside "
                f"[0, support={self.support:g}] at bandwidth {self.bandwidth:g}"
            )

    @property
    def n_components(self) -> int:
        return int(self.centers.size)

    @cached_property
    def _norms(self) -> np.ndarray:
        # mass of each untruncated Gaussian inside [0, support]
        s = self.bandwidth
        return ndtr((self.support - self.centers) / s) - ndtr(-self.centers / s)

    def density(self, lags) -> np.ndarray:
        """Per-basis density values, shape ``(M,) + lags.shape``; zero off-support."""
        lags = np.asarray(lags, dtype=np.float64)
        s = self.bandwidth
        z = (lags[None, ...] - self.centers.reshape((-1,) + (1,) * lags.ndim)) / s
        vals = np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi))
        vals /= self._norms.reshape((-1,) + (1,) * lags.ndim)
        inside = (lags >= 0) & (lags < self.support)
        return np.where(inside[None, ...], vals, 0.0)

    def mass(self, lags, start=0.0) -> np.ndarray:
        """Per-basis integral over ``[start, lag]``, clipped to the support."""
        lags = np.asarray(lags, dtype=np.float64)
        s = self.bandwidth
        c = self.centers.reshape((-1,) + (1,) * lags.ndim)
        hi = ndtr((np.clip(lags, 0.0, self.support)[None, ...] - c) / s)
        lo = ndtr((np.clip(start, 0.0, self.support) - c) / s)
        return (hi - lo) / self._norms.reshape((-1,) + (1,) * lags.ndim)

    def pair_terms(self, lags, tail=False) -> tuple[np.ndarray, np.ndarray]:
        """Every basis's density at 1-d lags, or with ``tail`` its mass beyond them:
        comp (C, 1) and vals (C, P)."""
        return _dense_pair_terms(self, lags, tail)

    def quantile(self, comp, u01, upper) -> np.ndarray:
        """Lags whose mass in basis ``comp`` is ``u01`` times that of ``[0, upper]``."""
        c = self.centers[comp]
        s = self.bandwidth
        b = np.minimum(self.support, upper)
        lo = ndtr(-c / s)
        hi = ndtr((b - c) / s)
        return np.clip(c + s * ndtri(lo + u01 * (hi - lo)), 0.0, b)

    def thinning(self, coeffs, ts, ms):
        """Thinning ``(scan, fresh)`` over the history lists (see ``_windowed``).  ``scan(t)``
        makes one array of the window's lags, one of its marks and one ``density`` call,
        which give each target's excitation at t and a bound on the excitation ahead;
        ``fresh`` is the bound term at lag 0."""
        # sup of each renormalized basis over lags >= x: its peak while x is at most
        # the center, its decreasing tail value after, nothing from the support on;
        # x <= center is x below the next double, so one cut per basis decides
        peak = 1.0 / (self.bandwidth * np.sqrt(2.0 * np.pi) * self._norms)[:, None]  # (M, 1)
        cut = np.where(self.centers < self.support, np.nextafter(self.centers, np.inf),
                       self.support)[:, None]
        row_sum = coeffs.sum(axis=2)  # (M, D): total outgoing weight per basis/source
        D = coeffs.shape[1]
        rows, eye, zero = coeffs.reshape(-1, D), np.eye(D), [0.0] * D  # rows[c·D + v]
        fresh, window = (peak[:, 0] @ row_sum).tolist(), _windowed(self.support, ts)

        def scan(t):
            start, end = window(t)
            if start == len(ts):
                return zero, 0.0
            lags = t - np.array(ts[start:])
            src = eye.take(ms[start:], axis=0)  # (W, D): each event's source, one-hot
            dens = self.density(lags)  # (M, W)
            sup = np.where(lags < cut, peak, dens)
            if end < len(ts):
                dens[:, end - start:] = 0.0  # events tied with t excite nothing yet
            excite = (dens @ src).ravel() @ rows
            return excite.tolist(), float(np.vdot(sup @ src, row_sum))

        return scan, fresh

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianBasisKernel):
            return NotImplemented
        return (
            np.array_equal(self.centers, other.centers)
            and self.bandwidth == other.bandwidth
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.centers.tobytes(), self.bandwidth, self.support))


@dataclass(frozen=True)
class DiscretizedKernel:
    """Step-function impact kernel on a fixed lag grid.

    Value ``k`` holds on ``[k*dt, (k+1)*dt)`` (right-continuous steps); the
    kernel is zero at lags >= ``n_lags * dt``.  Component ``k`` is the
    indicator of bin ``k``, so the coefficients are the step values.
    """

    dt: float
    n_lags: int

    def __post_init__(self):
        _check_real("dt", self.dt, 0, above=True)
        _check_int("n_lags", self.n_lags, 1)

    @property
    def n_components(self) -> int:
        return self.n_lags

    @property
    def support(self) -> float:
        return self.dt * self.n_lags

    def density(self, lags) -> np.ndarray:
        """Bin indicators, shape ``(L,) + lags.shape``: 1 where ``floor(lag / dt) = k``."""
        q = np.floor(np.divide(lags, self.dt))
        return np.equal.outer(np.arange(self.n_lags), q).astype(np.float64)

    def mass(self, lags, start=0.0) -> np.ndarray:
        """Width of each bin inside ``[start, lag]``, shape ``(L,) + lags.shape``."""
        lags = np.asarray(lags, dtype=np.float64)
        starts = (np.arange(self.n_lags) * self.dt).reshape((-1,) + (1,) * lags.ndim)
        return np.clip(lags[None, ...] - starts, 0.0, self.dt) - np.clip(
            start - starts, 0.0, self.dt
        )

    def pair_terms(self, lags, tail=False) -> tuple[np.ndarray, np.ndarray]:
        """Each 1-d lag's bin ``floor(lag / dt)`` at weight 1, both (1, P); a lag whose
        ratio to ``dt`` rounds up to ``n_lags`` has no bin, so it keeps bin ``n_lags - 1``
        at weight 0.  With ``tail``, every bin's width beyond the lag."""
        if tail:
            return _dense_pair_terms(self, lags, tail)
        q = np.asarray(lags, dtype=np.float64) / self.dt
        k = np.minimum(q, self.n_lags - 1).astype(np.int64)
        return k[None], (q < self.n_lags).astype(np.float64)[None]

    def quantile(self, comp, u01, upper) -> np.ndarray:
        """Uniform lags on the part of bin ``comp`` inside ``[0, upper]``."""
        start = comp * self.dt
        return start + u01 * np.clip(upper - start, 0.0, self.dt)

    def thinning(self, coeffs, ts, ms):
        """Plain-float thinning ``(scan, fresh)`` over the history lists (see ``_windowed``).
        ``scan(t)`` bins each window lag once, ``floor(lag / dt)``: below ``n_lags`` it adds
        its coefficient row to each target's excitation, as in ``density``, and below the
        support its bin's bound on the excitation ahead; ``fresh`` is bin 0's bound."""
        # suffix max over lag bins, summed over targets: bound per bin and source
        suf = np.maximum.accumulate(coeffs[::-1], axis=0)[::-1]  # (L, D, D)
        tbl, rows = suf.sum(axis=2).tolist(), coeffs.tolist()
        tbl.append(tbl[-1])  # for a lag below the support whose ratio to dt rounds to n_lags
        dt, top, support, zero = self.dt, self.n_lags - 1, self.support, [0.0] * coeffs.shape[1]
        fresh, window = tbl[0], _windowed(support, ts)

        def scan(t):
            start, end = window(t)
            b, live = 0.0, []
            for s, v in zip(ts[start:end], ms[start:end]):
                x = t - s
                k = int(x / dt)
                if x < support:
                    b += tbl[k][v]
                if k <= top:
                    live.append(rows[k][v])
            for v in ms[end:]:
                b += fresh[v]
            return list(map(sum, zip(zero, *live))), b  # zero keeps D targets for no rows

        return scan, fresh


KernelSpec = Union[ExponentialKernel, GaussianBasisKernel, DiscretizedKernel]


def _expected_coeff_shape(kernel: KernelSpec, dim: int) -> tuple[int, ...]:
    """Public layout of the coefficient array: (D, D) for the exponential kernel."""
    if not isinstance(kernel, KernelSpec):
        raise UnsupportedKernelError(f"unknown kernel type {type(kernel).__name__}")
    if isinstance(kernel, ExponentialKernel):
        return (dim, dim)
    return (kernel.n_components, dim, dim)


@dataclass(frozen=True, eq=False)
class HawkesModel:
    """Baseline rates plus an impact kernel with its coefficient array.

    ``A`` has shape ``(D, D)`` for exponential kernels and ``(M, D, D)`` /
    ``(L, D, D)`` for basis / discretized kernels, indexed ``[.., v, u]`` for
    impact of dimension ``v`` on dimension ``u``.  Construction warns (but
    does not fail) when the branching matrix has spectral radius >= 1.
    """

    mu: np.ndarray
    kernel: KernelSpec
    A: np.ndarray

    def __post_init__(self):
        mu = np.asarray(_check_real("mu", self.mu, 0))
        A = np.asarray(_check_real("A", self.A, 0))
        mu.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "A", A)
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("mu must be a nonempty 1-d array")
        expected = _expected_coeff_shape(self.kernel, mu.size)
        if A.shape != expected:
            raise ValidationError(
                f"coefficient array has shape {A.shape}, expected {expected}"
            )
        rho = spectral_radius(branching_matrix(self))
        if rho >= 1.0:
            warnings.warn(
                f"branching matrix spectral radius {rho:.4f} >= 1: "
                "the process is not stationary",
                StabilityWarning,
                stacklevel=2,
            )

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    @property
    def coeffs(self) -> np.ndarray:
        """``A`` as a read-only ``(C, D, D)`` view, indexed [component, v, u]."""
        return self.A.reshape((-1, self.dim, self.dim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HawkesModel):
            return NotImplemented
        return (
            np.array_equal(self.mu, other.mu)
            and self.kernel == other.kernel
            and np.array_equal(self.A, other.A)
        )

    def __hash__(self):
        return hash((self.mu.tobytes(), self.kernel, self.A.tobytes()))


def branching_matrix(model: HawkesModel) -> np.ndarray:
    """Total infectivity ``Phi[v,u] = integral of phi_vu`` as a (D, D) array."""
    totals = model.kernel.mass(np.inf)  # (C,): each component's whole mass
    return (totals[:, None, None] * model.coeffs).sum(axis=0)


def spectral_radius(model_or_matrix) -> float:
    """Stability number: largest eigenvalue magnitude of the branching matrix."""
    if isinstance(model_or_matrix, HawkesModel):
        matrix = branching_matrix(model_or_matrix)
    else:
        matrix = np.asarray(model_or_matrix, dtype=np.float64)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _check_dims(model: HawkesModel, seq: EventSequence) -> None:
    if model.dim != seq.dim:
        raise ValidationError(
            f"model dimension {model.dim} != sequence dimension {seq.dim}"
        )


def _check_target(model: HawkesModel, u: int) -> None:
    if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
        raise ValidationError(f"dimension index must be an integer, got {u!r}")
    if not 0 <= u < model.dim:
        raise ValidationError(f"dimension index {u} out of range [0, {model.dim})")


def intensity(model: HawkesModel, seq: EventSequence, u: int, t: float) -> float:
    """Conditional intensity of dimension ``u`` at time ``t``.

    History is strictly before ``t``: events at exactly ``t`` do not
    contribute (left-limit convention).
    """
    _check_target(model, u)
    _check_real("t", t)
    return float(intensity_profile(model, seq, np.array([t], dtype=np.float64))[0, u])


def intensity_profile(
    model: HawkesModel, seq: EventSequence, ts: np.ndarray
) -> np.ndarray:
    """Intensities of all dimensions at the query times; shape (len(ts), D).

    Queries may come in any order.  O((n + q) log(n + q)) for exponential
    kernels, O(q + pairs within the support) for basis and grid kernels.
    """
    _check_dims(model, seq)
    ts = np.asarray(_check_real("ts", ts))
    F = _excitation(model.kernel, seq, ts)
    return model.mu + F @ model.coeffs.reshape(-1, model.dim)


def compensator(
    model: HawkesModel, seq: EventSequence, u: int, t0: float, t1: float
) -> float:
    """Integrated intensity of dimension ``u`` over ``[t0, t1]``, in closed form."""
    _check_dims(model, seq)
    _check_target(model, u)
    _check_real("t0", t0)
    _check_real("t1", t1)
    if t1 < t0:
        raise ValidationError(f"need t0 <= t1, got [{t0}, {t1}]")
    cut = np.searchsorted(seq.times, t1, side="left")
    ti = seq.times[:cut]
    mass = model.kernel.mass(t1 - ti, np.maximum(t0 - ti, 0.0))
    spent = (mass * model.coeffs[:, seq.marks[:cut], u]).sum(axis=0)
    return float(model.mu[u]) * (t1 - t0) + float(spent.sum())


def window_compensator(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Compensator of every dimension over the full observation window; shape (D,)."""
    _check_dims(model, seq)
    G = _exposures(model.kernel, seq)
    return model.mu * (seq.t_end - seq.t_start) + np.einsum("cv,cvu->u", G, model.coeffs)


# Block span, in e-folds (units of 1/decay), of the scaled prefix sums.  A
# block's scaled weights reach e^span and its sums n·max|vals|·e^span, which
# stays below DBL_MAX (about e^709.78) for n·max|vals| < 1e47 at span 600;
# the row scales e^-span >= 2.7e-261 stay normal floats, and so does
# decay·e^-span for decay > 1e-47.  Each term's scale exponent is rounded
# at magnitude up to span, so a longer span trades precision for fewer
# blocks: about span·eps relative (1.3e-13 at 600) instead of eps.
_EXP_BLOCK_SPAN = 600.0


def exp_weighted_excitation(
    times: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int, decay: float
) -> np.ndarray:
    """Decayed prefix sums of sparse per-event channel weights.

    Event i puts weight ``vals[i, e]`` on channel ``cols[i, e]`` (both of
    shape (n,) or (n, k)).  Returns ``R`` of shape (n, width) with
    ``R[j, c] = sum_{t_i < t_j, cols[i, e] = c} vals[i, e] * decay *
    exp(-decay * (t_j - t_i))``, in O(n·width): within each block of times
    spanning at most ``_EXP_BLOCK_SPAN / decay`` the weights, scaled by
    ``exp(decay * (t_i - t0))``, are scattered into a zeroed buffer below a
    row carrying the earlier blocks' sum, one cumulative sum gives every
    event's past, and one row scaling by ``decay * exp(-decay * (t_j - t0))``
    finishes it.  Blocks never split tied times, and an event tied with
    earlier ones copies the first one's row (they share the scaling), so
    history stays strictly past.  Exact to about ``_EXP_BLOCK_SPAN * eps``
    relative for finite decay and ``n * max|vals| < 1e47`` (see the span).
    """
    n = times.size
    buf = np.zeros((n + 1, width))
    if n == 0:
        return buf[:0]
    # row i + 1 receives event i's weight; row i of each block holds the past
    flat = (np.arange(1, n + 1) * width)[:, None] + np.reshape(cols, (n, -1))
    vals = np.reshape(vals, (n, -1))
    span = _EXP_BLOCK_SPAN / decay
    start = 0
    while start < n:
        t0 = times[start]
        stop = int(np.searchsorted(times, t0 + span, side="right"))
        x = decay * (times[start:stop] - t0)
        np.add.at(buf.reshape(-1), flat[start:stop].ravel(),
                  (np.exp(x)[:, None] * vals[start:stop]).ravel())
        blk = buf[start:stop + 1]
        np.cumsum(blk, axis=0, out=blk)
        down = np.exp(-x)
        if stop < n:
            # the next block's first row: this block's total, brought down to
            # its last event, then across the gap; one factor exp(-decay *
            # (t_next - t0)) would underflow past 745 e-folds and drop it
            buf[stop] *= down[-1]
            buf[stop] *= math.exp(-decay * (times[stop] - times[stop - 1]))
        blk[:-1] *= (decay * down)[:, None]
        start = stop
    R = buf[:n]
    tied = np.flatnonzero(times[1:] == times[:-1]) + 1
    R[tied] = R[np.searchsorted(times, times[tied], side="left")]
    return R


def kernel_lag_averages(model: HawkesModel, dt: float, n_lags: int) -> np.ndarray:
    """Average kernel value on each lag bin [k*dt, (k+1)*dt); shape (L, D, D).

    Exact (each bin's mass over its width), so comparing a fitted step
    kernel against a smooth reference carries no within-bin sampling bias.
    """
    _check_int("n_lags", n_lags, 1)
    _check_real("dt", dt, 0, above=True)
    edges = np.arange(n_lags + 1) * dt
    mass = model.kernel.mass(edges[1:], edges[:-1])  # (C, L)
    return (mass[:, :, None, None] * model.coeffs[:, None]).sum(axis=0) / dt


def _pair_arrays(
    times: np.ndarray, support: float, queries: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with ``0 < q_j - t_i < support``.

    ``q`` is ``queries`` if given, else ``times`` itself.  Returns (sources,
    targets) as flat arrays; strict time ordering means simultaneous events
    never pair with each other.
    """
    q = times if queries is None else queries
    lo = np.searchsorted(times, q - support, side="right")
    hi = np.searchsorted(times, q, side="left")
    # a support below the resolution of the times leaves q - support == q,
    # so lo passes hi: no event lies within such a support
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    targets = np.repeat(np.arange(q.size), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sources = np.arange(total) - np.repeat(offsets, counts) + np.repeat(lo, counts)
    return sources, targets


def _excitation(
    kernel: KernelSpec, seq: EventSequence, at: np.ndarray | None = None, tail: bool = False,
    coeffs: np.ndarray | None = None,
) -> np.ndarray:
    """Excitation features at the query times ``at`` (default: the events).

    Returns F of shape (q, C·D) with column c·D + v:
    ``F[j, c·D + v] = sum_{t_i < q_j, m_i = v} density_c(q_j - t_i)``, so
    that lambda(q_j) = mu + F[j] @ coeffs.reshape(C·D, D).  With ``tail``,
    each pair adds the mass still ahead, ``mass_c(inf) - mass_c(q_j - t_i)``,
    in place of the density.  History is strictly past: events tied with a
    query add nothing to it.  Given ``coeffs`` (C, D, D) and no ``at``,
    returns instead each event's excitation of its own mark, shape (n,):
    finite kernels contract each pair's terms before summing over events.
    """
    times, dim = seq.times, seq.dim
    if isinstance(kernel, ExponentialKernel):
        # each event puts weight w on its own mark's channel; the mass ahead,
        # exp(-decay * lag), is the density over decay
        w = 1.0 / kernel.decay if tail else 1.0
        if at is None:
            R = exp_weighted_excitation(times, seq.marks, np.full(times.size, w), dim,
                                        kernel.decay)
            return R if coeffs is None else _excited(R, coeffs, seq.marks)
        # queries join the event timeline with zero weight; the recursion's
        # strict past keeps events tied with a query out of its features
        n = times.size
        merged = np.concatenate([times, at])
        order = np.argsort(merged, kind="stable")
        cols = np.concatenate([seq.marks, np.zeros(at.size, dtype=np.int64)])
        R = exp_weighted_excitation(merged[order], cols[order],
                                    np.where(order < n, w, 0.0), dim, kernel.decay)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return R[rank[n:]]
    q = times if at is None else at
    src, tgt = _pair_arrays(times, kernel.support, at)
    lags = q[tgt] - times[src]
    # events a support or more back have no density and no mass ahead, so
    # the pairs within the support carry every nonzero term in either mode
    comp, vals = kernel.pair_terms(lags, tail)
    m_src = seq.marks[src]
    if coeffs is not None:
        # one flat gather of coeffs[comp, m_src, m_tgt]; each pair sums its terms in order
        w = coeffs.reshape(-1).take(comp * dim * dim + (m_src * dim + seq.marks[tgt]))
        w *= vals
        return np.bincount(tgt, weights=w.sum(axis=0), minlength=q.size)
    # one bincount adds each feature's terms in pair order
    C = kernel.n_components
    idx = comp * dim + (tgt * (C * dim) + m_src)
    return np.bincount(idx.ravel(), weights=vals.ravel(),
                       minlength=q.size * C * dim).reshape(q.size, C * dim)


def _excited(F: np.ndarray, coeffs: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Each row's excitation of its own mark: ``F[j] @ coeffs.reshape(C·D, D)[:, marks[j]]``.

    Row u of At holds target u's coefficients in F's column order, so each
    row gathers one contiguous row (by ``take``, which measured 2-3x faster
    than fancy indexing here).
    """
    At = np.ascontiguousarray(coeffs.reshape(F.shape[1], -1).T)
    return np.einsum("jk,jk->j", F, At.take(marks, axis=0))


def _exposures(kernel: KernelSpec, seq: EventSequence) -> np.ndarray:
    """Component mass left in the window after each event, per source: (C, D)."""
    mass = kernel.mass(seq.t_end - seq.times)
    return np.stack([np.bincount(seq.marks, weights=m, minlength=seq.dim) for m in mass])


def event_intensities(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Intensity of each event's own dimension at its time (left limits); shape (n,)."""
    _check_dims(model, seq)
    return model.mu[seq.marks] + _excitation(model.kernel, seq, coeffs=model.coeffs)


def event_compensators(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Compensator of each event's own dimension from ``t_start`` to its time.

    ``out[j]`` is the integral of ``lambda_{m_j}`` over ``[t_start, t_j]``
    with strictly-past history, so events tied with ``t_j`` add nothing:
    the full mass of the strict past, less the part still ahead.  One pass
    over the sequence: O(n D) for exponential kernels, O(C) per pair within
    the support for basis and grid kernels.  Shape (n,).
    """
    _check_dims(model, seq)
    times, marks = seq.times, seq.marks
    out = model.mu[marks] * (times - seq.t_start)
    # cum[i, u]: total infectivity on u of events 0..i-1, each at full mass
    cum = np.zeros((len(seq) + 1, model.dim))
    np.cumsum(branching_matrix(model)[marks, :], axis=0, out=cum[1:])
    past = np.searchsorted(times, times, side="left")  # first event tied with each
    ahead = _excitation(model.kernel, seq, tail=True, coeffs=model.coeffs)
    return out + cum[past, marks] - ahead


def log_likelihood(model: HawkesModel, seq: EventSequence) -> float:
    """Log-likelihood of the sequence under the model.

    Returns ``-inf`` (as a sentinel, not an error) when some event has zero
    intensity under the model.  The learners' objectives (``fit_mle`` and the
    EM loop it shares, ``exp_nll_and_grad``) floor each event's intensity at
    1e-300 instead, so there the same event costs ``log(1e-300)`` (about
    -690.8) and the objective stays finite.
    """
    _check_dims(model, seq)
    lam = event_intensities(model, seq)
    if np.any(lam <= 0.0):
        return NEG_INF
    return float(np.log(lam).sum() - window_compensator(model, seq).sum())
