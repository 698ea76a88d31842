"""Core types and numerics for multivariate Hawkes processes.

A model is a baseline rate vector ``mu`` plus an impact kernel ``phi_vu(t)``
giving the added intensity on dimension ``u`` at lag ``t`` after an event of
dimension ``v``.  The conditional intensity used throughout is

    lambda_u(t) = mu[u] + sum_{t_i < t} phi_{m_i, u}(t - t_i)

with strictly-past history (left limit at event times).  Three kernel
representations are supported: exponential decay, truncated Gaussian basis
expansions, and step functions on a fixed lag grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from ._util import ndtr


class HawkesError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(HawkesError):
    """Invalid input: bad shapes, dimension mismatches, broken invariants."""


class UnsupportedKernelError(ValidationError):
    """Operation requires a kernel representation it was not given."""


class StabilityWarning(UserWarning):
    """Spectral radius of the branching matrix is >= 1 (non-stationary)."""


NEG_INF = float("-inf")


@dataclass(frozen=True)
class Event:
    """A single timestamped event with an integer mark (dimension index)."""

    time: float
    mark: int

    def __post_init__(self):
        if self.time < 0:
            raise ValidationError(f"event time must be >= 0, got {self.time}")
        if self.mark < 0:
            raise ValidationError(f"event mark must be >= 0, got {self.mark}")


@dataclass(frozen=True, eq=False)
class EventSequence:
    """An ordered sequence of events on an observation window.

    ``times`` and ``marks`` are parallel arrays sorted nondecreasing in time;
    marks are dimension indices in ``[0, dim)``.  Instances are immutable and
    safe to share across threads.
    """

    times: np.ndarray
    marks: np.ndarray
    t_start: float
    t_end: float
    dim: int
    id: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        raw_marks = np.asarray(self.marks)
        if raw_marks.dtype.kind == "f" and not np.all(
            np.isfinite(raw_marks) & (raw_marks == np.round(raw_marks))
        ):
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
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValidationError(
                f"sequence {self.id!r}: window [{self.t_start}, {self.t_end}] must be finite"
            )
        if self.t_end < self.t_start:
            raise ValidationError(
                f"t_end ({self.t_end}) must be >= t_start ({self.t_start})"
            )
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"sequence {self.id!r}: event times must be finite")
        if times.size:
            if np.any(np.diff(times) < 0):
                raise ValidationError(f"sequence {self.id!r}: times must be sorted")
            if times[0] < self.t_start or times[-1] > self.t_end:
                raise ValidationError(
                    f"sequence {self.id!r}: events outside window "
                    f"[{self.t_start}, {self.t_end}]"
                )
            if times[0] < 0:
                raise ValidationError(f"sequence {self.id!r}: negative event time")
            if marks.min() < 0 or marks.max() >= self.dim:
                raise ValidationError(
                    f"sequence {self.id!r}: marks must lie in [0, {self.dim})"
                )

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


@dataclass(frozen=True)
class ExponentialKernel:
    """Exponential impact kernel ``phi_vu(t) = A[v,u] * decay * exp(-decay*t)``.

    The decay rate is shared across all pairs; with this normalization each
    pair's kernel integrates to ``A[v,u]``, so the coefficient array is
    exactly the branching matrix.
    """

    decay: float

    def __post_init__(self):
        if not self.decay > 0:
            raise ValidationError(f"decay must be > 0, got {self.decay}")


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
        centers = np.asarray(self.centers, dtype=np.float64)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if centers.ndim != 1 or centers.size == 0:
            raise ValidationError("centers must be a nonempty 1-d array")
        if not np.all(np.isfinite(centers)):
            raise ValidationError("centers must be finite")
        if np.any(np.diff(centers) < 0):
            raise ValidationError("centers must be sorted nondecreasing")
        if centers[0] < 0:
            raise ValidationError("centers must be >= 0")
        if not self.bandwidth > 0:
            raise ValidationError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not self.support > 0:
            raise ValidationError(f"support must be > 0, got {self.support}")

    @property
    def n_bases(self) -> int:
        return int(self.centers.size)

    @cached_property
    def _norms(self) -> np.ndarray:
        # mass of each untruncated Gaussian inside [0, support]
        s = self.bandwidth
        return ndtr((self.support - self.centers) / s) - ndtr(-self.centers / s)

    def density(self, lags: np.ndarray) -> np.ndarray:
        """Per-basis density values, shape ``(M,) + lags.shape``; zero off-support."""
        lags = np.asarray(lags, dtype=np.float64)
        s = self.bandwidth
        z = (lags[None, ...] - self.centers.reshape((-1,) + (1,) * lags.ndim)) / s
        vals = np.exp(-0.5 * z * z) / (s * np.sqrt(2.0 * np.pi))
        vals /= self._norms.reshape((-1,) + (1,) * lags.ndim)
        inside = (lags >= 0) & (lags < self.support)
        return np.where(inside[None, ...], vals, 0.0)

    def mass(self, lags: np.ndarray) -> np.ndarray:
        """Per-basis integral over ``[0, lag]``, clipped to the support."""
        lags = np.asarray(lags, dtype=np.float64)
        s = self.bandwidth
        clipped = np.clip(lags, 0.0, self.support)
        c = self.centers.reshape((-1,) + (1,) * lags.ndim)
        hi = ndtr((clipped[None, ...] - c) / s)
        lo = ndtr(-c / s)
        return (hi - lo) / self._norms.reshape((-1,) + (1,) * lags.ndim)

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
    kernel is zero at lags >= ``n_lags * dt``.
    """

    dt: float
    n_lags: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if not self.n_lags >= 1:
            raise ValidationError(f"n_lags must be >= 1, got {self.n_lags}")

    @property
    def support(self) -> float:
        return self.dt * self.n_lags


KernelSpec = Union[ExponentialKernel, GaussianBasisKernel, DiscretizedKernel]


def _expected_coeff_shape(kernel: KernelSpec, dim: int) -> tuple[int, ...]:
    if isinstance(kernel, ExponentialKernel):
        return (dim, dim)
    if isinstance(kernel, GaussianBasisKernel):
        return (kernel.n_bases, dim, dim)
    if isinstance(kernel, DiscretizedKernel):
        return (kernel.n_lags, dim, dim)
    raise UnsupportedKernelError(f"unknown kernel type {type(kernel).__name__}")


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
        mu = np.asarray(self.mu, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        mu.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "A", A)
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("mu must be a nonempty 1-d array")
        if not np.all(np.isfinite(mu)):
            raise ValidationError("mu entries must be finite")
        if np.any(mu < 0):
            raise ValidationError("mu entries must be >= 0")
        expected = _expected_coeff_shape(self.kernel, mu.size)
        if A.shape != expected:
            raise ValidationError(
                f"coefficient array has shape {A.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(A)):
            raise ValidationError("kernel coefficients must be finite")
        if np.any(A < 0):
            raise ValidationError("kernel coefficients must be >= 0")
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
    if isinstance(model.kernel, ExponentialKernel):
        return model.A.copy()
    if isinstance(model.kernel, GaussianBasisKernel):
        return model.A.sum(axis=0)
    if isinstance(model.kernel, DiscretizedKernel):
        return model.kernel.dt * model.A.sum(axis=0)
    raise UnsupportedKernelError(f"unknown kernel type {type(model.kernel).__name__}")


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


def _check_finite_time(name: str, t: float) -> None:
    if not math.isfinite(t):
        raise ValidationError(f"{name} must be finite, got {t}")


def _step_cum_area(kernel: DiscretizedKernel, values: np.ndarray) -> np.ndarray:
    """Cumulative area of a step kernel at grid nodes; values indexed on axis 0."""
    area = np.cumsum(values, axis=0) * kernel.dt
    zero = np.zeros((1,) + values.shape[1:])
    return np.concatenate([zero, area], axis=0)


def _step_integral(
    kernel: DiscretizedKernel, values: np.ndarray, lags: np.ndarray
) -> np.ndarray:
    """Integral of the step function from 0 to each lag (exact, clipped to support)."""
    cum = _step_cum_area(kernel, values)
    x = np.clip(lags, 0.0, kernel.support)
    k = np.minimum((x / kernel.dt).astype(np.int64), kernel.n_lags - 1)
    frac = x - k * kernel.dt
    return cum[k] + values[k] * frac


def intensity(model: HawkesModel, seq: EventSequence, u: int, t: float) -> float:
    """Conditional intensity of dimension ``u`` at time ``t``.

    History is strictly before ``t``: events at exactly ``t`` do not
    contribute (left-limit convention).
    """
    _check_dims(model, seq)
    _check_target(model, u)
    _check_finite_time("t", t)
    cut = np.searchsorted(seq.times, t, side="left")
    dts = t - seq.times[:cut]
    vs = seq.marks[:cut]
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        w = kern.decay * np.exp(-kern.decay * dts)
        excit = float(np.dot(w, model.A[vs, u]))
    elif isinstance(kern, GaussianBasisKernel):
        dens = kern.density(dts)  # (M, n)
        excit = float(np.einsum("mi,mi->", dens, model.A[:, vs, u]))
    elif isinstance(kern, DiscretizedKernel):
        k = (dts / kern.dt).astype(np.int64)
        inside = k < kern.n_lags
        excit = float(model.A[k[inside], vs[inside], u].sum())
    else:
        raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")
    return float(model.mu[u]) + excit


def intensity_profile(
    model: HawkesModel, seq: EventSequence, ts: np.ndarray
) -> np.ndarray:
    """Intensities of all dimensions at the query times; shape (len(ts), D)."""
    _check_dims(model, seq)
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("query times must be finite")
    out = np.tile(model.mu, (ts.size, 1))
    if len(seq) == 0:
        return out
    dts = ts[:, None] - seq.times[None, :]
    past = dts > 0
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        w = np.where(past, kern.decay * np.exp(-kern.decay * np.maximum(dts, 0.0)), 0.0)
        out += w @ model.A[seq.marks, :]
    elif isinstance(kern, GaussianBasisKernel):
        dens = kern.density(np.maximum(dts, 0.0)) * past[None, :, :]
        for m in range(kern.n_bases):
            out += dens[m] @ model.A[m, seq.marks, :]
    elif isinstance(kern, DiscretizedKernel):
        k = (np.maximum(dts, 0.0) / kern.dt).astype(np.int64)
        inside = past & (k < kern.n_lags)
        gi, gj = np.nonzero(inside)
        vals = model.A[k[gi, gj], seq.marks[gj], :]
        np.add.at(out, gi, vals)
    else:
        raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")
    return out


def compensator(
    model: HawkesModel, seq: EventSequence, u: int, t0: float, t1: float
) -> float:
    """Integrated intensity of dimension ``u`` over ``[t0, t1]``, in closed form."""
    _check_dims(model, seq)
    _check_target(model, u)
    _check_finite_time("t0", t0)
    _check_finite_time("t1", t1)
    if t1 < t0:
        raise ValidationError(f"need t0 <= t1, got [{t0}, {t1}]")
    cut = np.searchsorted(seq.times, t1, side="left")
    ti = seq.times[:cut]
    vs = seq.marks[:cut]
    hi = t1 - ti
    lo = np.maximum(t0 - ti, 0.0)
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        w = np.exp(-kern.decay * lo) - np.exp(-kern.decay * hi)
        excit = float(np.dot(w, model.A[vs, u]))
    elif isinstance(kern, GaussianBasisKernel):
        w = kern.mass(hi) - kern.mass(lo)  # (M, n)
        excit = float(np.einsum("mi,mi->", w, model.A[:, vs, u]))
    elif isinstance(kern, DiscretizedKernel):
        cum = _step_cum_area(kern, model.A)  # (L+1, D, D)
        excit = float(
            _disc_lag_area(kern, model.A, cum, hi, vs, u).sum()
            - _disc_lag_area(kern, model.A, cum, lo, vs, u).sum()
        )
    else:
        raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")
    return float(model.mu[u]) * (t1 - t0) + excit


def _disc_lag_area(
    kernel: DiscretizedKernel,
    values: np.ndarray,
    cum: np.ndarray,
    lags: np.ndarray,
    vs: np.ndarray,
    u,
) -> np.ndarray:
    """Step-kernel area from lag 0 to ``lags`` for source dims ``vs``, target ``u``."""
    x = np.clip(lags, 0.0, kernel.support)
    k = np.minimum((x / kernel.dt).astype(np.int64), kernel.n_lags - 1)
    frac = x - k * kernel.dt
    return cum[k, vs, u] + values[k, vs, u] * frac


def window_compensator(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Compensator of every dimension over the full observation window; shape (D,)."""
    _check_dims(model, seq)
    span = seq.t_end - seq.t_start
    out = model.mu * span
    if len(seq) == 0:
        return out
    hi = seq.t_end - seq.times
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        w = 1.0 - np.exp(-kern.decay * hi)
        out = out + np.einsum("i,iu->u", w, model.A[seq.marks, :])
    elif isinstance(kern, GaussianBasisKernel):
        w = kern.mass(hi)  # (M, n)
        out = out + np.einsum("mi,miu->u", w, model.A[:, seq.marks, :])
    elif isinstance(kern, DiscretizedKernel):
        cum = _step_cum_area(kern, model.A)
        x = np.clip(hi, 0.0, kern.support)
        k = np.minimum((x / kern.dt).astype(np.int64), kern.n_lags - 1)
        frac = x - k * kern.dt
        out = out + (cum[k, seq.marks, :] + model.A[k, seq.marks, :] * frac[:, None]).sum(
            axis=0
        )
    else:
        raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")
    return out


# Block span (in units of 1/decay) for the overflow-safe prefix recursion.
_EXP_BLOCK_SPAN = 200.0


def exp_weighted_excitation(
    times: np.ndarray, weights: np.ndarray, decay: float
) -> np.ndarray:
    """Decayed prefix sums of per-event channel weights.

    Returns ``R`` of shape (n, C) with
    ``R[j, c] = sum_{t_i < t_j} weights[i, c] * decay * exp(-decay * (t_j - t_i))``.
    Computed with scaled prefix sums in O(n C); block splits bound the
    scaling factors to avoid overflow on long windows, and never fall
    between tied times (strict-past semantics hold under ties).
    """
    n = times.size
    C = weights.shape[1]
    R = np.zeros((n, C))
    if n == 0:
        return R
    first_at_time = np.searchsorted(times, times, side="left")
    span = _EXP_BLOCK_SPAN / decay
    carry = np.zeros(C)
    start = 0
    while start < n:
        t0 = times[start]
        stop = int(np.searchsorted(times, t0 + span, side="right"))
        stop = max(stop, start + 1)
        blk = slice(start, stop)
        tb = times[blk]
        w = np.exp(decay * (tb - t0))  # bounded by e^span
        cum = np.concatenate(
            [np.zeros((1, C)), np.cumsum(w[:, None] * weights[blk], axis=0)]
        )
        pos = first_at_time[blk] - start
        down = np.exp(-decay * (tb - t0))
        R[blk] = decay * down[:, None] * cum[pos] + down[:, None] * carry[None, :]
        if stop < n:
            t_next = times[stop]
            carry = np.exp(-decay * (t_next - t0)) * (carry + decay * cum[-1])
        start = stop
    return R


def exp_excitation_states(
    times: np.ndarray, marks: np.ndarray, dim: int, decay: float
) -> np.ndarray:
    """Pre-event excitation per source dimension for an exponential kernel.

    ``R[j, v] = sum_{t_i < t_j, m_i = v} decay * exp(-decay * (t_j - t_i))``,
    so ``lambda_u(t_j) = mu[u] + sum_v A[v, u] * R[j, v]``.
    """
    onehot = (marks[:, None] == np.arange(dim)[None, :]).astype(np.float64)
    return exp_weighted_excitation(times, onehot, decay)


def kernel_lag_averages(model: HawkesModel, dt: float, n_lags: int) -> np.ndarray:
    """Average kernel value on each lag bin [k*dt, (k+1)*dt); shape (L, D, D).

    Exact (mass differences over bin width), so comparing a fitted step
    kernel against a smooth reference carries no within-bin sampling bias.
    """
    if dt <= 0 or n_lags < 1:
        raise ValidationError("need dt > 0 and n_lags >= 1")
    D = model.dim
    edges = np.arange(n_lags + 1) * dt
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        seg = np.exp(-kern.decay * edges[:-1]) - np.exp(-kern.decay * edges[1:])
        return seg[:, None, None] * model.A[None, :, :] / dt
    if isinstance(kern, GaussianBasisKernel):
        w = kern.mass(edges)  # (M, L+1)
        seg = w[:, 1:] - w[:, :-1]  # (M, L)
        return np.einsum("ml,mvu->lvu", seg, model.A) / dt
    if isinstance(kern, DiscretizedKernel):
        cum = _step_cum_area(kern, model.A)  # (L0+1, D, D)
        x = np.clip(edges, 0.0, kern.support)
        k = np.minimum((x / kern.dt).astype(np.int64), kern.n_lags - 1)
        frac = x - k * kern.dt
        areas = cum[k] + model.A[k] * frac[:, None, None]
        return (areas[1:] - areas[:-1]) / dt
    raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")


def _pair_arrays(times: np.ndarray, support: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with ``0 < t_j - t_i < support`` and ``t_i < t_j``.

    Returns (sources, targets) as flat arrays; strict time ordering means
    simultaneous events never pair with each other.
    """
    n = times.size
    lo = np.searchsorted(times, times - support, side="right")
    hi = np.searchsorted(times, times, side="left")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    targets = np.repeat(np.arange(n), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sources = np.arange(total) - np.repeat(offsets, counts) + np.repeat(lo, counts)
    return sources, targets


def event_intensities(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Intensity of each event's own dimension at its time (left limits); shape (n,)."""
    _check_dims(model, seq)
    n = len(seq)
    if n == 0:
        return np.empty(0)
    lam = model.mu[seq.marks].astype(np.float64)
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        R = exp_excitation_states(seq.times, seq.marks, model.dim, kern.decay)
        lam = lam + np.einsum("jv,jv->j", R, model.A[:, seq.marks].T)
    elif isinstance(kern, GaussianBasisKernel):
        src, tgt = _pair_arrays(seq.times, kern.support)
        if src.size:
            dts = seq.times[tgt] - seq.times[src]
            dens = kern.density(dts)  # (M, P)
            vals = (dens * model.A[:, seq.marks[src], seq.marks[tgt]]).sum(axis=0)
            lam = lam + np.bincount(tgt, weights=vals, minlength=n)
    elif isinstance(kern, DiscretizedKernel):
        src, tgt = _pair_arrays(seq.times, kern.support)
        if src.size:
            dts = seq.times[tgt] - seq.times[src]
            k = np.minimum((dts / kern.dt).astype(np.int64), kern.n_lags - 1)
            vals = model.A[k, seq.marks[src], seq.marks[tgt]]
            lam = lam + np.bincount(tgt, weights=vals, minlength=n)
    else:
        raise UnsupportedKernelError(f"unknown kernel type {type(kern).__name__}")
    return lam


def event_compensators(model: HawkesModel, seq: EventSequence) -> np.ndarray:
    """Compensator of each event's own dimension from ``t_start`` to its time.

    ``out[j]`` is the integral of ``lambda_{m_j}`` over ``[t_start, t_j]``
    with strictly-past history, so events tied with ``t_j`` add nothing.
    One pass over the sequence: O(n D) for exponential kernels, O(n D +
    pairs within the support) for basis and grid kernels.  Shape (n,).
    """
    _check_dims(model, seq)
    n = len(seq)
    if n == 0:
        return np.empty(0)
    times, marks = seq.times, seq.marks
    out = model.mu[marks] * (times - seq.t_start)
    # cum[i, u]: total infectivity on u of events 0..i-1, each at full mass
    cum = np.zeros((n + 1, model.dim))
    np.cumsum(branching_matrix(model)[marks, :], axis=0, out=cum[1:])
    kern = model.kernel
    if isinstance(kern, ExponentialKernel):
        # full mass of the strict past, less the part not yet spent
        past = np.searchsorted(times, times, side="left")
        R = exp_excitation_states(times, marks, model.dim, kern.decay)
        unspent = np.einsum("jv,jv->j", R, model.A[:, marks].T) / kern.decay
        return out + cum[past, marks] - unspent
    # basis or grid (branching_matrix rejected any other kernel): events at
    # least one support back add their full mass, pairs inside it the
    # kernel's mass up to their lag
    old = np.searchsorted(times, times - kern.support, side="right")
    out = out + cum[old, marks]
    src, tgt = _pair_arrays(times, kern.support)
    if src.size:
        lags = times[tgt] - times[src]
        if isinstance(kern, GaussianBasisKernel):
            vals = (kern.mass(lags) * model.A[:, marks[src], marks[tgt]]).sum(axis=0)
        else:
            cum_area = _step_cum_area(kern, model.A)
            vals = _disc_lag_area(kern, model.A, cum_area, lags, marks[src], marks[tgt])
        out = out + np.bincount(tgt, weights=vals, minlength=n)
    return out


def log_likelihood(model: HawkesModel, seq: EventSequence) -> float:
    """Log-likelihood of the sequence under the model.

    Returns ``-inf`` (as a sentinel, not an error) when some event has zero
    intensity under the model.
    """
    _check_dims(model, seq)
    lam = event_intensities(model, seq)
    if np.any(lam <= 0.0):
        return NEG_INF
    return float(np.log(lam).sum() - window_compensator(model, seq).sum())
