"""Shared helpers: atomic file output, JSON encoding, RNG splitting, and the
three special functions the package needs (normal CDF, its inverse,
log-sum-exp), vectorised in numpy so importing the package loads no scipy.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see partials.

    The file gets the mode ``open(path, "w")`` would give: 0o666 less the
    process umask, applied by the kernel at creation.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj: Any, path: str) -> None:
    """Serialize to JSON with stable key order and round-trip-exact floats."""
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Split a simple comma-separated file into (header, data rows).

    Only handles the quoting-free tables this package emits; an empty file
    or a row of the wrong width raises ``FormatError``.
    """
    from .data import FormatError  # data imports this module

    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise FormatError(f"{path}: empty table")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    return header, rows


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from one seed, stable across runs."""
    return [Generator(PCG64(s)) for s in SeedSequence(seed).spawn(n)]


def make_rng(seed: int) -> np.random.Generator:
    return Generator(PCG64(SeedSequence(seed)))


# ---------------------------------------------------------------------------
# special functions

# Cephes erf/erfc rational approximations (the ones scipy.special.ndtr uses).
# Leading coefficients come first; a leading 1.0 stands for Cephes' p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise; within a few ulp of Cephes' ndtr.

    Each band of |x|/sqrt(2) is gathered by index, evaluated and scattered
    back, and the sign is applied by arithmetic, so no masked select runs
    over the whole input.
    """
    x = np.asarray(x, dtype=np.float64)
    a = x.reshape(-1) * math.sqrt(0.5)
    z = np.abs(a)
    erfc = np.minimum(z, 0.0)  # erfc(|a|); stays 0 where it underflows, NaN at NaN
    inner = np.flatnonzero(z < 1.0)
    t = z[inner]
    erf = t * _polevl(t * t, _ERF_T) / _polevl(t * t, _ERF_U)
    erfc[inner] = 1.0 - erf
    mid = np.flatnonzero((z >= 1.0) & (z < 8.0))
    far = np.flatnonzero(z >= 8.0)
    with np.errstate(over="ignore"):  # z * z = inf past 1e154 fails the bound as it should
        far = far[z[far] * z[far] <= _MAXLOG]
    for band, num, den in ((mid, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        if band.size:  # the far band is usually empty
            u = z[band]
            erfc[band] = (np.exp(-u * u) * _polevl(u, num)) / _polevl(u, den)
    # 1 - erfc/2 above zero, erfc/2 below: s + (1 - 2s) erfc/2 with s = [a > 0]
    s = (a > 0).astype(np.float64)
    y = (1.0 - 2.0 * s) * (0.5 * erfc) + s
    # near 0, 0.5 + erf/2 keeps the digits that 1 - erfc/2 would lose
    near = np.flatnonzero(t < math.sqrt(0.5))
    central = inner[near]
    y[central] = 0.5 + 0.5 * np.copysign(erf[near], a[central])
    return y.reshape(x.shape)


# Wichura's AS241 (PPND16), as in the standard library's NormalDist.inv_cdf.
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.7454501427834140764e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
            1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.51986665636164571966e-2,
            1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
            2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
            7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def ndtri(p) -> np.ndarray:
    """Inverse of :func:`ndtr`, elementwise: -inf at 0, inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 0.180625 - q * q
        central = q * _polevl(r, _AS241_A) / _polevl(r, _AS241_B)
        r = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
        near = _polevl(r - 1.6, _AS241_C) / _polevl(r - 1.6, _AS241_D)
        far = _polevl(r - 5.0, _AS241_E) / _polevl(r - 5.0, _AS241_F)
        tail = np.where(r <= 5.0, near, far)
        x = np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))
    x = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, x))
    return np.where((p >= 0.0) & (p <= 1.0), x, np.nan)


def logsumexp(a, axis=None) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` without overflow; all -inf gives -inf."""
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())[()]
