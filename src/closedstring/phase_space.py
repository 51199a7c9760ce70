"""Truncated phase-space points of the classical closed string.

A state holds the zero modes (x, p) and the oscillators alpha_m, tilde
alpha_m for 1 <= m <= M; negative modes are conjugates by construction and
never stored.  The chiral momentum fields are

    P_minus(sigma) = (1/sqrt(2 pi)) sum_m alpha_m  e^{+i m sigma}
    P_plus(sigma)  = (1/sqrt(2 pi)) sum_m ~alpha_m e^{-i m sigma}

with the shared zero mode alpha_0 = p / sqrt(4 pi T), fixed so that the
total momentum integral reproduces p identically.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateFrame
from .numerics import (TAU, _check_bandwidth, _real_series, grid_sigma, grid_to_modes,
                       is_power_of_two, modes_to_grid, periodic_antiderivative, real_modes)

DEFAULT_TENSION = 1.0 / TAU  # alpha' = 1
_INV_SQRT_TAU = 1.0 / np.sqrt(TAU)
DEFAULT_DECAY = 0.7
CHIRALITIES = ("+", "-")

__all__ = [
    "DEFAULT_TENSION",
    "DEFAULT_DECAY",
    "minkowski",
    "eta_dot",
    "LightlikeFrame",
    "default_frame",
    "StringState",
    "FieldGrid",
    "random_state",
    "eval_field",
    "com_momentum",
    "virasoro_density",
    "position_field",
    "state_to_json",
    "state_from_json",
]


# ----------------------------------------------------------------------
# metric
# ----------------------------------------------------------------------

def minkowski(dim: int) -> np.ndarray:
    """Sign vector of diag(-1, +1, ..., +1)."""
    s = np.ones(dim)
    s[0] = -1.0
    return s


def eta_dot(a, b):
    """eta-contraction over the last axis."""
    signs = minkowski(np.shape(b)[-1])
    return ((a * b) * signs).sum(axis=-1)


# ----------------------------------------------------------------------
# frame and state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LightlikeFrame:
    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, float)
        object.__setattr__(self, "k", k)
        if k.ndim != 1 or k.shape[0] < 2:
            raise ValueError("frame vector must have dimension >= 2")
        scale = float(np.max(k * k))
        if scale == 0.0:
            raise ValueError("frame vector must be nonzero")
        if abs(float(eta_dot(k, k))) > 1e-14 * scale:
            raise ValueError("frame vector must be lightlike")
        k.setflags(write=False)


def default_frame(dim: int) -> LightlikeFrame:
    if dim < 2:
        raise ValueError(f"need dim >= 2 for the default frame, got {dim}")
    k = np.zeros(dim)
    k[0] = k[1] = 1.0
    return LightlikeFrame(k)


@dataclass(frozen=True)
class StringState:
    """Point of the truncated mode phase space.

    left/right hold alpha_m resp. ~alpha_m as complex (M, dim) arrays,
    row m-1 for mode number m.  Instances are immutable; operations on
    them are pure functions.
    """

    dim: int
    tension: float
    truncation: int
    x: np.ndarray
    p: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.tension <= 0:
            raise ValueError("tension must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        for name, want in (("x", (self.dim,)), ("p", (self.dim,)),
                           ("left", (self.truncation, self.dim)),
                           ("right", (self.truncation, self.dim))):
            arr = np.asarray(getattr(self, name), float if name in ("x", "p") else complex)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def alpha0(self):
        """Shared zero mode of both chiralities, p / sqrt(4 pi T)."""
        return self.p / np.sqrt(2.0 * TAU * self.tension)

    def modes(self, chirality):
        _check_chirality(chirality)
        return self.left if chirality == "-" else self.right

    def replace(self, **kw):
        return replace(self, **kw)


def _check_chirality(chirality):
    if chirality not in CHIRALITIES:
        raise ValueError(f"chirality must be '+' or '-', got {chirality!r}")


def _orientation(chirality):
    """+1 for P_- (modes e^{+i m sigma}), -1 for P_+ (modes e^{-i m sigma})."""
    _check_chirality(chirality)
    return +1 if chirality == "-" else -1


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Uniform samples of a periodic field on [0, 2*pi); vector or scalar.

    Values are a read-only copy, so no handle can write them and
    invariants cached per field stay valid.  ``bandwidth`` K, when not
    None, promises that the samples are those of a real trigonometric
    polynomial of degree <= K; Pohlmeyer words and Wilson loops then run on
    the smallest grid that is exact for them (see
    :func:`~closedstring.numerics._alias_free_samples`).  :func:`eval_field`
    sets it to the state's truncation M and
    :func:`~closedstring.ddf.reconstruct_field` to the highest |m| with a
    nonzero mode (an exact test, at most m_max; modes read on Q's resolving
    grid N_c give at most N_c/2 - 1); every other producer (pullbacks, the
    direct substitution, grids built from plain samples) leaves it None,
    and words then run on all n samples.

    The field owns its word paths, ``{N': path}`` per thread (see
    :func:`~closedstring.pohlmeyer._prefix_path`), so ``==`` is ``is``, and a
    copy or an unpickled field starts with none.
    """

    values: np.ndarray
    bandwidth: int | None = None

    def __post_init__(self):
        arr = np.array(self.values)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "bandwidth", _check_bandwidth(self.bandwidth, arr.shape[0]))
        object.__setattr__(self, "_word_paths", threading.local())

    def __reduce__(self):
        return FieldGrid, (self.values, self.bandwidth)

    @property
    def n_samples(self):
        return self.values.shape[0]

    def sigma(self):
        return grid_sigma(self.n_samples)


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def random_state(dim, truncation, seed, *, decay=DEFAULT_DECAY, frame=None,
                 margin=0.2, tension=DEFAULT_TENSION, max_retries=64):
    """Seeded random state with guaranteed-monotone clocks.

    Oscillators are complex Gaussian with std ~ e^{-m/decay}/m per component,
    then rescaled by one global factor so min_sigma R'(sigma) >= margin for
    both chiralities on the whole circle, not only on a sample grid
    (rescaling, not rejection).  p is redrawn until k.p is safely nonzero.
    Bit-identical output for identical arguments.
    """
    if dim < 2 or truncation < 1:
        raise ValueError("need dim >= 2 and truncation >= 1")
    if not decay > 0 or not (0.0 < margin < 1.0):  # a NaN decay fails too
        raise ValueError("need decay > 0 and 0 < margin < 1")
    frame = frame or default_frame(dim)
    if frame.k.shape[0] != dim:
        raise ValueError("frame dimension mismatch")
    rng = np.random.default_rng(seed)

    x = rng.standard_normal(dim)
    k = frame.k
    knorm = float(np.linalg.norm(k))
    for _ in range(max_retries):
        p = rng.standard_normal(dim)
        kp = float(eta_dot(k, p))
        if abs(kp) >= 0.1 * knorm * float(np.linalg.norm(p)):
            break
    else:
        raise DegenerateFrame("could not draw p with k.p away from zero")

    std = np.exp(-np.arange(1, truncation + 1) / decay) / np.arange(1, truncation + 1)
    left = (rng.standard_normal((truncation, dim)) + 1j * rng.standard_normal((truncation, dim))) * std[:, None]
    right = (rng.standard_normal((truncation, dim)) + 1j * rng.standard_normal((truncation, dim))) * std[:, None]

    # one global oscillator rescale enforces the margin on both clocks R';
    # R' - 1 is linear in the oscillators, so a lower bound on min R' of the
    # draw carries over to the rescaled state
    from .ddf import compute_R

    draw = StringState(dim=dim, tension=tension, truncation=truncation,
                       x=x, p=p, left=left, right=right)
    n_fine = max(4096, 1 << (64 * truncation - 1).bit_length())
    worst = max(1.0 - _continuum_min(compute_R(draw, frame, chir, n_fine,
                                               require_monotone=False).deriv)
                for chir in CHIRALITIES)
    scale = 1.0 if worst <= (1.0 - margin) else (1.0 - margin) / worst
    return draw.replace(left=left * scale, right=right * scale)


def _continuum_min(samples):
    """Lower bound on the minimum over the circle of a trig polynomial given by n samples.

    The minimiser lies within h/2 of a sample, h = 2 pi/n, and f' vanishes
    there, so that sample exceeds the minimum by at most
    (h/2)^2/2 max|f''| <= (h^2/8) sum_m m^2 |c_m|.  The samples are real, so
    the sum runs over the ``rfft`` half spectrum, c_{-m} = conj(c_m) counted
    by weight 2 for 0 < m < n/2 (the Nyquist row stands for itself).
    """
    n = samples.shape[0]
    m = np.arange(n // 2 + 1)
    weight = np.where((m > 0) & (m < n // 2), 2.0, 1.0)
    curvature = np.sum(weight * m ** 2 * np.abs(np.fft.rfft(samples))) / n
    return float(samples.min()) - (TAU / n) ** 2 / 8.0 * curvature


# ----------------------------------------------------------------------
# field evaluation
# ----------------------------------------------------------------------

def _grid_guard(state, n):
    if not is_power_of_two(n):
        raise ValueError(f"grid size {n} must be a power of two")
    if n < 4 * state.truncation:
        raise ValueError(f"grid size {n} < 4M = {4 * state.truncation}: aliasing in quadratic densities")


def _complex_field(state, chirality, n):
    """sqrt(2 pi) P_chir on the n-grid as complex samples, from the two-sided mode sum.

    Off the production path: verify's ``reality`` suite checks :func:`eval_field` against it.
    """
    _grid_guard(state, n)
    return modes_to_grid(real_modes(state.alpha0, state.modes(chirality)), n, _orientation(chirality))


def _field_half_spectrum(state, chirality):
    """Weights h_m, m = 0..M, of P_chir = Re sum_m h_m e^{+i m sigma}: (M + 1, D).

    h_0 = alpha_0/sqrt(2 pi) and h_m = 2 c_m, with c_m = alpha_m/sqrt(2 pi)
    for P_- and conj(~alpha_m)/sqrt(2 pi) for P_+, whose modes ride on
    e^{-i m sigma}.
    """
    rows = state.modes(chirality)
    if _orientation(chirality) < 0:
        rows = np.conj(rows)
    return np.concatenate([state.alpha0[None], 2.0 * rows]) * _INV_SQRT_TAU


def eval_field(state: StringState, chirality: str, n: int) -> FieldGrid:
    """Samples of the chiral field P_- or P_+ on the n-grid, with bandwidth M.

    A real series like the clock and the DDF mode sum: one ``irfft`` of
    :func:`_field_half_spectrum` by :func:`~closedstring.numerics._real_series`,
    so the samples are real by construction.
    """
    _grid_guard(state, n)
    h = _field_half_spectrum(state, chirality)
    return FieldGrid(_real_series(h[0], h[1:] / 2, n, +1), state.truncation)


def _eval_field_transpose(cot, chirality, truncation):
    """Transpose of :func:`eval_field` on a cotangent, with no seeded state.

    ``cot`` holds dF/dP_chir(sigma_j), shape (..., n, D), complex allowed.
    Returns dF/d alpha_0 (..., D) and dF/d Re alpha_m, dF/d Im alpha_m
    (..., M, D), row m-1 for mode m: with G(m) = sum_j cot_j e^{-i o m sigma_j}
    from one :func:`~closedstring.numerics.grid_to_modes` and c = 1/sqrt(2 pi),
    they are c G(0), c (G(m) + G(-m)) and i c (G(-m) - G(m)).
    """
    n = cot.shape[-2]
    # grid_to_modes divides by n, a power of two, so n * (...) is exact
    spec = n * grid_to_modes(np.moveaxis(cot, -2, 0), truncation, _orientation(chirality))
    spec = np.moveaxis(spec, 0, -2) * _INV_SQRT_TAU
    pos, neg = spec[..., truncation + 1:, :], spec[..., truncation - 1::-1, :]
    return spec[..., truncation, :], pos + neg, 1j * (neg - pos)


def com_momentum(state: StringState, n: int) -> np.ndarray:
    """Center-of-mass momentum integral int P dsigma by periodic trapezoid."""
    pm = eval_field(state, "-", n).values
    pp = eval_field(state, "+", n).values
    total = np.sqrt(state.tension / 2.0) * (pm + pp)
    return total.sum(axis=0) * (TAU / n)


def virasoro_density(state: StringState, chirality: str, n: int) -> FieldGrid:
    """Scalar samples of eta(P_chir, P_chir)."""
    vals = eval_field(state, chirality, n).values
    return FieldGrid(eta_dot(vals, vals))


def position_field(state: StringState, n: int) -> FieldGrid:
    """Samples of X(sigma), reconstructed from X' = (P_+ - P_-)/sqrt(2T).

    The oscillator part comes from the spectral antiderivative; the mean is
    pinned to the stored center of mass x.
    """
    pm = eval_field(state, "-", n).values
    pp = eval_field(state, "+", n).values
    xprime = (pp - pm) / np.sqrt(2.0 * state.tension)
    g, _ = periodic_antiderivative(xprime)
    g = g - g.mean(axis=0)
    return FieldGrid(g + state.x)


# ----------------------------------------------------------------------
# JSON round-trip (schema "stringstate-v1")
# ----------------------------------------------------------------------

def _cpx_rows(arr):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(arr)]


def _rows_cpx(rows, what):
    arr = np.asarray(rows, float)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must be [[ [re, im], ... ], ...]")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(state: StringState) -> str:
    doc = {
        "format": "stringstate-v1",
        "dim": state.dim,
        "tension": float(state.tension),
        "M": state.truncation,
        "x": [float(v) for v in state.x],
        "p": [float(v) for v in state.p],
        "left": _cpx_rows(state.left),
        "right": _cpx_rows(state.right),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def state_from_json(text: str) -> StringState:
    doc = json.loads(text)
    if doc.get("format") != "stringstate-v1":
        raise ValueError(f"unsupported state format {doc.get('format')!r}")
    return StringState(
        dim=int(doc["dim"]),
        tension=float(doc["tension"]),
        truncation=int(doc["M"]),
        x=np.asarray(doc["x"], float),
        p=np.asarray(doc["p"], float),
        left=_rows_cpx(doc["left"], "left"),
        right=_rows_cpx(doc["right"], "right"),
    )
