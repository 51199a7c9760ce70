"""Reparameterization clocks R, DDF modes and invariants, reconstructions.

The clock of each chirality,

    R_-(sigma) = -(4 pi T / k.p) k.X_-(sigma),
    R_+(sigma) = +(4 pi T / k.p) k.X_+(sigma),

is a monotone degree-one circle map (away from a measure-zero set), and the
DDF modes are its Fourier-like integrals

    A_m       = (1/sqrt(2 pi)) int P_-(sigma) e^{-i m R_-(sigma)} dsigma,
    tilde A_m = (1/sqrt(2 pi)) int P_+(sigma) e^{+i m R_+(sigma)} dsigma.

With the paper's change of variables tau = R(sigma), each A_m is a uniform
Fourier coefficient of the weight-one substituted field
Q(tau) = (R^{-1})'(tau) P(R^{-1}(tau)):

    A_m = (1/sqrt(2 pi)) int Q(tau) e^{-+ i m tau} dtau,

so all modes |m| <= m_out come from one FFT of Q on the uniform tau-grid,
a real ``rfft``, as Q is real.  The way back is real too: the clock R and
the mode-sum field are real series, each synthesized by one ``irfft`` of
its half spectrum.
Building Q costs O(iterations N K D) for K <= M + 1 kept frequencies
m >= 0: each Newton step of the inversion evaluates the clock, with R' and
P, on one real basis of width 2K, built and used as one block up to
1.25 MiB and in blocks of 1024 points beyond,
and its last products give (R^{-1})' and P o R^{-1} by one Taylor step, P
read from the state's modes, not from samples.  With the FFTs of the clock
and of Q that is O(N M D + N log N) time and O(N D + block M) memory, with
no m_out x N work array, no (2K, N) basis and no (N, 2M + 1) complex one.

Quasi-local fields are recovered either by the mode sum over A_m or by the
direct weight-one substitution through R^{-1}; the two agree up to mode
truncation.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import DegenerateFrame, LevelMismatch, NonMonotone
from .numerics import (TAU, MonotoneCircleMap, _real_series, grid_to_modes, invert_monotone,
                       periodic_antiderivative)
from .phase_space import (_INV_SQRT_TAU, FieldGrid, LightlikeFrame, StringState, _check_chirality,
                          _cpx_rows, _field_half_spectrum, _grid_guard, _orientation, _rows_cpx,
                          eta_dot, eval_field, minkowski)

__all__ = [
    "DDFModes",
    "DDFInvariantSpec",
    "zero_mode_phase",
    "compute_R",
    "ddf_modes",
    "strip_zero_mode",
    "ddf_invariant",
    "reconstruct_field",
    "reconstruct_field_direct",
    "substitute",
    "ddfmodes_to_json",
    "ddfmodes_from_json",
]


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DDFModes:
    """Complex mode vectors, row m + m_max for mode number m in [-m_max, m_max]."""

    chirality: str
    m_max: int
    modes: np.ndarray  # (2*m_max + 1, dim)
    k: np.ndarray      # frame vector the modes were built with

    def __post_init__(self):
        _check_chirality(self.chirality)
        want = (2 * self.m_max + 1, len(self.k))
        if np.shape(self.modes) != want:
            raise ValueError(f"modes must have shape {want}, got {np.shape(self.modes)}")

    def mode(self, m):
        if abs(m) > self.m_max:
            raise IndexError(f"|m| = {abs(m)} exceeds m_max = {self.m_max}")
        return self.modes[m + self.m_max]

    @property
    def dim(self):
        return self.modes.shape[1]


@dataclass(frozen=True)
class DDFInvariantSpec:
    """Factor lists [(mu_i, m_i)] / [(nu_j, ~m_j)] and the level N.

    Level matching sum(m_i) = N = sum(~m_j) is enforced at construction
    unless ``allow_unmatched`` is set (negative-control invariants).
    """

    left: tuple
    right: tuple
    level: int
    allow_unmatched: bool = False

    def __post_init__(self):
        object.__setattr__(self, "level", operator.index(self.level))
        object.__setattr__(self, "left", tuple((operator.index(mu), operator.index(m))
                                               for mu, m in self.left))
        object.__setattr__(self, "right", tuple((operator.index(nu), operator.index(m))
                                                for nu, m in self.right))
        if not self.allow_unmatched and not self.is_matched:
            raise LevelMismatch(
                f"sum(left)={self.left_sum}, sum(right)={self.right_sum}, level={self.level}")

    @property
    def left_sum(self):
        return sum(m for _, m in self.left)

    @property
    def right_sum(self):
        return sum(m for _, m in self.right)

    @property
    def is_matched(self):
        return self.left_sum == self.level == self.right_sum


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------

def _kp(state, frame):
    kp = eta_dot(frame.k, state.p)
    if abs(float(kp)) < 1e-12:
        raise DegenerateFrame("k.p vanishes for this state")
    return kp


def zero_mode_phase(state: StringState, frame: LightlikeFrame):
    """phi0 = (4 pi T / k.p) k.x, the x-dependent phase carried by both clocks."""
    return (2.0 * TAU * state.tension) * eta_dot(frame.k, state.x) / _kp(state, frame)


def compute_R(state: StringState, frame: LightlikeFrame, chirality: str, n: int,
              require_monotone: bool = True) -> MonotoneCircleMap:
    """The clock R_chir on the n-grid, with its derivative samples.

    rho = R - sigma and R' = (2 pi sqrt(2T)/k.p) k.P_chir are real series,
    both synthesized from their half spectra as two columns of one ``irfft``
    (:func:`~closedstring.numerics._real_series`), not by differentiating
    samples; the two agree spectrally and are cross-checked in tests.  The
    map carries bandwidth M, so its inversion reads both back from their
    alias-free samples.  Cost O(N log N + N M).
    """
    _grid_guard(state, n)
    kp = _kp(state, frame)
    orientation = _orientation(chirality)
    rows = state.modes(chirality)
    drows = eta_dot(rows, frame.k) * (np.sqrt(2.0 * TAU * state.tension) / kp)
    ms = np.arange(1, rows.shape[0] + 1)
    both = _real_series(np.array([-orientation * zero_mode_phase(state, frame), 1.0]),
                        np.stack([drows * (-orientation * 1j / ms), drows], axis=1),
                        n, orientation)
    rho, drv = np.ascontiguousarray(both.T)
    cmap = MonotoneCircleMap(periodic=rho, deriv=drv, bandwidth=rows.shape[0])
    if require_monotone and cmap.min_deriv() <= 0.0:
        raise NonMonotone(f"min R' = {cmap.min_deriv():.3e} <= 0 for chirality {chirality}")
    return cmap


# ----------------------------------------------------------------------
# DDF modes
# ----------------------------------------------------------------------

def _check_grid(state, m_out, n):
    if n < 8 * max(state.truncation, m_out, 1):
        raise ValueError("grid size must be >= 8*max(M, m_out) for the clock quadrature")


def _mode_quadrature(state, frame, chirality, ms, n):
    """Quadrature of (1/sqrt(2 pi)) int P e^{-+ i m R} dsigma for each m in ms, with its pieces.

    Returns (integrals (len(ms), D), weights e^{-+ i m R(sigma_j)} (len(ms), n),
    field samples P(sigma_j) (n, D), clock).  Costs O(len(ms) N); it serves the
    few-mode composite invariants, whose reverse-mode gradient reuses the
    pieces.
    """
    _check_grid(state, max((abs(m) for m in ms), default=1), n)
    cmap = compute_R(state, frame, chirality, n)
    rvals = cmap.values()
    field = eval_field(state, chirality, n).values
    marr = np.asarray(ms, float)
    weights = np.exp(-_orientation(chirality) * 1j * marr[:, None] * rvals[None, :])
    return (weights @ field) * (TAU / n) / np.sqrt(TAU), weights, field, cmap


def ddf_modes(state: StringState, frame: LightlikeFrame, chirality: str,
              m_out: int, n: int) -> DDFModes:
    """All DDF modes |m| <= m_out of one chirality.

    A_m = sqrt(2 pi) c_m, with c_m the :func:`~closedstring.numerics.grid_to_modes`
    coefficients of the substituted field Q of :func:`substitute`
    (orientation +1 for chirality "-", -1 for "+"): the
    uniform tau-grid quadrature of the tau = R(sigma) integral.  Cost
    O(N log N + N M D) time and O(N D + block M) memory, the basis built in
    blocks of 1024 points when one block would pass 1.25 MiB
    (:func:`~closedstring.numerics.invert_monotone`),
    independent of m_out.
    """
    _check_modes(state, m_out, n)
    return _modes_of(substitute(state, frame, chirality, n), frame, chirality, m_out)


def _check_modes(state, m_out, n):
    if m_out < 0:
        raise ValueError("m_out must be >= 0")
    _check_grid(state, m_out, n)


def _modes_of(q, frame, chirality, m_out):
    """DDFModes |m| <= m_out from the substituted field Q of :func:`_substitution`."""
    modes = grid_to_modes(q, m_out, _orientation(chirality)) * np.sqrt(TAU)
    return DDFModes(chirality=chirality, m_max=m_out, modes=modes, k=frame.k)


def strip_zero_mode(modes: DDFModes, state: StringState, frame: LightlikeFrame) -> DDFModes:
    """Remove the k.x phase: a_m = A_m e^{-i m phi0} (x-independent by construction)."""
    return _rotate_modes(modes, -zero_mode_phase(state, frame))


def _rotate_modes(modes, theta):
    """Mode m times e^{i m theta}: :func:`reconstruct_field` moves from sigma to sigma +- theta."""
    ms = np.arange(-modes.m_max, modes.m_max + 1, dtype=float)
    return replace(modes, modes=modes.modes * np.exp(1j * (ms * theta))[:, None])


def _invariant_factors(state, frame, spec, n):
    """phi0, the stripped factors with their phases, and the pieces of each side.

    The factors a_f = A_f e^{-i m_f phi0} and phases e^{-i m_f phi0} are two
    lists in spec order, left then right.  Per chirality with factors, the
    side is (chirality, factors, ms, weights, field, clock): ms lists the
    distinct mode numbers of that side in ascending order, and the rest is
    :func:`_mode_quadrature` over them.  A factor index mu outside
    0..D-1 raises IndexError.
    """
    if not spec.allow_unmatched and not spec.is_matched:
        raise LevelMismatch("spec is not level-matched")
    for factor in spec.left + spec.right:
        if not 0 <= factor[0] < state.dim:
            raise IndexError(f"factor {factor} has mu outside 0..{state.dim - 1} (D = {state.dim})")
    phi0 = zero_mode_phase(state, frame)
    stripped, phases, sides = [], [], []
    for chir, factors in (("-", spec.left), ("+", spec.right)):
        if factors:
            ms = sorted({m for _, m in factors})
            raw, *pieces = _mode_quadrature(state, frame, chir, ms, n)
            for mu, m in factors:
                phases.append(np.exp(-1j * float(m) * phi0))
                stripped.append(raw[ms.index(m), mu] * phases[-1])
            sides.append((chir, factors, ms, *pieces))
    return phi0, stripped, phases, sides


def ddf_invariant(state: StringState, frame: LightlikeFrame, spec: DDFInvariantSpec,
                  n: int):
    """Composite invariant prod a_{m_i}^{mu_i} prod ~a_{~m_j}^{nu_j} e^{i N phi0}.

    Level-matched specs Poisson-commute with both Virasoro families; the
    level phase uses the same phi0 as strip_zero_mode so that matching
    cancels the x-dependence between the two factorizations.
    """
    phi0, stripped, _, _ = _invariant_factors(state, frame, spec, n)
    return reduce(operator.mul, stripped, np.exp(1j * float(spec.level) * phi0))


def _ddf_invariant_reverse(state: StringState, frame: LightlikeFrame, spec: DDFInvariantSpec,
                           n: int):
    """Derivatives of :func:`ddf_invariant` F by reverse mode, from one plain evaluation.

    With F = e^{i N phi0} prod_f A_f e^{-i m_f phi0}, A_f = c sum_j E_f[j]
    P^{mu_f}(sigma_j), E_f = e^{-i o m_f R(sigma_j)}, c = sqrt(2 pi)/n and
    w_f = dF/dA_f (a product of the other factors, formed without
    division), each side's cotangents are

        G_P[j, mu_f] += w_f c E_f[j],
        G_R[j]       += w_f c (-i o m_f) E_f[j] P^{mu_f}(sigma_j).

    Over the oscillators the clock is R - sigma = -o phi0 + a sqrt(2 pi)
    A0[eta(k, P)], a = sqrt(4 pi T)/k.p, with A0 the zero-mean spectral
    antiderivative; A0^T = -A0, so the clock adds the field cotangent
    -a sqrt(2 pi) (A0 G_R) (eta k) to G_P.  phi0 = 4 pi T k.x/k.p enters R
    as -o phi0, and the oscillator part rho + o phi0 of R scales as 1/k.p, so

        dF/dphi0 = i (N - sum m_f) F - sum_sides o sum_j G_R[j],
        dF/dk.p  = -sum_sides sum_j G_R[j] (rho_j + o phi0)/k.p - (phi0/k.p) dF/dphi0.

    Returns (dx, dp, sides): dF/dx and the k.p part of dF/dp, each (D,),
    and per chirality with factors its field cotangent dF/dP_chir(sigma_j)
    (n, D), clock part included, for the transposed field transform.  The
    value and all pieces (E_f, P, R) come from the evaluation
    :func:`ddf_invariant` makes, so with K distinct m per side a gradient
    costs O(K D N + D N log N), whatever M.
    """
    phi0, stripped, phases, sides = _invariant_factors(state, frame, spec, n)
    kp = float(_kp(state, frame))
    eta_k = minkowski(state.dim) * frame.k
    c = np.sqrt(TAU) / n
    a = np.sqrt(2.0 * TAU * state.tension) / kp
    # prefix[f] holds e^{i N phi0} a_0 ... a_{f-1}, as ddf_invariant multiplies
    # them, and suffix[f] holds a_f ... a_last
    prefix = list(accumulate(stripped, operator.mul,
                             initial=np.exp(1j * float(spec.level) * phi0)))
    suffix = [1.0 + 0.0j]
    for s in reversed(stripped):
        suffix.append(s * suffix[-1])
    suffix.reverse()
    level_left = spec.level - sum(m for _, factors, *_ in sides for _, m in factors)
    d_phi0 = 1j * level_left * prefix[-1]
    d_kp = 0.0
    out, f = {}, 0
    for chir, factors, ms, weights, field, cmap in sides:
        o = _orientation(chir)
        # dF/dA per (distinct m, mu)
        coef = np.zeros((len(ms), state.dim), complex)
        for mu, m in factors:
            coef[ms.index(m), mu] += prefix[f] * suffix[f + 1] * phases[f]
            f += 1
        marr = np.asarray(ms, float)
        g_r = c * ((-1j * o * marr)[:, None] * weights * (coef @ field.T)).sum(axis=0)
        a0_g_r, _ = periodic_antiderivative(g_r)
        a0_g_r = a0_g_r - a0_g_r.mean()
        out[chir] = c * (weights.T @ coef) - (a * np.sqrt(TAU)) * a0_g_r[:, None] * eta_k
        d_phi0 -= o * g_r.sum()
        d_kp -= np.dot(g_r, cmap.periodic + o * phi0) / kp
    d_kp -= (phi0 / kp) * d_phi0
    return d_phi0 * (2.0 * TAU * state.tension / kp) * eta_k, d_kp * eta_k, out


# ----------------------------------------------------------------------
# reconstructions
# ----------------------------------------------------------------------

def reconstruct_field(modes: DDFModes, n: int) -> FieldGrid:
    """Mode-sum quasi-local field, (1/sqrt(2 pi)) sum_m A_m e^{+-i m sigma}, of bandwidth m_max.

    The field is real: its samples are the real series of the Hermitian part
    (A_m + conj A_{-m})/2, m >= 0, from one ``irfft``
    (:func:`~closedstring.numerics._real_series`), which is the real part of
    the complex mode sum.  The rest, the anti-Hermitian part, is checked on
    the modes: its sum :func:`_non_real_bound` bounds max|Im| of the complex
    sum from above, and must stay within 1e-8 of max|field|.  Cost
    O(N log N + m_max D).
    """
    k = modes.m_max
    herm = (modes.modes[k:] + np.conj(modes.modes[k::-1])) * 0.5
    values = _real_series(herm[0], herm[1:], n, _orientation(modes.chirality)) * _INV_SQRT_TAU
    resid = _non_real_bound(modes.modes) / max(float(np.max(np.abs(values))), 1e-300)
    if resid > 1e-8:
        raise ValueError(f"reconstructed field has relative non-real residue {resid:.3e}")
    return FieldGrid(values, k)


def _non_real_bound(modes):
    """sum_{m>=0} max_mu |A_m - conj A_{-m}| / sqrt(2 pi), for rows m = -k..k of ``modes``.

    i Im of (1/sqrt(2 pi)) sum_m A_m e^{+-i m sigma} is the same sum over the
    anti-Hermitian parts K_m = (A_m - conj A_{-m})/2, m = -k..k, and
    |K_{-m}| = |K_m|, so this bounds max|Im| on any grid from above.
    """
    k = (modes.shape[0] - 1) // 2
    return float(np.sum(np.max(np.abs(modes[k:] - np.conj(modes[k::-1])), axis=1))) * _INV_SQRT_TAU


def substitute(state: StringState, frame: LightlikeFrame, chirality: str, n: int):
    """Weight-one substituted field Q = (R^{-1})' * P o R^{-1} on the n-grid, (n, D).

    P is read from the inversion's own basis: its half spectrum from the
    state's modes (:func:`~closedstring.phase_space._field_half_spectrum`) rides
    through :func:`~closedstring.numerics.invert_monotone`, which returns
    P(s_j) at s_j = R^{-1}(sigma_j) with (R^{-1})'(sigma_j) = 1/R'(s_j); so
    Q = P(s)/R'(s), with no field samples and no FFT of P.
    """
    return _substitution(state, chirality, compute_R(state, frame, chirality, n))[1]


def _substitution(state, chirality, cmap):
    """(R^{-1}, Q) from one inversion of the clock ``cmap`` carrying P: the one substitution route."""
    inverse, field = invert_monotone(cmap, _field_half_spectrum(state, chirality))
    return inverse, field * inverse.deriv[:, None]


def reconstruct_field_direct(state: StringState, frame: LightlikeFrame,
                             chirality: str, n: int) -> FieldGrid:
    """Direct substitution (R^{-1})'(sigma) * P(R^{-1}(sigma))."""
    return FieldGrid(substitute(state, frame, chirality, n))


# ----------------------------------------------------------------------
# JSON (schema "ddfmodes-v1")
# ----------------------------------------------------------------------

def ddfmodes_to_json(modes: DDFModes) -> str:
    doc = {
        "format": "ddfmodes-v1",
        "chirality": modes.chirality,
        "m_max": modes.m_max,
        "k": [float(v) for v in modes.k],
        "modes": _cpx_rows(modes.modes),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def ddfmodes_from_json(text: str) -> DDFModes:
    doc = json.loads(text)
    if doc.get("format") != "ddfmodes-v1":
        raise ValueError(f"unsupported modes format {doc.get('format')!r}")
    return DDFModes(chirality=doc["chirality"], m_max=int(doc["m_max"]),
                    modes=_rows_cpx(doc["modes"], "modes"), k=np.asarray(doc["k"], float))
