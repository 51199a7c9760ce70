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

so all modes |m| <= m_out come from one FFT of Q on the uniform tau-grid.
Building Q (clock, Newton inversion, interpolation of the band-limited P)
costs O(N M) and the FFT O(N log N), with no m_out x N work array.

Quasi-local fields are recovered either by the mode sum over A_m or by the
direct weight-one substitution through R^{-1}; the two agree up to mode
truncation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, LevelMismatch, NonMonotone
from .numerics import (TAU, MonotoneCircleMap, grid_to_modes, invert_monotone,
                       modes_to_grid, periodic_antiderivative, real_modes,
                       weight_one_pullback)
from .phase_space import (FieldGrid, LightlikeFrame, StringState, _grid_guard, _orientation,
                          _real_field, eta_dot, eval_field, minkowski)

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
        object.__setattr__(self, "left", tuple((int(mu), int(m)) for mu, m in self.left))
        object.__setattr__(self, "right", tuple((int(nu), int(m)) for nu, m in self.right))
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

    rho = R - sigma and R' = (2 pi sqrt(2T)/k.p) k.P_chir both come from
    their modes through :func:`~closedstring.numerics.modes_to_grid`, not
    from differentiating samples; the two agree spectrally and are
    cross-checked in tests.
    """
    _grid_guard(state, n)
    kp = _kp(state, frame)
    orientation = _orientation(chirality)
    rows = state.modes(chirality)
    drows = eta_dot(rows, frame.k) * (np.sqrt(2.0 * TAU * state.tension) / kp)
    ms = np.arange(1, rows.shape[0] + 1)
    rho = modes_to_grid(real_modes(-orientation * zero_mode_phase(state, frame),
                                   drows * (-orientation * 1j / ms)), n, orientation)
    drv = modes_to_grid(real_modes(1.0, drows), n, orientation)
    cmap = MonotoneCircleMap(periodic=rho.real, deriv=drv.real)
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
    O(N log N + N M) time and O(N (M + D)) memory, independent of m_out.
    """
    if m_out < 0:
        raise ValueError("m_out must be >= 0")
    _check_grid(state, m_out, n)
    modes = grid_to_modes(substitute(state, frame, chirality, n), m_out,
                          _orientation(chirality)) * np.sqrt(TAU)
    return DDFModes(chirality=chirality, m_max=m_out, modes=modes, k=frame.k)


def strip_zero_mode(modes: DDFModes, state: StringState, frame: LightlikeFrame) -> DDFModes:
    """Remove the k.x phase: a_m = A_m e^{-i m phi0} (x-independent by construction)."""
    phi0 = zero_mode_phase(state, frame)
    ms = np.arange(-modes.m_max, modes.m_max + 1, dtype=float)
    phases = np.exp(-1j * ms[:, None] * phi0)
    return DDFModes(chirality=modes.chirality, m_max=modes.m_max,
                    modes=modes.modes * phases, k=modes.k)


def _invariant_factors(state, frame, spec, n):
    """phi0, and per chirality with factors (chirality, factors, ms, integrals, weights, field, clock).

    ms lists the distinct mode numbers of that side in ascending order, and
    the rest is :func:`_mode_quadrature` over them.
    """
    if not spec.allow_unmatched and not spec.is_matched:
        raise LevelMismatch("spec is not level-matched")
    phi0 = zero_mode_phase(state, frame)
    sides = []
    for chir, factors in (("-", spec.left), ("+", spec.right)):
        if factors:
            ms = sorted({m for _, m in factors})
            sides.append((chir, factors, ms, *_mode_quadrature(state, frame, chir, ms, n)))
    return phi0, sides


def ddf_invariant(state: StringState, frame: LightlikeFrame, spec: DDFInvariantSpec,
                  n: int):
    """Composite invariant prod a_{m_i}^{mu_i} prod ~a_{~m_j}^{nu_j} e^{i N phi0}.

    Level-matched specs Poisson-commute with both Virasoro families; the
    level phase uses the same phi0 as strip_zero_mode so that matching
    cancels the x-dependence between the two factorizations.
    """
    phi0, sides = _invariant_factors(state, frame, spec, n)
    out = np.exp(1j * float(spec.level) * phi0)
    for _, factors, ms, raw, *_ in sides:
        lookup = {m: i for i, m in enumerate(ms)}
        for mu, m in factors:
            stripped = raw[lookup[m], mu] * np.exp(-1j * float(m) * phi0)
            out = out * stripped
    return out


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
    phi0, sides = _invariant_factors(state, frame, spec, n)
    kp = float(_kp(state, frame))
    eta_k = minkowski(state.dim) * frame.k
    c = np.sqrt(TAU) / n
    a = np.sqrt(2.0 * TAU * state.tension) / kp
    shifts = {m: np.exp(-1j * float(m) * phi0) for _, factors, *_ in sides for _, m in factors}
    # the factors a_f = A_f e^{-i m_f phi0} in the order ddf_invariant multiplies them;
    # prefix[f] holds e^{i N phi0} a_0 ... a_{f-1}, suffix[f] holds a_f ... a_last
    stripped = [raw[ms.index(m), mu] * shifts[m]
                for _, factors, ms, raw, *_ in sides for mu, m in factors]
    prefix = [np.exp(1j * float(spec.level) * phi0)]
    for s in stripped:
        prefix.append(prefix[-1] * s)
    suffix = [1.0 + 0.0j]
    for s in reversed(stripped):
        suffix.append(s * suffix[-1])
    suffix.reverse()
    level_left = spec.level - sum(m for _, factors, *_ in sides for _, m in factors)
    d_phi0 = 1j * level_left * prefix[-1]
    d_kp = 0.0
    out, f = {}, 0
    for chir, factors, ms, _, weights, field, cmap in sides:
        o = _orientation(chir)
        # dF/dA per (distinct m, mu)
        coef = np.zeros((len(ms), state.dim), complex)
        for mu, m in factors:
            coef[ms.index(m), mu] += prefix[f] * suffix[f + 1] * shifts[m]
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
    """Mode-sum quasi-local field, (1/sqrt(2 pi)) sum_m A_m e^{+-i m sigma}."""
    return _real_field(modes_to_grid(modes.modes, n, _orientation(modes.chirality)), 1e-8,
                       "reconstructed field")


def substitute(state: StringState, frame: LightlikeFrame, chirality: str, n: int):
    """Weight-one substituted field Q = (R^{-1})' * P o R^{-1} on the n-grid, (n, D)."""
    cmap = compute_R(state, frame, chirality, n)
    inv = invert_monotone(cmap)
    return weight_one_pullback(eval_field(state, chirality, n).values, inv.values(), inv.deriv)


def reconstruct_field_direct(state: StringState, frame: LightlikeFrame,
                             chirality: str, n: int) -> FieldGrid:
    """Direct substitution (R^{-1})'(sigma) * P(R^{-1}(sigma))."""
    return FieldGrid(substitute(state, frame, chirality, n))


# ----------------------------------------------------------------------
# JSON (schema "ddfmodes-v1")
# ----------------------------------------------------------------------

def ddfmodes_to_json(modes: DDFModes) -> str:
    arr = np.asarray(modes.modes)
    doc = {
        "format": "ddfmodes-v1",
        "chirality": modes.chirality,
        "m_max": modes.m_max,
        "k": [float(v) for v in modes.k],
        "modes": [[[float(z.real), float(z.imag)] for z in row] for row in arr],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def ddfmodes_from_json(text: str) -> DDFModes:
    doc = json.loads(text)
    if doc.get("format") != "ddfmodes-v1":
        raise ValueError(f"unsupported modes format {doc.get('format')!r}")
    arr = np.asarray(doc["modes"], float)
    modes = arr[..., 0] + 1j * arr[..., 1]
    return DDFModes(chirality=doc["chirality"], m_max=int(doc["m_max"]),
                    modes=modes, k=np.asarray(doc["k"], float))
