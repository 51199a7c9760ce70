"""Poisson brackets on the truncated mode phase space.

The chart flattens a state into the real vector
(x, p, Re alpha, Im alpha, Re ~alpha, Im ~alpha); the bracket matrix
pairs {x^mu, p^nu} = eta^{mu nu} and {Re alpha_m^mu, Im alpha_m^nu} =
(m/2) eta^{mu nu} per chirality, which reproduces the oscillator brackets
{alpha_m^mu, alpha_n^nu} = -i m eta^{mu nu} delta_{m+n,0}.  These mode
brackets are validated against the smeared canonical pairing before any
invariance claim is trusted.

Every observable carries its exact chart gradient, taken from plain
evaluations.  One that depends on the state only through one chiral field
P_chir on its grid -- a Virasoro mode or window, a Pohlmeyer word -- has
its functional derivative dF/dP_chir(sigma_j) pulled back by one
transposed field transform (reverse mode).  A DDF invariant adds, per
side, the cotangent of its clock R, which becomes a field cotangent through
the oscillators and reaches x and p through k.x and k.p.  Coordinate and
smeared observables are linear and homogeneous in the chart, so one plain
evaluation per chart axis gives each gradient column exactly, and a
product observable takes the product rule.  Every gradient can be
cross-checked against central finite differences, which are also the
route for a function with no known gradient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .ddf import DDFInvariantSpec, _ddf_invariant_reverse, ddf_invariant
from .errors import GradientMismatch
from .numerics import TAU, _half_basis, grid_sigma, grid_to_modes
from .phase_space import (LightlikeFrame, StringState, _eval_field_transpose, _orientation,
                          eta_dot, eval_field, minkowski, position_field, virasoro_density)
from .pohlmeyer import InvariantSpec, _word_cotangent, pohlmeyer_invariant

DEFAULT_OBS_GRID = 512

__all__ = [
    "DEFAULT_OBS_GRID",
    "CoordinateChart",
    "Observable",
    "gradient",
    "finite_difference_gradient",
    "bracket",
    "virasoro_mode",
    "invariance_report",
    "coordinate_observable",
    "pohlmeyer_observable",
    "ddf_invariant_observable",
    "smeared_position_observable",
    "smeared_momentum_observable",
    "product_observable",
    "observable_from_config",
]


# ----------------------------------------------------------------------
# chart
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateChart:
    """Bijective flattening of a state into a real coordinate vector."""

    dim: int
    truncation: int

    @property
    def size(self):
        return 2 * self.dim + 4 * self.truncation * self.dim

    def _blocks(self):
        return _chart_blocks(self.dim, self.truncation)

    def pack(self, state: StringState) -> np.ndarray:
        b = self._blocks()
        y = np.empty(self.size)
        y[b["x"]] = state.x
        y[b["p"]] = state.p
        y[b["re_left"]] = state.left.real.ravel()
        y[b["im_left"]] = state.left.imag.ravel()
        y[b["re_right"]] = state.right.real.ravel()
        y[b["im_right"]] = state.right.imag.ravel()
        return y

    def unpack(self, y, template: StringState) -> StringState:
        b = self._blocks()
        md = (self.truncation, self.dim)
        return template.replace(
            x=np.asarray(y[b["x"]], float),
            p=np.asarray(y[b["p"]], float),
            left=(y[b["re_left"]] + 1j * y[b["im_left"]]).reshape(md),
            right=(y[b["re_right"]] + 1j * y[b["im_right"]]).reshape(md),
        )

    def _field_gradient(self, cot, chirality: str, tension: float) -> np.ndarray:
        """Chart gradient (..., S) of a functional of P_chir alone from its cotangent.

        ``cot`` is dF/dP_chir(sigma_j), shape (..., n, D); the transpose of
        the field evaluation fills the p block and the chirality's oscillator
        blocks, and x and the other chirality stay zero.
        """
        d_alpha0, d_re, d_im = _eval_field_transpose(np.asarray(cot), chirality, self.truncation)
        lead = d_alpha0.shape[:-1]
        b = self._blocks()
        sector = "left" if chirality == "-" else "right"
        out = np.zeros(lead + (self.size,), complex)
        out[..., b["p"]] = d_alpha0 / np.sqrt(2.0 * TAU * tension)  # alpha_0 = p/sqrt(4 pi T)
        out[..., b[f"re_{sector}"]] = d_re.reshape(lead + (-1,))
        out[..., b[f"im_{sector}"]] = d_im.reshape(lead + (-1,))
        return out

    def apply_omega(self, v: np.ndarray) -> np.ndarray:
        """Omega v along the last axis of v, from the blocks, with no S x S matrix.

        eta pairs x with p, and (m/2) eta pairs Re alpha_m with Im alpha_m
        in each sector; every row of Omega has one entry, so the products
        are those of the dense matrix.
        """
        b = self._blocks()
        eta, half_m = _omega_weights(self.dim, self.truncation)
        out = np.empty(np.shape(v), np.result_type(v, float))
        out[..., b["x"]] = eta * v[..., b["p"]]
        out[..., b["p"]] = -eta * v[..., b["x"]]
        for sector in ("left", "right"):
            re, im = b[f"re_{sector}"], b[f"im_{sector}"]
            out[..., re] = half_m * v[..., im]
            out[..., im] = -half_m * v[..., re]
        return out

    def omega(self) -> np.ndarray:
        """Dense bracket matrix Omega^{ab} = {y^a, y^b}; the brackets use :meth:`apply_omega`."""
        return np.column_stack([self.apply_omega(e) for e in np.eye(self.size)])

    def omega_norm(self) -> float:
        """Spectral norm of Omega: max(1, M/2), from its eta and (m/2) eta blocks."""
        return max(1.0, self.truncation / 2.0)

    def labels(self):
        b = self._blocks()
        out = [""] * self.size
        for name, sl in b.items():
            for i, j in enumerate(range(sl.start, sl.stop)):
                if name in ("x", "p"):
                    out[j] = f"{name}[{i}]"
                else:
                    out[j] = f"{name}[m={i // self.dim + 1},mu={i % self.dim}]"
        return out


@lru_cache(maxsize=64)
def _chart_blocks(dim, truncation):
    """Read-only map from block name to chart slice, built once per (dim, M)."""
    d, m = dim, truncation
    edges = np.cumsum([0, d, d, m * d, m * d, m * d, m * d])
    names = ("x", "p", "re_left", "im_left", "re_right", "im_right")
    return MappingProxyType({nm: slice(int(a), int(b)) for nm, a, b in zip(names, edges[:-1], edges[1:])})


@lru_cache(maxsize=64)
def _omega_weights(dim, truncation):
    """Read-only eta and the (m/2) eta of every oscillator block, built once per (dim, M)."""
    eta = minkowski(dim)
    half_m = np.kron(np.arange(1, truncation + 1) / 2.0, eta)
    eta.setflags(write=False)
    half_m.setflags(write=False)
    return eta, half_m


def chart_for(state: StringState) -> CoordinateChart:
    return CoordinateChart(state.dim, state.truncation)


# ----------------------------------------------------------------------
# observables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """Named smooth map StringState -> complex (scalar or array), with its chart gradient.

    ``chart_gradient(state)`` gives the exact gradient on the state's chart,
    shape value.shape + (S,), from plain evaluations.  A function with no known
    gradient gets none: :func:`finite_difference_gradient` reads only
    ``fn``, so it differentiates such a function directly.
    """

    name: str
    fn: object
    chart_gradient: object


def _field_observable(name, fn, chirality, cotangent):
    """Observable of the chiral field P_chir on its grid alone.

    ``cotangent(state)`` gives dF/dP_chir(sigma_j), shape value.shape + (n, D),
    and one transposed field transform takes it to the chart.
    """
    def chart_gradient(state):
        return chart_for(state)._field_gradient(cotangent(state), chirality, state.tension)

    return Observable(name=name, fn=fn, chart_gradient=chart_gradient)


def _linear_observable(name, fn):
    """Observable linear and homogeneous in the chart coordinates y.

    Then F(y) = sum_i y_i F(e_i), so gradient column i is F at the unit
    chart vector e_i: S plain evaluations, exact up to their rounding.
    """
    def chart_gradient(state):
        chart = chart_for(state)
        return np.stack([np.asarray(fn(chart.unpack(e, state)), complex) for e in np.eye(chart.size)],
                        axis=-1)

    return Observable(name=name, fn=fn, chart_gradient=chart_gradient)


def coordinate_observable(chart: CoordinateChart, index: int) -> Observable:
    """The chart coordinate y_index, read from :meth:`CoordinateChart.pack`."""
    index = operator.index(index)
    if not 0 <= index < chart.size:
        raise IndexError(f"chart index {index} is outside 0..{chart.size - 1}")
    return _linear_observable(f"coord:{chart.labels()[index]}",
                              lambda state: chart.pack(state)[index])


def pohlmeyer_observable(spec: InvariantSpec, n_samples=DEFAULT_OBS_GRID) -> Observable:
    word = ",".join(str(i) for i in spec.indices)
    tag = "sym" if spec.symmetrized else "raw"

    def fn(state):
        return pohlmeyer_invariant(eval_field(state, spec.chirality, n_samples), spec)

    def cotangent(state):
        return _word_cotangent(eval_field(state, spec.chirality, n_samples), spec)

    return _field_observable(f"Z[{spec.chirality}]({word},{tag})", fn, spec.chirality, cotangent)


def ddf_invariant_observable(spec: DDFInvariantSpec, frame: LightlikeFrame,
                             n_samples=DEFAULT_OBS_GRID) -> Observable:
    """:func:`~closedstring.ddf.ddf_invariant` as an observable, with its reverse-mode gradient.

    Each side's field cotangent, its clock's part included, goes through one
    transposed field transform; the phi0 and k.p parts of
    :func:`~closedstring.ddf._ddf_invariant_reverse` fill x and p.
    """
    def fn(state):
        return ddf_invariant(state, frame, spec, n_samples)

    def chart_gradient(state):
        dx, dp, sides = _ddf_invariant_reverse(state, frame, spec, n_samples)
        chart = chart_for(state)
        b = chart._blocks()
        out = np.zeros(chart.size, complex)
        out[b["x"]] = dx
        out[b["p"]] = dp
        for chirality, cot in sides.items():
            out += chart._field_gradient(cot, chirality, state.tension)
        return out

    tag = "matched" if spec.is_matched else "unmatched"
    return Observable(name=f"D[L={spec.left},R={spec.right},N={spec.level},{tag}]",
                      fn=fn, chart_gradient=chart_gradient)


def virasoro_mode(chirality: str, m, n_samples=DEFAULT_OBS_GRID) -> Observable:
    """L_m (chirality -) or ~L_m (chirality +) as an observable.

    L_m = (1/2) oint e^{-i m sigma} eta(P_-, P_-) dsigma and the mirrored
    phase for +.  An int m gives the scalar L_m; a sequence of ints gives
    the vector of those L_m, all from one density by one transform:
    L_m = pi c_m with c_m the :func:`~closedstring.numerics.grid_to_modes`
    coefficients of the density.  The functional derivative dL_m/dP(sigma_j) =
    (2 pi/n) e^{-i o m sigma_j} eta P(sigma_j) takes the phase as a (K, n)
    array, so every gradient of a window comes from one plain field
    evaluation and one transposed transform.  |m| <= M keeps the window
    aliasing-safe on the truncated space: the value and the gradient raise
    ValueError on a state of truncation M < max |m|, and take D from it.
    """
    modes = np.atleast_1d(np.asarray(m, dtype=int))
    k_max = int(np.max(np.abs(modes), initial=0))
    o = _orientation(chirality)
    # (K, n): e^{-i o m sigma_j} = cos(|m| sigma_j) - i o sign(m) sin(|m| sigma_j),
    # contiguous along the grid, from one basis row pair per distinct |m|
    freqs, rows = np.unique(np.abs(modes), return_inverse=True)
    cos, sin = np.split(_half_basis(grid_sigma(n_samples), freqs), 2)
    phase = cos[rows] - 1j * (o * np.sign(modes))[:, None] * sin[rows]

    def sampled(evaluate, st):
        if k_max > st.truncation:
            raise ValueError(f"|m| = {k_max} exceeds the truncation M = {st.truncation}")
        return evaluate(st, chirality, n_samples).values

    def fn(st):
        density = sampled(virasoro_density, st)
        out = np.pi * grid_to_modes(density, k_max, o)[modes + k_max]
        return out if np.ndim(m) else out[0]

    def cotangent(st):
        eta_p = minkowski(st.dim) * sampled(eval_field, st)
        out = (TAU / n_samples) * phase[:, :, None] * eta_p
        return out if np.ndim(m) else out[0]

    label = "L" if chirality == "-" else "Lt"
    return _field_observable(f"{label}[{','.join(str(k) for k in modes)}]", fn, chirality, cotangent)


def smeared_position_observable(harmonic: int, kind: str, e: np.ndarray,
                                n_samples=DEFAULT_OBS_GRID) -> Observable:
    """int phi(sigma) eta(e, X(sigma)) dsigma with phi = cos/sin(harmonic*sigma)."""
    phi = _test_function(harmonic, kind, n_samples)
    e = np.asarray(e, float)

    def fn(state):
        x = position_field(state, n_samples).values
        return (eta_dot(x, e) * phi).sum(axis=0) * (TAU / n_samples)

    return _linear_observable(f"smearX[{kind}{harmonic},e={e.tolist()}]", fn)


def smeared_momentum_observable(harmonic: int, kind: str, e: np.ndarray,
                                n_samples=DEFAULT_OBS_GRID) -> Observable:
    """int psi(sigma) eta(e, P(sigma)) dsigma, P = sqrt(T/2)(P_+ + P_-)."""
    psi = _test_function(harmonic, kind, n_samples)
    e = np.asarray(e, float)

    def fn(state):
        total = np.sqrt(state.tension / 2.0) * (eval_field(state, "-", n_samples).values
                                                + eval_field(state, "+", n_samples).values)
        return (eta_dot(total, e) * psi).sum(axis=0) * (TAU / n_samples)

    return _linear_observable(f"smearP[{kind}{harmonic},e={e.tolist()}]", fn)


def _test_function(harmonic, kind, n):
    sig = grid_sigma(n)
    if kind == "cos":
        return np.cos(harmonic * sig)
    if kind == "sin":
        return np.sin(harmonic * sig)
    raise ValueError("kind must be 'cos' or 'sin'")


def product_observable(f: Observable, g: Observable) -> Observable:
    """f * g, with its gradient by the product rule on the factors' gradients."""
    def chart_gradient(state):
        fv, gv = (np.asarray(h.fn(state))[..., None] for h in (f, g))
        return f.chart_gradient(state) * gv + fv * g.chart_gradient(state)

    return Observable(name=f"({f.name})*({g.name})", fn=lambda s: f.fn(s) * g.fn(s),
                      chart_gradient=chart_gradient)


# the keys each observable type reads from its JSON description; a bare
# invariant request (no "type", with "indices") is a "pohlmeyer" one
_CONFIG_KEYS = {
    "pohlmeyer": ("type", "chirality", "indices", "symmetrized", "n"),
    "virasoro": ("type", "chirality", "m", "n"),
    "ddf": ("type", "left", "right", "level", "allow_unmatched", "n"),
}


def _config_flag(cfg, key):
    """A JSON boolean of ``cfg`` (default false); any other value raises TypeError."""
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise TypeError(f"{key!r} must be a JSON boolean (true or false), got {value!r}")
    return value


def observable_from_config(cfg: dict, frame: LightlikeFrame,
                           n_samples=DEFAULT_OBS_GRID) -> Observable:
    """Build an observable from its JSON description (CLI surface).

    Raises ValueError for an unknown type or a key its type does not read
    (a misspelt key would otherwise fall back to its default without a
    word), and TypeError for a flag that is not a JSON boolean.
    """
    if not isinstance(cfg, dict):
        raise TypeError(f"an observable is a JSON object, got {cfg!r}")
    kind = cfg.get("type")
    if kind is None and "indices" in cfg:
        kind = "pohlmeyer"
    if kind not in _CONFIG_KEYS:
        raise ValueError(f"unknown observable type {kind!r}; known: {sorted(_CONFIG_KEYS)}")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS[kind]))
    if unknown:
        raise ValueError(f"unknown keys for a {kind!r} observable: {unknown}; "
                         f"known: {list(_CONFIG_KEYS[kind])}")
    if kind == "pohlmeyer":
        spec = InvariantSpec(chirality=cfg["chirality"], indices=cfg["indices"],
                             symmetrized=_config_flag(cfg, "symmetrized"))
        return pohlmeyer_observable(spec, cfg.get("n", n_samples))
    if kind == "virasoro":
        return virasoro_mode(cfg["chirality"], int(cfg["m"]), cfg.get("n", n_samples))
    spec = DDFInvariantSpec(left=[tuple(t) for t in cfg.get("left", [])],
                            right=[tuple(t) for t in cfg.get("right", [])],
                            level=int(cfg["level"]),
                            allow_unmatched=_config_flag(cfg, "allow_unmatched"))
    return ddf_invariant_observable(spec, frame, cfg.get("n", n_samples))


# ----------------------------------------------------------------------
# gradients and brackets
# ----------------------------------------------------------------------

def gradient(obs: Observable, state: StringState, *, check: bool = True) -> np.ndarray:
    """``obs.chart_gradient`` on the state's chart, shape value.shape + (S,).

    :func:`virasoro_mode`, :func:`pohlmeyer_observable` and
    :func:`ddf_invariant_observable` take the reverse route: their
    derivatives on the field grid (and, for DDF invariants, on the clock and
    phi0), pulled back by transposed transforms, at a cost independent of S.
    Coordinate and smeared observables cost S plain evaluations, and
    products use the product rule.  With ``check`` each element is
    compared against central finite differences with step
    h_i = 1e-5*(1 + |y_i|); disagreement beyond 1e-3 (relative to that
    element's gradient scale) raises GradientMismatch naming the element.
    The observable's own gradient is returned either way.
    """
    grad = obs.chart_gradient(state)
    if check:
        fd = finite_difference_gradient(obs, state)
        scale = np.maximum(np.abs(grad).max(axis=-1, keepdims=True),
                           np.abs(fd).max(axis=-1, keepdims=True)).clip(min=1e-300)
        err = np.abs(grad - fd)
        tol = 1e-3 * (np.abs(grad) + scale)
        if np.any(err > tol):
            *element, worst = np.unravel_index(np.argmax(err - tol), err.shape)
            at = f" element {tuple(int(i) for i in element)}" if element else ""
            raise GradientMismatch(
                f"{obs.name}{at}: component {worst} propagated={grad[(*element, worst)]:.6e} "
                f"fd={fd[(*element, worst)]:.6e}")
    return grad


def finite_difference_gradient(obs: Observable, state: StringState) -> np.ndarray:
    """Central differences of ``obs.fn`` on the state's chart, shape value.shape + (S,).

    Coordinate y_i steps by h_i = 1e-5*(1 + |y_i|).
    Only ``obs.fn`` is read, so this is also the gradient of a function with
    no known chart gradient: pass ``Observable(name, fn, chart_gradient=None)``.
    """
    chart = chart_for(state)
    y0 = chart.pack(state)
    columns = []
    for i in range(chart.size):
        h = 1e-5 * (1.0 + abs(y0[i]))
        yp, ym = y0.copy(), y0.copy()
        yp[i] += h
        ym[i] -= h
        fp = np.asarray(obs.fn(chart.unpack(yp, state)), complex)
        fm = np.asarray(obs.fn(chart.unpack(ym, state)), complex)
        columns.append((fp - fm) / (2.0 * h))
    return np.stack(columns, axis=-1)


def bracket(f: Observable, g: Observable, state: StringState, *, check: bool = True) -> complex:
    """{f, g} = grad f . Omega . grad g on the state's chart (complex bilinear).

    Gradients inherit the finite-difference cross-check (and its
    GradientMismatch) unless ``check`` is disabled.
    """
    gf = gradient(f, state, check=check)
    gg = gradient(g, state, check=check)
    return complex(gf @ chart_for(state).apply_omega(gg))


def _window_gradients(state, chirality, m_window, n_samples):
    """(grad L_m, Omega grad L_m, ||grad L_m||) over -m_window <= m <= m_window, rows by m.

    The one Virasoro window sweep of :func:`invariance_report` and verify's
    Witt suite: every gradient of the window from one reverse pass.
    """
    grads = gradient(virasoro_mode(chirality, range(-m_window, m_window + 1), n_samples),
                     state, check=False)
    return grads, chart_for(state).apply_omega(grads), np.linalg.norm(grads, axis=-1)


def invariance_report(observables, state: StringState, m_window: int,
                      n_samples=DEFAULT_OBS_GRID) -> list:
    """Normalized residues |{obs, L_m}| of each observable over the Virasoro window.

    Returns one row list per observable, in the order given; each list runs
    over chirality "+" then "-" and ascending m.  Residues are
    |{obs, L_m}| / (||grad obs|| ||grad L_m|| ||Omega||), so the pass
    threshold 1e-5 is scale-free.  One sweep takes every L_m gradient of a
    chirality from one window gradient, with Omega grad L_m and its norm,
    once for all observables: k observables over the window |m| <= w cost
    k + 2 gradients, each by its observable's own route (see :func:`gradient`).
    """
    if not 0 <= m_window <= state.truncation // 2:
        raise ValueError("m_window must be in 0..M/2 for an aliasing-safe sweep")
    return _invariance_rows(observables, state, lambda chirality: _window_gradients(
        state, chirality, m_window, n_samples))


def _invariance_rows(observables, state, window):
    """The rows of :func:`invariance_report`, with ``window(chirality)`` giving
    that chirality's :func:`_window_gradients`; it is asked once per chirality."""
    onorm = chart_for(state).omega_norm()
    gobs = [gradient(obs, state, check=False) for obs in observables]
    nobs = [float(np.linalg.norm(g)) for g in gobs]
    reports = [[] for _ in gobs]
    for chirality in ("+", "-"):
        _, omega_gls, nls = window(chirality)
        m_window = (len(nls) - 1) // 2
        for m, omega_gl, nl in zip(range(-m_window, m_window + 1), omega_gls, nls):
            for obs, g, ng, rows in zip(observables, gobs, nobs, reports):
                resid = abs(complex(g @ omega_gl)) / max(ng * float(nl) * onorm, 1e-300)
                rows.append({
                    "observable": obs.name,
                    "m": m,
                    "chirality": chirality,
                    "residue": resid,
                    "pass": bool(resid <= 1e-5),
                })
    return reports
