"""Spectral primitives shared by every module.

Everything lives on the uniform periodic grid sigma_j = 2*pi*j/N.  The
workhorses are the FFT-based mode/grid transforms, a spectrally accurate
periodic antiderivative, nested simplex (iterated) integration with
explicit sigma-polynomial bookkeeping, and safeguarded inversion of
monotone degree-one circle maps.  All functions accept plain ndarrays or
:class:`~closedstring.jets.Jet` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as jz
from .errors import NonMonotone, NotConverged

TAU = 2.0 * np.pi

__all__ = [
    "TAU",
    "grid_sigma",
    "is_power_of_two",
    "ModeVector",
    "modes_to_grid",
    "grid_to_modes",
    "periodic_antiderivative",
    "SigmaPoly",
    "simplex_iterated_integral",
    "MonotoneCircleMap",
    "invert_monotone",
    "trig_interpolate",
]


def grid_sigma(n):
    """Sample points sigma_j = 2*pi*j/n, j = 0..n-1."""
    return TAU * np.arange(n) / n


def is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _int_freqs(n, ndim=1):
    """Integer FFT frequencies shaped to broadcast along axis 0."""
    k = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
    return k.reshape((n,) + (1,) * (ndim - 1))


# ----------------------------------------------------------------------
# mode <-> grid transforms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModeVector:
    """Coefficients c_m for |m| <= k_max of sum_m c_m e^{orientation*i*m*sigma}.

    ``coeffs`` is indexed m = -k_max..k_max (offset by k_max); trailing axes
    are carried through untouched.
    """

    coeffs: np.ndarray
    orientation: int = +1

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")
        if jz.value(self.coeffs).shape[0] % 2 != 1:
            raise ValueError("coeffs must cover m = -k..k (odd first axis)")

    @property
    def k_max(self):
        return (jz.value(self.coeffs).shape[0] - 1) // 2

    def coeff(self, m):
        return self.coeffs[m + self.k_max]


def modes_to_grid(modes: ModeVector, n: int):
    """Evaluate the trigonometric polynomial on the n-grid (exact)."""
    k = modes.k_max
    if n < 2 * k + 2:
        raise ValueError(f"grid size {n} too small for bandwidth {k}")
    if not is_power_of_two(n):
        raise ValueError("grid size must be a power of two")
    trailing = jz.value(modes.coeffs).shape[1:]
    spec = _empty_spectrum((n,) + trailing, modes.coeffs)
    for m in range(-k, k + 1):
        spec[(modes.orientation * m) % n] = modes.coeff(m)
    return jz.ifft(spec, axis=0) * n


def grid_to_modes(grid, k_max: int, orientation: int = +1) -> ModeVector:
    """Fourier coefficients c_m = (1/n) sum_j grid_j e^{-orientation*i*m*sigma_j}."""
    g = grid
    n = jz.value(g).shape[0]
    if k_max > n // 2 - 1:
        raise ValueError(f"k_max {k_max} exceeds n/2 - 1 for n = {n}")
    spec = jz.fft(g, axis=0) / n
    rows = [spec[(orientation * m) % n] for m in range(-k_max, k_max + 1)]
    coeffs = _stack_rows(rows)
    return ModeVector(coeffs, orientation)


def _empty_spectrum(shape, ref):
    if isinstance(ref, jz.Jet):
        return jz.zeros(shape, ref.tan.shape[-1])
    return np.zeros(shape, np.complex128)


def _stack_rows(rows):
    if isinstance(rows[0], jz.Jet):
        return jz.Jet(np.stack([r.val for r in rows]), np.stack([r.tan for r in rows]))
    return np.stack(rows)


# ----------------------------------------------------------------------
# periodic antiderivative
# ----------------------------------------------------------------------

def periodic_antiderivative(values):
    """Split f = mean + oscillatory and integrate the oscillatory part.

    Returns ``(G, mean)`` where G(sigma) = int_0^sigma (f - mean), computed by
    dividing Fourier modes by i*m, so that int_0^sigma f = G(sigma) +
    mean*sigma.  Spectrally accurate for smooth periodic samples.
    """
    n = jz.value(values).shape[0]
    spec = jz.fft(values, axis=0)
    mean = spec[0] / n
    k = _int_freqs(n, jz.value(values).ndim)
    div = 1j * k.astype(np.float64)
    div[0] = 1.0  # zero mode removed below
    g = jz.ifft(spec / div, axis=0)
    g = g - g[0]  # anchor G(0) = 0
    return g, mean


# ----------------------------------------------------------------------
# sigma-polynomial bookkeeping for nested integrals
# ----------------------------------------------------------------------

class SigmaPoly:
    """Function sum_k sigma^k * g_k(sigma) with periodic coefficient grids.

    Cumulative integrals of smooth periodic integrands leave the space of
    periodic grids (means integrate to linear terms); this container keeps
    the sigma-powers explicit so every coefficient stays periodic and the
    spectral antiderivative applies term by term.
    """

    def __init__(self, terms):
        self.terms = dict(terms)  # power -> grid, axis 0 is the sample axis

    @classmethod
    def constant_one(cls, n):
        return cls({0: np.ones(n)})

    def scale_pointwise(self, f):
        """Multiply every coefficient grid pointwise by the grid f."""
        return SigmaPoly({k: g * f for k, g in self.terms.items()})

    def map_terms(self, fn):
        return SigmaPoly({k: fn(g) for k, g in self.terms.items()})

    def cumulative(self):
        """int_0^sigma of self, again as a SigmaPoly (vanishes at 0)."""
        out = {}
        for k, g in self.terms.items():
            osc, mean = _split_mean(g)
            # mean * sigma^k integrates to mean * sigma^{k+1}/(k+1)
            _acc(out, k + 1, _const_grid(mean / (k + 1), g))
            for pw, grid in _cum_power(k, osc).items():
                _acc(out, pw, grid)
        return SigmaPoly(out)

    def end_value(self):
        """Value at sigma = 2*pi (coefficient grids are periodic)."""
        total = 0.0
        for k, g in self.terms.items():
            total = total + (TAU ** k) * g[0]
        return total


def _split_mean(g):
    n = jz.value(g).shape[0]
    spec = jz.fft(g, axis=0)
    mean = spec[0] / n
    return g - mean, mean


def _const_grid(c, ref):
    ones = np.ones(jz.value(ref).shape[0])
    shape_tail = jz.value(ref).ndim - 1
    ones = ones.reshape((-1,) + (1,) * shape_tail)
    return c * ones


def _acc(d, k, g):
    d[k] = d[k] + g if k in d else g


def _cum_power(k, h):
    """int_0^sigma s^k h(s) ds for mean-free periodic h, as power->grid."""
    g, _ = periodic_antiderivative(h)  # exact: h has no mean
    if k == 0:
        return {0: g}
    u, _ = _split_mean(g)
    # integration by parts: sigma^k*(G - mean(G)) - k * int s^{k-1} (G - mean(G))
    out = {k: u}
    for pw, grid in _cum_power(k - 1, u).items():
        _acc(out, pw, -k * grid)
    return out


def simplex_iterated_integral(factors):
    """Iterated integral over 0 <= s_1 <= ... <= s_n <= 2*pi of prod f_i(s_i).

    The first factor is attached to the innermost integration variable.
    Computed by the cumulative recursion G_j = int_0^sigma f_j G_{j-1}, cost
    O(n * N log N) instead of O(N^n).
    """
    grids = [_as_scalar_grid(f) for f in factors]
    if not grids:
        raise ValueError("need at least one factor")
    n = jz.value(grids[0]).shape[0]
    for g in grids:
        if jz.value(g).shape[0] != n:
            raise ValueError("all factors must share one grid")
    acc = SigmaPoly.constant_one(n)
    for f in grids:
        acc = acc.scale_pointwise(f).cumulative()
    out = acc.end_value()
    if isinstance(out, jz.Jet):
        return out
    out = complex(out)
    return out.real if abs(out.imag) <= 1e-9 * (1.0 + abs(out)) else out


def _as_scalar_grid(f):
    g = getattr(f, "values", f)
    if not isinstance(g, jz.Jet):
        g = np.asarray(g)
    if jz.value(g).ndim != 1:
        raise ValueError("factors must be scalar grids")
    return g


# ----------------------------------------------------------------------
# monotone circle maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneCircleMap:
    """Degree-one circle map R stored through its periodic part R(sigma)-sigma.

    The winding relation R(sigma + 2*pi) = R(sigma) + 2*pi holds exactly by
    this representation.  ``deriv`` carries samples of R'.
    """

    periodic: np.ndarray
    deriv: np.ndarray

    @property
    def n_samples(self):
        return jz.value(self.periodic).shape[0]

    def values(self):
        return self.periodic + grid_sigma(self.n_samples)

    def min_deriv(self):
        return float(np.min(jz.value(self.deriv).real))


def trig_interpolate(samples, points, prune=1e-15):
    """Evaluate the trigonometric interpolant of periodic samples at points.

    Modes with |c_m| below ``prune`` times the largest coefficient are
    dropped; exact (to roundoff) for band-limited data.
    """
    n = jz.value(samples).shape[0]
    spec = jz.fft(samples, axis=0) / n
    specv = jz.value(spec)
    mags = np.abs(specv).reshape(n, -1).max(axis=1)
    keep = mags > prune * max(mags.max(), 1e-300)
    freqs = _int_freqs(n)[keep]
    coeffs = spec[keep]
    if isinstance(points, jz.Jet) or isinstance(coeffs, jz.Jet):
        out = np.zeros(jz.value(points).shape + jz.value(spec).shape[1:], complex)
        for i, f in enumerate(freqs):
            phase = np.exp(1j * float(f) * points)
            term = coeffs[i] * phase if jz.value(coeffs[i]).ndim == 0 else _outer(phase, coeffs[i])
            out = out + term
        return out
    basis = np.exp(1j * np.multiply.outer(np.asarray(points, float), freqs.astype(float)))
    return basis @ coeffs


def _outer(phase, row):
    # phase: (P,) jet/array; row: trailing-shaped coefficient
    nd = jz.value(row).ndim
    p = phase
    for _ in range(nd):
        p = p[..., None] if not isinstance(p, jz.Jet) else jz.Jet(p.val[..., None], p.tan[..., None, :])
    return p * row


def invert_monotone(cmap: MonotoneCircleMap, tol=1e-13, max_iter=60):
    """Inverse of a monotone circle map on the uniform grid.

    Each R^{-1}(sigma_j) is found by bisection-bracketed Newton on the
    trigonometric interpolant of the periodic part; derivative samples are
    (R^{-1})' = 1/R' o R^{-1}.  A bracket end moves only on a residual of
    its own strict sign, and a Newton step falls back to bisection only when
    it lands strictly outside the bracket and is larger than ``tol``, so
    converged points stay put and convergence is quadratic: clocks of
    default states (M=8) converge in 4-10 iterations at N=4096.  Raises
    :class:`~closedstring.errors.NotConverged` when ``max_iter`` iterations
    leave some step above ``tol``.
    """
    if cmap.min_deriv() <= 0.0:
        raise NonMonotone(f"min R' = {cmap.min_deriv():.3e} <= 0")
    n = cmap.n_samples
    sigma = grid_sigma(n)
    rho_v = jz.value(cmap.periodic)

    spec = np.fft.fft(rho_v) / n
    mags = np.abs(spec)
    keep = mags > 1e-16 * max(mags.max(), 1e-300)
    keep[0] = True
    freqs = _int_freqs(n)[keep].astype(float)
    coeffs = spec[keep]

    def rho_and_drho(s):
        basis = np.exp(1j * np.multiply.outer(s, freqs))
        return (basis @ coeffs).real, (basis @ (1j * freqs * coeffs)).real

    # the continuum extrema of rho can overshoot the grid extrema between
    # samples; pad the bracket by a bound on that overshoot
    pad = (TAU / n) * (float(np.max(np.abs(jz.value(cmap.deriv) - 1.0))) + 1.0)
    lo = sigma - rho_v.max() - pad
    hi = sigma - rho_v.min() + pad
    s = np.clip(sigma - rho_v, lo, hi)  # R is approx identity + rho
    moved = np.inf
    for _ in range(max_iter):
        r, dr = rho_and_drho(s)
        resid = s + r - sigma
        hi = np.where(resid > 0, np.minimum(hi, s), hi)
        lo = np.where(resid < 0, np.maximum(lo, s), lo)
        step = resid / (1.0 + dr)
        s_new = s - step
        bad = ((s_new < lo) | (s_new > hi)) & (np.abs(step) > tol)
        s_new = np.where(bad, 0.5 * (lo + hi), s_new)
        moved = float(np.max(np.abs(s_new - s)))
        s = s_new
        if moved <= tol:
            break
    else:
        raise NotConverged(f"monotone inversion: last step {moved:.3e} > tol {tol:.1e} "
                           f"after {max_iter} iterations")

    if isinstance(cmap.periodic, jz.Jet):
        # implicit differentiation through the fixed point:
        # dR^{-1} = -(d rho)(R^{-1}) / R'(R^{-1})
        drho_tan = _eval_tangent(cmap.periodic.tan, n, s)
        rp = trig_interpolate(cmap.deriv, s)  # Jet if deriv is a Jet
        rp_val = jz.value(rp).real
        s_jet = jz.Jet(s, -drho_tan / rp_val[..., None])
        inv_deriv = 1.0 / trig_interpolate(cmap.deriv, s_jet)
        return MonotoneCircleMap(periodic=s_jet - sigma, deriv=inv_deriv.real)

    rp = trig_interpolate(jz.value(cmap.deriv), s).real
    return MonotoneCircleMap(periodic=s - sigma, deriv=1.0 / rp)


def _eval_tangent(tan, n, points):
    """Trig-interpolate each tangent seed of a periodic grid at points.

    Frequencies where every seed's coefficient is below 1e-16 of the largest
    are dropped, as in the value branch of :func:`invert_monotone`.
    """
    spec = np.fft.fft(tan, axis=0) / n
    mags = np.abs(spec).max(axis=1)
    keep = mags > 1e-16 * max(mags.max(), 1e-300)
    freqs = _int_freqs(n)[keep].astype(float)
    basis = np.exp(1j * np.multiply.outer(points, freqs))
    return (basis @ spec[keep]).real
