"""Independent oracles used by the test suite.

These share no machinery with the production paths they check: iterated
integrals are integrated in closed form over Fourier-mode tuples
(sigma^a e^{i b sigma} primitives, exact for band-limited samples),
Virasoro modes come straight from the oscillator bilinears, and DDF modes
are a dense sigma-grid quadrature against e^{-+ i m R(sigma)}, with no clock
inversion and no FFT of the substituted field.  Monotone inverses are
per-point Brent root finds, the substituted field Q is read from field
samples through a dense two-sided interpolant at those roots, and
trigonometric bases are long-double cosines and sines.  Rigid rotations
F(sigma + c) are weight-one pullbacks of the samples by trigonometric
interpolation through a test-local :class:`RotationMap`, not phases on the
modes.  DDF-invariant gradients are checked along oscillator axes by the
exact directional derivative of the quadrature (field and clock are affine
in the oscillators), and along x and p by an eighth-order central stencil;
neither uses a transposed transform.  Normalized brackets are taken pair
by pair through the dense Omega, against Witt targets from the oscillator
bilinears.  Gradients of polynomials of degree <= 4 in the chart (Virasoro
windows, words of degree <= 4) are checked by the five-point central
stencil, exact for them.  Real series synthesized by one ``irfft`` (the
clock, the DDF mode sum) are checked against the complex route, the real
part of the full two-sided ``modes_to_grid`` sum.
"""

import cmath

import numpy as np

TAU = 2.0 * np.pi


def _integrate_exp_poly(a, b):
    """int_0^s sigma^a e^{i b sigma} dsigma as {(power, freq): coeff}."""
    if b == 0:
        return {(a + 1, 0): 1.0 / (a + 1)}
    inv = 1.0 / (1j * b)
    if a == 0:
        return {(0, b): inv, (0, 0): -inv}
    out = {(a, b): inv}
    for (pw, fr), co in _integrate_exp_poly(a - 1, b).items():
        key = (pw, fr)
        out[key] = out.get(key, 0.0) - a * inv * co
    return out


def _integrate_term_dict(term, freq_shift):
    """Integrate sum_{(a,b)} c sigma^a e^{i(b+shift)sigma} from 0 to s."""
    out = {}
    for (a, b), c in term.items():
        for key, co in _integrate_exp_poly(a, b + freq_shift).items():
            out[key] = out.get(key, 0.0) + c * co
    return out


def _grid_modes(values, tol=1e-13):
    """Nonzero integer-frequency Fourier coefficients of the samples."""
    v = np.asarray(values)
    n = v.shape[0]
    spec = np.fft.fft(v) / n
    freqs = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    mags = np.abs(spec)
    keep = mags > tol * max(mags.max(), 1e-300)
    return [(int(f), complex(c)) for f, c in zip(freqs[keep], spec[keep])]


def iterated_integral_modes(factor_values, tol=1e-13):
    """Simplex iterated integral by exhaustive mode-tuple enumeration.

    Enumerates every tuple of numerically nonzero Fourier modes of the n
    factors (an O(K_1*...*K_n) multiple sum, bounded by O(N^n) for N-grids)
    and integrates each exponential product in closed form.  Exact up to
    the aliasing of the input samples.
    """
    mode_lists = [_grid_modes(v, tol) for v in factor_values]

    def recurse(level, term, coeff):
        if level == len(mode_lists):
            # evaluate at s = 2*pi: e^{i b 2 pi} = 1 for integer b
            return coeff * sum(c * TAU ** a for (a, _), c in term.items())
        total = 0.0 + 0.0j
        for f, cf in mode_lists[level]:
            total += recurse(level + 1, _integrate_term_dict(term, f), coeff * cf)
        return total

    return recurse(0, {(0, 0): 1.0}, 1.0 + 0.0j)


def virasoro_mode_direct(state, chirality, m):
    """L_m = (1/2) sum_{j+k=m} eta(alpha_j, alpha_k) from stored modes."""
    eta = np.ones(state.dim)
    eta[0] = -1.0
    mm = state.truncation
    full = np.zeros((2 * mm + 1, state.dim), complex)
    rows = state.left if chirality == "-" else state.right
    full[mm] = state.alpha0
    for j in range(1, mm + 1):
        full[mm + j] = rows[j - 1]
        full[mm - j] = np.conj(rows[j - 1])
    total = 0.0 + 0.0j
    for j in range(-mm, mm + 1):
        k = m - j
        if -mm <= k <= mm:
            total += 0.5 * np.sum(eta * full[mm + j] * full[mm + k])
    return total


def ddf_modes_quadrature(state, frame, chirality, m_out, n):
    """DDF modes |m| <= m_out, rows m = -m_out..m_out, by dense quadrature.

    (1/sqrt(2 pi)) (2 pi/n) sum_j P(sigma_j) e^{-+ i m R(sigma_j)} through a
    (2 m_out + 1) x n exponential matrix: O(n m_out) time and memory.
    """
    from closedstring.ddf import compute_R
    from closedstring.phase_space import eval_field

    rvals = compute_R(state, frame, chirality, n).values()
    field = eval_field(state, chirality, n).values
    sign = -1.0 if chirality == "-" else 1.0
    ms = np.arange(-m_out, m_out + 1, dtype=float)
    weights = np.exp(sign * 1j * np.multiply.outer(ms, rvals))
    return (weights @ field) * (TAU / n) / np.sqrt(TAU)


def clock_by_complex_synthesis(state, frame, chirality, n):
    """(R - sigma, R') on the n-grid as the real parts of two complex ``modes_to_grid`` sums.

    rho = -o phi0 + sum_{m != 0} (-o i/m) d_m e^{o i m sigma} and
    R' = 1 + sum_{m != 0} d_m e^{o i m sigma}, with d_m = a k.alpha_m for
    m >= 1 (tilde alpha for "+"), d_{-m} = conj(d_m), a = sqrt(4 pi T)/k.p
    and phi0 = 4 pi T k.x/k.p.
    """
    from closedstring.numerics import modes_to_grid, real_modes
    from closedstring.phase_space import eta_dot

    o = -1 if chirality == "+" else 1
    kp = eta_dot(frame.k, state.p)
    rows = state.right if chirality == "+" else state.left
    d = eta_dot(rows, frame.k) * (np.sqrt(2.0 * TAU * state.tension) / kp)
    phi0 = 2.0 * TAU * state.tension * eta_dot(frame.k, state.x) / kp
    ms = np.arange(1, rows.shape[0] + 1)
    rho = modes_to_grid(real_modes(-o * phi0, d * (-o * 1j / ms)), n, o).real
    deriv = modes_to_grid(real_modes(1.0, d), n, o).real
    return rho, deriv


def mode_sum_by_complex_synthesis(modes, n):
    """(Re, Im) of (1/sqrt(2 pi)) sum_m A_m e^{+-i m sigma}, each (n, D), from the complex ``modes_to_grid`` sum."""
    from closedstring.numerics import modes_to_grid

    vals = modes_to_grid(modes.modes, n, -1 if modes.chirality == "+" else 1) / np.sqrt(TAU)
    return vals.real, vals.imag


def antiderivative_quad(f, sigma_values, mean):
    """int_0^sigma (f - mean) by scipy adaptive quadrature (test oracle)."""
    from scipy.integrate import quad

    out = []
    for s in sigma_values:
        val, _ = quad(lambda t: f(t) - mean, 0.0, s, limit=400, epsabs=1e-14, epsrel=1e-13)
        out.append(val)
    return np.asarray(out)


def dense_omega(chart):
    """Dense bracket matrix Omega^{ab} = {y^a, y^b}, set entry by entry.

    Chart layout (x, p, Re alpha, Im alpha, Re ~alpha, Im ~alpha), with
    {x^mu, p^nu} = eta^{mu nu} and {Re alpha_m^mu, Im alpha_m^nu} = (m/2) eta^{mu nu}
    in each sector.
    """
    d, big_m = chart.dim, chart.truncation
    eta = np.ones(d)
    eta[0] = -1.0
    omega = np.zeros((chart.size, chart.size))
    for mu in range(d):
        omega[mu, d + mu] = eta[mu]
        omega[d + mu, mu] = -eta[mu]
    for sector in range(2):
        re0 = 2 * d + 2 * sector * big_m * d
        im0 = re0 + big_m * d
        for m in range(1, big_m + 1):
            for mu in range(d):
                i = (m - 1) * d + mu
                omega[re0 + i, im0 + i] = m / 2.0 * eta[mu]
                omega[im0 + i, re0 + i] = -(m / 2.0 * eta[mu])
    return omega


def dense_bracket_residues(chart, grads_f, grads_g, expected):
    """{(i, j): |grad F_i . Omega . grad G_j - H_ij| / (||grad F_i|| ||grad G_j|| ||Omega||_2)}.

    ``grads_f`` and ``grads_g`` map labels to chart gradients and
    ``expected(i, j)`` gives H_ij.  Each bracket is its own product with the
    dense matrix of :func:`dense_omega`, whose spectral norm comes from an
    SVD, pair by pair.
    """
    omega = dense_omega(chart)
    onorm = np.linalg.norm(omega, 2)
    return {(i, j): abs(complex(gf @ (omega @ gg)) - expected(i, j))
            / (np.linalg.norm(gf) * np.linalg.norm(gg) * onorm)
            for i, gf in grads_f.items() for j, gg in grads_g.items()}


def witt_target(state, chirality):
    """(m, k) -> -i (m - k) L_{m+k}, the Witt algebra's bracket, from :func:`virasoro_mode_direct`."""
    return lambda m, k: -1j * (m - k) * virasoro_mode_direct(state, chirality, m + k)


def invert_monotone_brentq(periodic, targets=None):
    """R^{-1}(t) for R(s) = s + rho(s), one scipy brentq root per target t.

    rho is the trigonometric interpolant of the samples ``periodic``, with
    the modes below 1e-15 of the largest dropped, summed mode by mode in
    Python; each root is bracketed by [t - max rho, t - min rho], padded.
    The targets default to the grid points sigma_j of the samples.
    """
    from scipy.optimize import brentq

    modes = _grid_modes(periodic, 1e-15)

    def resid(s, t):
        return s + sum((c * cmath.exp(1j * f * s)).real for f, c in modes) - t

    n = len(periodic)
    pad = 1e-3 + TAU / n
    lo, hi = -np.max(periodic) - pad, -np.min(periodic) + pad
    if targets is None:
        targets = TAU * np.arange(n) / n
    return np.array([brentq(resid, t + lo, t + hi, args=(t,), xtol=1e-15, rtol=4 * np.finfo(float).eps)
                     for t in targets])


def dense_interpolate(samples, points):
    """Trigonometric interpolant of real periodic samples at points, by a dense ``exp``.

    The full two-sided spectrum of the samples (axis 0; one trailing axis
    rides along), frequencies below 1e-15 of the largest dropped, against
    the (points, frequencies) matrix e^{i m s}; the real part takes the
    Nyquist mode as its cosine.
    """
    n = samples.shape[0]
    spec = np.fft.fft(samples, axis=0) / n
    mags = np.abs(spec).reshape(n, -1).max(axis=1)
    keep = mags > 1e-15 * mags.max()
    freqs = np.fft.fftfreq(n, 1.0 / n)[keep]
    return (np.exp(1j * np.multiply.outer(points, freqs)) @ spec[keep]).real


class RotationMap:
    """Rigid rotation phi(sigma) = sigma + c, pullback-compatible."""

    def __init__(self, c):
        self.c = float(c)

    def __call__(self, sigma):
        return np.asarray(sigma, float) + self.c

    def deriv(self, sigma):
        return np.ones_like(np.asarray(sigma, float))

    def on_grid(self, n):
        return self(TAU * np.arange(n) / n), np.ones(n)

    def fixes_base_point(self, tol=1e-12):
        return abs(self.c) % TAU < tol


def substitute_by_samples(state, frame, chirality, n, targets):
    """Q = (R^{-1})' P o R^{-1} at the targets t by the route of field samples.

    P and R' are sampled on the n-grid (``eval_field``, ``compute_R``) and
    read at s = R^{-1}(t) through :func:`dense_interpolate`; s comes from
    :func:`invert_monotone_brentq` on the clock's samples, and
    (R^{-1})'(t) = 1/R'(s).  Returns (len(targets), D).
    """
    from closedstring.ddf import compute_R
    from closedstring.phase_space import eval_field

    cmap = compute_R(state, frame, chirality, n)
    s = invert_monotone_brentq(cmap.periodic, targets)
    field = dense_interpolate(eval_field(state, chirality, n).values, s)
    return field / dense_interpolate(cmap.deriv, s)[:, None]


def basis_longdouble(points, freqs):
    """e^{i m s} for points s (rows) and integer frequencies m (columns), in long double.

    The phase m*s is formed in extended precision from the double points;
    returns the (real, imaginary) parts as long-double arrays.
    """
    phase = np.multiply.outer(np.asarray(points, np.longdouble), np.asarray(freqs, np.longdouble))
    return np.cos(phase), np.sin(phase)


def _ddf_factors(state, frame, spec, n, fields, clocks):
    """Per factor (chirality, mu, m, A_f, e^{-+ i m R}) and the phase phi0 of a DDF invariant."""
    eta = np.ones(state.dim)
    eta[0] = -1.0
    phi0 = TAU * 2.0 * state.tension * np.sum(eta * frame.k * state.x) / np.sum(eta * frame.k * state.p)
    out = []
    for chir, factors in (("-", spec.left), ("+", spec.right)):
        sign = -1.0 if chir == "-" else 1.0
        for mu, m in factors:
            weight = np.exp(sign * 1j * m * clocks[chir])
            out.append((chir, mu, m, np.sqrt(TAU) / n * np.sum(weight * fields[chir][:, mu]), weight))
    return out, phi0


def ddf_invariant_oscillator_derivatives(state, frame, specs, n):
    """Exact derivatives of DDF invariants along every oscillator axis of the chart.

    At fixed x and p the field P and the clock R are affine in the
    oscillators, so for a unit step along one axis the differences dP and dR
    of ``eval_field`` and ``compute_R`` are exact, and the derivative of
    A_f = (sqrt(2 pi)/n) sum_j e^{-i o m R_j} P_j^mu is
    (sqrt(2 pi)/n) sum_j e^{-i o m R_j} (dP_j^mu - i o m P_j^mu dR_j); the
    product rule, one factor at a time, gives the invariant's.  Returns
    (len(specs), 4 M D) in chart order (Re alpha, Im alpha, Re ~alpha,
    Im ~alpha), entry (m - 1) D + mu within each block.
    """
    from closedstring.ddf import compute_R
    from closedstring.phase_space import eval_field

    def evaluate(st):
        fields = {c: eval_field(st, c, n).values for c in "-+"}
        clocks = {c: compute_R(st, frame, c, n, require_monotone=False).values() for c in "-+"}
        return fields, clocks

    fields, clocks = evaluate(state)
    factors = [_ddf_factors(state, frame, spec, n, fields, clocks) for spec in specs]
    out = []
    for sector in ("left", "right"):
        for part in (1.0, 1.0j):
            for m_ax in range(state.truncation):
                for mu_ax in range(state.dim):
                    modes = getattr(state, sector).astype(complex)
                    modes[m_ax, mu_ax] += part
                    dfields, dclocks = evaluate(state.replace(**{sector: modes}))
                    column = []
                    for spec, (facs, phi0) in zip(specs, factors):
                        total = 0.0j
                        for f, (chir, mu, m, _, weight) in enumerate(facs):
                            o = 1.0 if chir == "-" else -1.0
                            dp = dfields[chir][:, mu] - fields[chir][:, mu]
                            dr = dclocks[chir] - clocks[chir]
                            d_a = np.sqrt(TAU) / n * np.sum(weight * (dp - 1j * o * m * fields[chir][:, mu] * dr))
                            others = np.exp(1j * spec.level * phi0)
                            for g, (_, _, m_g, a_g, _) in enumerate(facs):
                                others *= np.exp(-1j * m_g * phi0) * (d_a if g == f else a_g)
                            total += others
                        column.append(total)
                    out.append(column)
    return np.array(out).T


def central_difference_5(fn, y0, i, h):
    """d fn / d y_i at y0 by the five-point central stencil with step h.

    Exact, up to rounding, for polynomials of degree <= 4 in y_i.
    """
    total = 0.0j
    for k, w in enumerate((2.0 / 3.0, -1.0 / 12.0), start=1):
        yp, ym = y0.copy(), y0.copy()
        yp[i] += k * h
        ym[i] -= k * h
        total += w * (fn(yp) - fn(ym))
    return total / h


def stencil_gradient(obs, state, chart):
    """Chart gradient of ``obs.fn`` by :func:`central_difference_5` along every axis.

    The step is h_i = 0.1 (1 + |y_i|): the stencil is exact for observables
    of degree <= 4 in the chart, so a smaller step would only add rounding.
    """
    y0 = chart.pack(state)

    def fn(y):
        return np.asarray(obs.fn(chart.unpack(y, state)), complex)

    return np.stack([central_difference_5(fn, y0, i, 0.1 * (1.0 + abs(y0[i])))
                     for i in range(chart.size)], axis=-1)


def central_difference_8(fn, y0, i, h):
    """d fn / d y_i at y0 by the eighth-order central stencil with step h."""
    weights = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
    total = 0.0j
    for k, w in enumerate(weights, start=1):
        yp, ym = y0.copy(), y0.copy()
        yp[i] += k * h
        ym[i] -= k * h
        total += w * (fn(yp) - fn(ym))
    return total / h
