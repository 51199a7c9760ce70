"""Iterated-integral invariants of the chiral fields and Wilson loops.

The degree-n coefficients

    Z^{mu_1...mu_n} = int_{0 <= s_1 <= ... <= s_n <= 2 pi}
                      P^{mu_1}(s_1) ... P^{mu_n}(s_n) ds

are the Taylor coefficients of the path-ordered Wilson loop of a constant
connection.  The ordering convention is fixed once here: s_1 <= ... <= s_n
with the first index attached to the innermost integral.  Raw coefficients
are invariant under base-point-preserving circle diffeos; full rotation
invariance additionally needs cyclic symmetrization, and both forms are
exposed.

Words evaluated one after another on one field share their prefixes: one
degree-n word costs O(n^2 N log N), the D^n words of degree n in
lexicographic order O(D^{n-1} n N log N) together.  The functional
derivative dZ/dP on the grid, from which :mod:`~closedstring.poisson`
takes a word's chart gradient, costs the same order by Chen's identity
(prefix states times reflected suffix states).
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .ddf import DDFModes, compute_R, ddf_modes, reconstruct_field
from .numerics import (TAU, _acc, _at_two_pi, _end_weights, _integral_to_two_pi,
                       _PrefixIntegrals, _sigma_antiderivative)
from .phase_space import FieldGrid, LightlikeFrame, StringState, _orientation
from .reparam import ReparamMap, pullback_weight_one

__all__ = [
    "InvariantSpec",
    "WilsonConfig",
    "pohlmeyer_invariant",
    "pohlmeyer_via_ddf",
    "align_base_point",
    "wilson_loop",
    "reparam_check",
]


@dataclass(frozen=True)
class InvariantSpec:
    chirality: str
    indices: tuple
    symmetrized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) < 1:
            raise ValueError("need at least one index")
        if self.chirality not in ("+", "-"):
            raise ValueError("chirality must be '+' or '-'")

    @property
    def degree(self):
        return len(self.indices)


def pohlmeyer_invariant(field: FieldGrid, spec: InvariantSpec):
    """Z for one index word; cyclic average over rotations if symmetrized.

    Successive calls on one field reuse the nested integrals of the
    previous word's prefix (see :func:`_prefix_path`), so listing words in
    lexicographic order costs one step per new letter and none for the last;
    the rotations of a symmetrized word share their prefixes the same way.
    """
    vals = field.values
    words = _words(spec, vals.shape[1])
    path = _prefix_path(vals)
    total = 0.0
    for word in words:
        total = total + path.integral(vals, word)
    return total / len(words)


def _words(spec, dim):
    """The word of ``spec``, or all its rotations if symmetrized, checked against ``dim``."""
    if any(i < 0 or i >= dim for i in spec.indices):
        raise IndexError(f"indices out of range for dim {dim}")
    w = spec.indices
    return [w[r:] + w[:r] for r in range(spec.degree)] if spec.symmetrized else [w]


def _word_cotangent(vals, spec):
    """dZ/dP(sigma_j) on (N, D) samples, by Chen's identity.

    dZ_w/dP^{w_k}(sigma) is the prefix state of w[:k] at sigma times the
    suffix integral of w[k+1:] from sigma to 2 pi.  The suffix is the prefix
    state of the reversed word on the reflected field P(2 pi - .), read at
    2 pi - sigma; at sigma = 0 that is its end value at 2 pi, which the
    reflected sigma-polynomial gives (see :func:`_reflect`).  The product
    sum_p sigma^p h_p is weighted by the end weights of each power, so that
    sum_j G[j] dP(sigma_j) = int (dZ/dP) dP dsigma exactly for band-limited
    perturbations.  A symmetrized word averages its rotations.  The prefix
    and suffix states come from two fresh prefix paths, one on P and one on
    the reflected field, each walked once per word, so nothing goes into the
    per-thread memo of :func:`_prefix_path`.  A degree-n word costs
    2n(n - 1) transforms.
    """
    n, dim = vals.shape
    words = _words(spec, dim)
    reflected = vals[-np.arange(n) % n]
    prefix_path, suffix_path = _PrefixIntegrals(), _PrefixIntegrals()
    out = np.zeros((n, dim), complex)
    for word in words:
        prefix = prefix_path.walk(vals, word[:-1])
        # word[:0:-1] is w[1:] reversed, as the reflected field meets it; its
        # state after len(word) - 1 - k letters is that of w[k+1:]
        suffix = suffix_path.walk(reflected, word[:0:-1])
        for k, mu in enumerate(word):
            after = _reflect(suffix[len(word) - 1 - k], n)
            for p, a in prefix[k].items():
                for q, b in after.items():
                    out[:, mu] += _end_weights(n, p + q) * (a * b)
    return out / len(words)


def _reflect(state, n):
    """sum_p (2 pi - s)^p g_p(2 pi - s) as {q: coefficient grid of s^q} on the n-grid.

    g_p is periodic, so g_p(2 pi - sigma_j) is sample -j mod n, and at
    sigma = 0 the sum is the value at 2 pi; (2 pi - s)^p expands binomially.
    """
    out = {}
    back = -np.arange(n) % n
    for p, g in state.items():
        g = g[back] if np.ndim(g) else g
        for q in range(p + 1):
            _acc(out, q, (math.comb(p, q) * TAU ** (p - q) * (-1) ** q) * g)
    return out


_memo = threading.local()


def _prefix_path(vals):
    """The prefix path for one call on the field samples ``vals``.

    One memo entry per thread: the most recent field, matched by identity
    through a weak reference, with the nested-integral states along the
    last word's prefix.  A different field replaces the entry, and the
    states go when their field does, so the memo never outlives the
    caller's field.  The first word on a field keeps no states: it gets a
    throwaway path, since calls that alternate between fields can share no
    prefix, and their states would only add to peak memory.  Only
    read-only arrays (as :class:`FieldGrid` stores them) get a memo entry,
    so the states can never go stale.
    """
    entry = getattr(_memo, "entry", None)
    if entry is not None and entry[0]() is vals:
        return entry[1]
    _memo.entry = None
    if not vals.flags.writeable:
        path = _PrefixIntegrals()
        _memo.entry = (weakref.ref(vals, lambda _: path.clear()), path)
    return _PrefixIntegrals()


def align_base_point(modes: DDFModes, clock) -> DDFModes:
    """Rotate reconstructed modes so the substituted loop starts at sigma = 0.

    The quasi-local field equals the original field pulled back by R^{-1},
    a reparameterization that moves the loop basepoint to R^{-1}(0).  Raw
    signature coefficients feel such a rotation whenever the field has a
    nonzero mean, so the substitution is compared in its base-point-
    preserving form: mode m picks up e^{+-i m R(0)}.
    """
    r0 = clock.values()[0]
    ms = np.arange(-modes.m_max, modes.m_max + 1, dtype=float)
    phases = np.exp((_orientation(modes.chirality) * 1j) * (ms * r0))
    rotated = modes.modes * phases[:, None]
    return DDFModes(chirality=modes.chirality, m_max=modes.m_max, modes=rotated, k=modes.k)


def pohlmeyer_via_ddf(state: StringState, frame: LightlikeFrame, spec: InvariantSpec,
                      m_out: int, n: int, align: bool = True):
    """Invariant evaluated on the DDF-reconstructed quasi-local field.

    With ``align`` (default) the reconstruction is base-point aligned and
    the result matches the direct invariant to truncation accuracy for raw
    and symmetrized words alike; without it only cyclically symmetrized
    words are comparable.
    """
    modes = ddf_modes(state, frame, spec.chirality, m_out, n)
    if align:
        clock = compute_R(state, frame, spec.chirality, n)
        modes = align_base_point(modes, clock)
    field = reconstruct_field(modes, n)
    return pohlmeyer_invariant(field, spec)


# ----------------------------------------------------------------------
# Wilson loops
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WilsonConfig:
    """Constant gauge connection: matrices[mu] is the d x d block A_mu."""

    matrices: np.ndarray  # (dim, d, d) complex
    n_max: int

    def __post_init__(self):
        arr = np.asarray(self.matrices, complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("matrices must have shape (dim, d, d)")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("matrices must be finite")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "matrices", arr)

    @property
    def matrix_dim(self):
        return self.matrices.shape[1]


def wilson_loop(field: FieldGrid, config: WilsonConfig):
    """Truncated path-ordered exponential Tr P exp(int P.A dsigma).

    One cumulative matrix integral per order (never enumerating index
    tuples), the top order closed by end weights; returns (value,
    remainder_bound) with the factorial tail bound (C*||A||)^{n_max+1}/(n_max+1)!,
    C = 2 pi max_sigma sum_mu |P^mu(sigma)|.
    """
    vals = np.asarray(field.values)
    d = config.matrix_dim
    b = np.einsum("nm,mij->nij", vals, config.matrices)

    acc = {0: np.eye(d, dtype=complex)}
    value = complex(d)  # order 0: Tr(identity)
    for _ in range(config.n_max - 1):
        acc = _sigma_antiderivative((k, g @ b) for k, g in acc.items())
        value += complex(np.trace(_at_two_pi(acc)))
    # the top order is needed only at 2 pi, and only its trace: end weights
    # on the sampled Tr(g_k b), no transform and no matrix product
    value += complex(_integral_to_two_pi((k, np.einsum("...ij,...ji->...", g, b))
                                         for k, g in acc.items()))

    c_factor = TAU * float(np.max(np.sum(np.abs(vals), axis=1)))
    a_norm = float(max(np.linalg.norm(m, 2) for m in config.matrices))
    x = c_factor * a_norm
    remainder = x ** (config.n_max + 1) / math.factorial(config.n_max + 1)
    return value, remainder


# ----------------------------------------------------------------------
# reparameterization checks
# ----------------------------------------------------------------------

def reparam_check(field: FieldGrid, cmap: ReparamMap, spec: InvariantSpec):
    """(direct, pulled_back) pair for the invariant under a weight-one pullback.

    Requires a base-point-preserving map unless the word is symmetrized;
    symmetrized words tolerate rigid rotations too.
    """
    if not spec.symmetrized and not cmap.fixes_base_point(tol=1e-10):
        raise ValueError("raw coefficients need a base-point-preserving map")
    direct = pohlmeyer_invariant(field, spec)
    pulled = pohlmeyer_invariant(pullback_weight_one(field, cmap), spec)
    return direct, pulled
