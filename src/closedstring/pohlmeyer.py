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

Every product, sigma-antiderivative and end weight of a degree-n word on a
field of bandwidth K is a trigonometric polynomial of degree <= nK, so the
word is exact on any grid N' > 2nK.  A :class:`~closedstring.phase_space.FieldGrid`
with a bandwidth runs its words, word gradients and Wilson loops on the
smallest such power of two (N' <= 4nK), strided from its N samples at O(N);
one without runs on all N samples, N' = N.  Words on one field share their
prefixes on the field's own path for N', and words that share their head
w[:n-2] are read from one block: the head's state is stepped once with all
D letters as a trailing axis, and all D^2 words (head, a, b) close together
(see :class:`~closedstring.numerics._PrefixIntegrals`).  One degree-n word
costs O(n^2 N' log N'); the D^n words of degree n in lexicographic order
take D^{n-2} batched steps and closes, O(D^{n-1} n N' log N') transform
work in D^{n-2} calls, plus the walks of their heads.  A word's value does
not depend on the call order or on the route that served it.  The
functional derivative dZ/dP on the N'-grid, from which
:mod:`~closedstring.poisson` takes a word's chart gradient, costs the same
order as one word by Chen's identity (prefix states times reflected suffix
states).  A Wilson loop of order n_max with d x d
matrices costs O(n_max N' d^3 + N D), the N D for its remainder bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# ddf_modes is not called here (pohlmeyer_via_ddf reads its modes from its own
# clock's substitution) but stays bound: perfbench's tracer test checks every binding
from .ddf import (DDFModes, _check_modes, _modes_of, _rotate_modes, _substitution, compute_R,
                  ddf_modes, reconstruct_field)
from .numerics import (TAU, _acc, _alias_free_samples, _at_two_pi, _end_weighted, _end_weights,
                       _PrefixIntegrals, _sample_sum, _sigma_antiderivative)
from .phase_space import FieldGrid, LightlikeFrame, StringState, _check_chirality, _orientation
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
        object.__setattr__(self, "indices", tuple(operator.index(i) for i in self.indices))
        if len(self.indices) < 1:
            raise ValueError("need at least one index")
        _check_chirality(self.chirality)

    @property
    def degree(self):
        return len(self.indices)


def pohlmeyer_invariant(field: FieldGrid, spec: InvariantSpec):
    """Z for one index word; cyclic average over rotations if symmetrized.

    Calls on one field reuse the nested integrals of the field's previous
    word on the same grid and the block of all words that share its head
    (see :func:`_prefix_path`), so listing words in lexicographic order
    costs one batched step per head of the degree.  The value does not
    depend on the order of the calls or on the route that served it.
    """
    words = _words(spec, field.values.shape[1])
    read, columns = _prefix_path(field, spec.degree)
    total = 0.0
    for word in words:
        total = total + read(columns, word)
    return total / len(words)


def _words(spec, dim):
    """The word of ``spec``, or all its rotations if symmetrized, checked against ``dim``."""
    if any(i < 0 or i >= dim for i in spec.indices):
        raise IndexError(f"indices out of range for dim {dim}")
    w = spec.indices
    return [w[r:] + w[:r] for r in range(spec.degree)] if spec.symmetrized else [w]


def _word_cotangent(field, spec):
    """dZ/dP(sigma_j) on the (n', D) samples the word runs on, by Chen's identity.

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
    field's own paths of :func:`_prefix_path`.  A degree-n word costs
    2n(n - 1) transforms on the grid of
    :func:`~closedstring.numerics._alias_free_samples`, n' samples when the
    field has a bandwidth and all n otherwise; the transposed field
    transform reads n' from the cotangent's shape.
    """
    vals = _alias_free_samples(field.values, field.bandwidth, spec.degree)
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


def _prefix_path(field, degree):
    """(read, columns) for one call of words of ``degree`` on ``field``.

    The columns are the field's samples on the N'-grid of
    :func:`~closedstring.numerics._alias_free_samples`, and ``read(columns,
    word)`` gives the word's value from this thread's
    :class:`~closedstring.numerics._PrefixIntegrals` for N' on the field,
    made on first use.  A field whose values were made writable again gets
    a throwaway path, so states and blocks can never go stale.
    """
    columns = _alias_free_samples(field.values, field.bandwidth, degree)
    # this thread's {N': path} on the field, or a throwaway one
    paths = {} if field.values.flags.writeable else vars(field._word_paths)
    path = paths.get(columns.shape[0])
    if path is None:
        path = paths[columns.shape[0]] = _PrefixIntegrals()
    return path.read, columns


def align_base_point(modes: DDFModes, clock) -> DDFModes:
    """Rotate reconstructed modes so the substituted loop starts at sigma = 0.

    The quasi-local field equals the original field pulled back by R^{-1},
    a reparameterization that moves the loop basepoint to R^{-1}(0).  Raw
    signature coefficients feel such a rotation whenever the field has a
    nonzero mean, so the substitution is compared in its base-point-
    preserving form: mode m picks up e^{+-i m R(0)}.
    """
    return _rotate_modes(modes, _orientation(modes.chirality) * clock.values()[0])


def pohlmeyer_via_ddf(state: StringState, frame: LightlikeFrame, spec: InvariantSpec,
                      m_out: int, n: int, align: bool = True):
    """Invariant evaluated on the DDF-reconstructed quasi-local field.

    With ``align`` (default) the reconstruction is base-point aligned and
    the result matches the direct invariant to truncation accuracy for raw
    and symmetrized words alike; without it only cyclically symmetrized
    words are comparable.
    """
    # one clock serves the substitution (the route of ddf_modes) and the alignment
    _check_modes(state, m_out, n)
    clock = compute_R(state, frame, spec.chirality, n)
    modes = _modes_of(_substitution(state, spec.chirality, clock)[1], frame, spec.chirality, m_out)
    if align:
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
        n_max = operator.index(self.n_max)
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "matrices", arr)
        object.__setattr__(self, "n_max", n_max)

    @property
    def matrix_dim(self):
        return self.matrices.shape[1]


def wilson_loop(field: FieldGrid, config: WilsonConfig):
    """Truncated path-ordered exponential Tr P exp(int P.A dsigma).

    One cumulative matrix integral per order (never enumerating index
    tuples), the top order closed by end weights, on the samples of
    :func:`~closedstring.numerics._alias_free_samples` for degree n_max;
    returns (value, remainder_bound) with the factorial tail bound
    (C*||A||)^{n_max+1}/(n_max+1)!, C = 2 pi max_sigma sum_mu |P^mu(sigma)|
    taken over all n samples, since a coarser grid can miss the peak.
    """
    vals = _alias_free_samples(field.values, field.bandwidth, config.n_max)
    d = config.matrix_dim
    b = np.einsum("nm,mij->nij", vals, config.matrices)

    acc = {0: np.eye(d, dtype=complex)}
    value = complex(d)  # order 0: Tr(identity)
    for _ in range(config.n_max - 1):
        acc = _sigma_antiderivative((k, g @ b) for k, g in acc.items())
        value += complex(np.trace(_at_two_pi(acc)))
    # the top order is needed only at 2 pi, and only its trace: end weights
    # on the sampled Tr(g_k b), no transform and no matrix product
    traces = ((k, np.einsum("...ij,...ji->...", g, b)) for k, g in acc.items())
    value += complex(_sample_sum(_end_weighted(b.shape[0], traces)))

    c_factor = TAU * float(np.max(np.sum(np.abs(field.values), axis=1)))
    a_norm = float(max(np.linalg.norm(m, 2) for m in config.matrices))
    x = c_factor * a_norm
    remainder = x ** (config.n_max + 1) / math.factorial(config.n_max + 1)
    return value, remainder


# ----------------------------------------------------------------------
# reparameterization checks
# ----------------------------------------------------------------------

def reparam_check(field: FieldGrid, cmap: ReparamMap, spec: InvariantSpec):
    """(direct, pulled_back) pair for the invariant under a weight-one pullback.

    The pullback is :func:`~closedstring.reparam.pullback_weight_one`, one
    trigonometric interpolation of the field's samples, and the pulled field
    carries no bandwidth, so its word runs on all n samples.  ``cmap`` is a
    circle map with ``__call__``, ``deriv`` and ``fixes_base_point`` (a
    :class:`~closedstring.reparam.ReparamMap`).  It must preserve the base
    point unless the word is symmetrized; symmetrized words tolerate rigid
    rotations too (the verify suite rotates the state's modes instead, which
    is exact).
    """
    if not spec.symmetrized and not cmap.fixes_base_point(tol=1e-10):
        raise ValueError("raw coefficients need a base-point-preserving map")
    direct = pohlmeyer_invariant(field, spec)
    pulled = pohlmeyer_invariant(pullback_weight_one(field, cmap), spec)
    return direct, pulled
