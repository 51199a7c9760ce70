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
prefixes on the field's own path for N', and words that share a head w[:h]
are read from one block: the head's state steps each of the n - 1 - h
letters after it as one more trailing axis of all D letters, and all
D^(n-h) words under it close together (see
:class:`~closedstring.numerics._PrefixIntegrals`).  The head is the shortest
whose block fits N' D^(n-h) <= 2^16 elements, and w[:n-2] (D^2 words) when
none does: a banded D = 4 field reads each degree to 4 from one block, and
D = 26 keeps blocks of D^2 words.  One degree-n word costs
O(n^2 N' log N'); the D^n words of degree n in lexicographic order cost
O(D^{n-1} n N' log N') transform work whatever h is, in D^h blocks of
n - 1 - h batched steps each, plus the walks of their heads.
:func:`pohlmeyer_invariants` takes many specs at once: it reads the distinct
raw words they need (every rotation of a symmetrized spec) once each, in
that order, so a sweep of symmetrized words costs the lexicographic sweep
of the raw words their rotations cover; spec by spec, rotations under a
head of one letter or more go mostly word by word, and all the necklaces
of degree 2-3 at D = 26 take about 35 times longer.
:func:`pohlmeyer_invariant` is its one-spec case: a raw word is one letter
check and one read, a symmetrized one the sweep of its rotations.  The
fields are real, so every state of a word is a real grid, stepped by real
transforms (``rfft``/``irfft`` on the half spectrum); a Wilson loop's matrix
states are complex and take ``fft``/``ifft`` in the same routine.  A word's value does
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
from dataclasses import dataclass, field as dataclass_field

import numpy as np

# ddf_modes is not called here (pohlmeyer_via_ddf reads its modes from its own
# inversion) but stays bound: perfbench's tracer test checks every binding
from .ddf import (DDFModes, _check_grid, _invert, _modes_of, _rotate_modes, ddf_modes,
                  reconstruct_field)
from .numerics import (TAU, _acc, _alias_free_samples, _alias_free_size, _at_two_pi, _end_weighted,
                       _end_weights, _PrefixIntegrals, _sample_sum, _sigma_antiderivative)
from .phase_space import FieldGrid, LightlikeFrame, StringState, _check_chirality, _orientation
from .reparam import ReparamMap, pullback_weight_one

__all__ = [
    "InvariantSpec",
    "WilsonConfig",
    "pohlmeyer_invariant",
    "pohlmeyer_invariants",
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
        object.__setattr__(self, "indices", tuple(map(operator.index, self.indices)))
        if not self.indices:
            raise ValueError("need at least one index")
        _check_chirality(self.chirality)

    @property
    def degree(self):
        return len(self.indices)


def pohlmeyer_invariant(field: FieldGrid, spec: InvariantSpec):
    """Z for one index word; cyclic average over rotations if symmetrized.

    The one-spec case of :func:`pohlmeyer_invariants`, with the same value
    bit for bit: a raw word is one letter check and one read on the field's
    path for its degree (see :func:`_prefix_path`), and a symmetrized word is
    ``pohlmeyer_invariants(field, [spec])[0]``.  Calls on one field reuse
    the nested integrals of the field's previous word on the same grid and
    the block of all words that share its head, so listing words in
    lexicographic order costs one batched step per head of the degree.  The
    value does not depend on the order of the calls or on the route that
    served it.
    """
    if spec.symmetrized:
        return pohlmeyer_invariants(field, [spec])[0]
    word = spec.indices
    _check_letters(word, field.values.shape[1])
    return _prefix_path(field, len(word)).read(word)


def pohlmeyer_invariants(field: FieldGrid, specs) -> list:
    """[pohlmeyer_invariant(field, s) for s in specs], equal bit for bit, read word block by block.

    Every spec's letters are checked against the field's D before any word
    is read (IndexError).  The distinct raw words the specs need (a raw
    spec's word, all rotations of a symmetrized one) are read degree by
    degree in lexicographic order from the field's path for the degree
    (:func:`_prefix_path`), where siblings come from the blocks of their
    heads; a symmetrized spec then sums its rotations' values in rotation
    order and divides by their count.  A sweep of symmetrized specs thus
    costs the lexicographic sweep of the raw words their rotations cover,
    each read once however many specs share it: all D^n words of degree n
    take O(D^{n-1} n N' log N') transform work.  Spec by spec, rotations
    under heads of one letter or more go mostly word by word, O(n^2 N' log N')
    each.
    """
    dim = field.values.shape[1]
    wanted = [(spec.symmetrized, _words(spec, dim)) for spec in specs]
    by_degree = {}
    for _, words in wanted:
        by_degree.setdefault(len(words[0]), set()).update(words)
    values = {}
    for degree in sorted(by_degree):
        read = _prefix_path(field, degree).read
        for word in sorted(by_degree[degree]):
            values[word] = read(word)
    out = []
    for symmetrized, words in wanted:
        if symmetrized:
            total = 0.0
            for word in words:
                total = total + values[word]
            out.append(total / len(words))
        else:
            out.append(values[words[0]])
    return out


def _check_letters(word, dim):
    if min(word) < 0 or max(word) >= dim:
        raise IndexError(f"indices out of range for dim {dim}")


def _words(spec, dim):
    """The word of ``spec``, or all its rotations if symmetrized, checked against ``dim``."""
    w = spec.indices
    _check_letters(w, dim)
    return [w[r:] + w[:r] for r in range(len(w))] if spec.symmetrized else [w]


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
    prefix_path, suffix_path = _PrefixIntegrals(vals), _PrefixIntegrals(reflected)
    out = np.zeros((n, dim), complex)
    for word in words:
        prefix = prefix_path.walk(word[:-1])
        # word[:0:-1] is w[1:] reversed, as the reflected field meets it; its
        # state after len(word) - 1 - k letters is that of w[k+1:]
        suffix = suffix_path.walk(word[:0:-1])
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
    """This thread's prefix path for words of ``degree`` on ``field``.

    The path is a :class:`~closedstring.numerics._PrefixIntegrals` that owns
    the field's samples on the N'-grid of
    :func:`~closedstring.numerics._alias_free_samples` as its columns, and
    ``path.read(word)`` gives a word's value.  The path for N' on the field
    is made on first use, so a later call strides nothing.  A field whose
    values were made writable again gets a throwaway path, so states and
    blocks can never go stale.
    """
    values = field.values
    # this thread's {N': path} on the field, or a throwaway one
    paths = {} if values.flags.writeable else vars(field._word_paths)
    size = _alias_free_size(values.shape[0], field.bandwidth, degree)
    path = paths.get(size)
    if path is None:
        path = paths[size] = _PrefixIntegrals(_alias_free_samples(values, field.bandwidth, degree))
    return path


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
    # one inversion (the route of ddf_modes) serves the modes and its clock the alignment
    _check_grid(state, m_out, n)
    clock, _, half = _invert(state, frame, spec.chirality, n)
    modes = _modes_of(half, frame, spec.chirality, m_out)
    if align:
        modes = align_base_point(modes, clock)
    field = reconstruct_field(modes, n)
    return pohlmeyer_invariant(field, spec)


# ----------------------------------------------------------------------
# Wilson loops
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WilsonConfig:
    """Constant gauge connection: matrices[mu] is the d x d block A_mu.

    ``a_norm``, max_mu ||A_mu||_2 (the largest singular value), is taken
    once here for :func:`wilson_loop`'s remainder bound.
    """

    matrices: np.ndarray  # (dim, d, d) complex
    n_max: int
    a_norm: float = dataclass_field(init=False, repr=False)

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
        object.__setattr__(self, "a_norm", float(max(np.linalg.norm(m, 2) for m in arr)))

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
    taken over all n samples, since a coarser grid can miss the peak, and
    ||A|| the config's ``a_norm``.
    """
    vals = _alias_free_samples(field.values, field.bandwidth, config.n_max)
    d = config.matrix_dim
    b = np.einsum("nm,mij->nij", vals, config.matrices)

    acc = {0: np.eye(d, dtype=complex)}
    value = complex(d)  # order 0: Tr(identity)
    for order in range(1, config.n_max):
        # order 1 integrates b itself; each later order steps every state g_k by g_k b
        acc = _sigma_antiderivative([(0, b)] if order == 1 else
                                    ((k, np.einsum("nij,njk->nik", g, b)) for k, g in acc.items()))
        value += complex(np.trace(_at_two_pi(acc)))
    # the top order is needed only at 2 pi, and only its trace: end weights
    # on the sampled Tr(g_k b), no transform and no matrix product
    traces = ((k, np.einsum("...ij,...ji->...", g, b)) for k, g in acc.items())
    value += complex(_sample_sum(_end_weighted(b.shape[0], traces)))

    # sum_mu |P^mu| column by column: a sum over the short letter axis of each row costs
    # a NumPy loop call per sample
    peak = np.abs(field.values[:, 0])
    for mu in range(1, field.values.shape[1]):
        peak += np.abs(field.values[:, mu])
    x = TAU * float(np.max(peak)) * config.a_norm
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
    circle map with ``on_grid`` and ``fixes_base_point`` (a
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
