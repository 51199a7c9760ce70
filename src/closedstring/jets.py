"""Forward-mode derivative propagation ("jets") over numpy arrays.

A :class:`Jet` bundles a value array with the derivatives of every entry
with respect to ``S`` real seed parameters, stored along a trailing
tangent axis of length ``S``.  Arithmetic applies the chain rule, and the
ufuncs used by the evaluation pipelines dispatch through
``__array_ufunc__``, so code written against plain ndarrays mostly runs
unchanged on Jets.  Supported surface: + - * /, unary minus, conjugation,
exp, @, basic indexing, ``sum``/``mean``, and the FFT and concatenation
helpers below.
Anything else is deliberately unsupported.

No module of the evaluation pipeline uses jets; this one stays only because
``perfbench/tracer.py`` imports it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "value", "seed_count", "zeros", "concatenate", "fft", "ifft"]


def value(x):
    """Value part of ``x``; identity on plain arrays and scalars."""
    return x.val if isinstance(x, Jet) else x


def seed_count(x):
    return x.tan.shape[-1] if isinstance(x, Jet) else 0


def _expand(a):
    # broadcast helper: align a plain operand against a tangent axis
    return np.asarray(a)[..., None]


class Jet:
    __slots__ = ("val", "tan")
    # make ndarray binary ops defer to us
    __array_priority__ = 1000.0

    def __init__(self, val, tan):
        val = np.asarray(val)
        tan = np.asarray(tan)
        if tan.shape[: max(tan.ndim - 1, 0)] != val.shape:
            raise ValueError(f"tangent shape {tan.shape} does not extend value shape {val.shape}")
        self.val = val
        self.tan = tan

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.val.shape

    @property
    def ndim(self):
        return self.val.ndim

    @property
    def real(self):
        return Jet(self.val.real, self.tan.real)

    @property
    def imag(self):
        return Jet(self.val.imag, self.tan.imag)

    def conj(self):
        return Jet(np.conj(self.val), np.conj(self.tan))

    def __repr__(self):
        return f"Jet(shape={self.val.shape}, seeds={self.tan.shape[-1]})"

    # ------------------------------------------------------------------
    def __getitem__(self, key):
        # basic indexing on leading (value) axes; the seed axis rides along
        return Jet(self.val[key], self.tan[key])

    def __setitem__(self, key, v):
        if isinstance(v, Jet):
            self.val[key] = v.val
            self.tan[key] = v.tan
        else:
            self.val[key] = v
            self.tan[key] = 0.0

    def sum(self, axis=None):
        ax = self._norm_axis(axis)
        return Jet(self.val.sum(axis=ax), self.tan.sum(axis=ax))

    def mean(self, axis=None):
        ax = self._norm_axis(axis)
        return Jet(self.val.mean(axis=ax), self.tan.mean(axis=ax))

    def _norm_axis(self, axis):
        if axis is None:
            return tuple(range(self.val.ndim))
        if isinstance(axis, int):
            return axis % max(self.val.ndim, 1)
        return tuple(a % self.val.ndim for a in axis)

    # ------------------------------------------------------------------
    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _add(self, _neg(other))

    def __rsub__(self, other):
        return _add(_neg(self), other)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __neg__(self):
        return _neg(self)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # ------------------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if kwargs.get("out") is not None:
            return NotImplemented
        if method == "reduce" and ufunc is np.add:
            (a,) = inputs
            if isinstance(a, Jet):
                return a.sum(axis=kwargs.get("axis", 0))
            return NotImplemented
        if method != "__call__":
            return NotImplemented
        if ufunc is np.add:
            return _add(*inputs)
        if ufunc is np.subtract:
            a, b = inputs
            return _add(a, _neg(b))
        if ufunc is np.multiply:
            return _mul(*inputs)
        if ufunc is np.true_divide:
            return _div(*inputs)
        if ufunc is np.negative:
            return _neg(inputs[0])
        if ufunc is np.positive:
            return inputs[0]
        if ufunc is np.conjugate:
            return inputs[0].conj()
        if ufunc is np.exp:
            a = inputs[0]
            ev = np.exp(a.val)
            return Jet(ev, _expand(ev) * a.tan)
        if ufunc is np.matmul:
            return _matmul(*inputs)
        return NotImplemented


# ----------------------------------------------------------------------
def _neg(a):
    if isinstance(a, Jet):
        return Jet(-a.val, -a.tan)
    return -a


def _add(a, b):
    if isinstance(a, Jet) and isinstance(b, Jet):
        return Jet(a.val + b.val, a.tan + b.tan)
    if isinstance(a, Jet):
        val = a.val + b
        return Jet(val, _match_tan(a.tan, val))
    if isinstance(b, Jet):
        val = a + b.val
        return Jet(val, _match_tan(b.tan, val))
    return a + b


def _match_tan(tan, val):
    # a plain operand can broadcast the value up; follow with the tangent
    shape = np.shape(val) + tan.shape[-1:]
    return tan if tan.shape == shape else np.broadcast_to(tan, shape).copy()


def _mul(a, b):
    if isinstance(a, Jet) and isinstance(b, Jet):
        return Jet(a.val * b.val, _expand(a.val) * b.tan + _expand(b.val) * a.tan)
    if isinstance(a, Jet):
        return Jet(a.val * b, _expand(b) * a.tan)
    if isinstance(b, Jet):
        return Jet(a * b.val, _expand(a) * b.tan)
    return a * b


def _div(a, b):
    if not isinstance(b, Jet):
        if isinstance(a, Jet):
            return Jet(a.val / b, a.tan / _expand(b))
        return a / b
    inv = 1.0 / b.val
    invjet = Jet(inv, -_expand(inv * inv) * b.tan)
    return _mul(a, invjet)


def _matmul(a, b):
    # limited to the 2D @ (1D|2D) contractions the pipelines use
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return a @ b
    av, bv = value(a), value(b)
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise TypeError("Jet @ supports (2D) @ (1D or 2D) only")
    val = av @ bv
    sub = "jks->iks" if bv.ndim == 2 else "js->is"
    suba = "ijs,jk->iks" if bv.ndim == 2 else "ijs,j->is"
    tan = 0.0
    if isinstance(b, Jet):
        tan = tan + np.einsum(f"ij,{sub}", av, b.tan)
    if isinstance(a, Jet):
        tan = tan + np.einsum(suba, a.tan, bv)
    return Jet(val, tan)


# ----------------------------------------------------------------------
def zeros(shape, seeds, dtype=np.complex128):
    if isinstance(shape, int):
        shape = (shape,)
    return Jet(np.zeros(shape, dtype), np.zeros(shape + (seeds,), dtype))


def concatenate(parts, axis=0):
    """np.concatenate over value axes; plain parts join with zero tangents."""
    seeds = max(seed_count(p) for p in parts)
    if not seeds:
        return np.concatenate(parts, axis=axis)
    vals = [np.asarray(value(p)) for p in parts]
    tans = [p.tan if isinstance(p, Jet) else np.zeros(v.shape + (seeds,)) for p, v in zip(parts, vals)]
    ax = axis % vals[0].ndim
    return Jet(np.concatenate(vals, axis=ax), np.concatenate(tans, axis=ax))


def fft(x, axis=0):
    if isinstance(x, Jet):
        ax = axis % x.val.ndim
        return Jet(np.fft.fft(x.val, axis=ax), np.fft.fft(x.tan, axis=ax))
    return np.fft.fft(x, axis=axis)


def ifft(x, axis=0):
    if isinstance(x, Jet):
        ax = axis % x.val.ndim
        return Jet(np.fft.ifft(x.val, axis=ax), np.fft.ifft(x.tan, axis=ax))
    return np.fft.ifft(x, axis=axis)
