"""Circle reparameterizations for invariance testing.

Maps are truncated harmonic perturbations of the identity,
phi(sigma) = sigma + sum_j c_j sin(j sigma + theta_j), with the monotone
budget sum_j j*|c_j| <= 0.9 so phi' >= 0.1 everywhere by construction.  A
map keeps its samples phi(sigma_j), phi'(sigma_j) per grid once made, so a
fixed map pulls back many fields at the cost of the interpolation alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import TAU, grid_sigma, trig_interpolate
from .phase_space import FieldGrid

__all__ = ["ReparamMap", "random_diffeo", "pullback_weight_one"]


@dataclass(frozen=True)
class ReparamMap:
    amplitudes: np.ndarray  # c_j, j = 1..J
    phases: np.ndarray      # theta_j

    def __post_init__(self):
        c = np.asarray(self.amplitudes, float)
        t = np.asarray(self.phases, float)
        if c.shape != t.shape or c.ndim != 1:
            raise ValueError("amplitudes and phases must be equal-length 1d arrays")
        j = np.arange(1, c.size + 1)
        if float(np.sum(j * np.abs(c))) > 0.9 + 1e-12:
            raise ValueError("monotone budget sum j*|c_j| <= 0.9 violated")
        for name, arr in (("amplitudes", c), ("phases", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_grids", {})

    def __reduce__(self):
        return ReparamMap, (self.amplitudes, self.phases)

    @property
    def order(self):
        return self.amplitudes.size

    def __call__(self, sigma):
        out = np.asarray(sigma, float).copy()
        for j, (c, th) in enumerate(zip(self.amplitudes, self.phases), start=1):
            out += c * np.sin(j * np.asarray(sigma) + th)
        return out

    def deriv(self, sigma):
        out = np.ones_like(np.asarray(sigma, float))
        for j, (c, th) in enumerate(zip(self.amplitudes, self.phases), start=1):
            out += j * c * np.cos(j * np.asarray(sigma) + th)
        return out

    def on_grid(self, n):
        """(phi(sigma_j), phi'(sigma_j)) on the n-grid, read-only.

        Made on the first call for n and kept by the map, as a field keeps
        its word paths, so a copy or an unpickled map starts with none.
        Threads that ask at once may each make the pair; all get the one
        stored first.
        """
        pair = self._grids.get(n)
        if pair is None:
            sig = grid_sigma(n)
            pair = (self(sig), self.deriv(sig))
            for arr in pair:
                arr.setflags(write=False)
            pair = self._grids.setdefault(n, pair)
        return pair

    def fixes_base_point(self, tol=1e-12):
        return abs(float(self(0.0))) % TAU < tol


def random_diffeo(seed, order=3, amplitude=0.5, fix_base_point=True) -> ReparamMap:
    """Seeded random circle diffeo with sum j*c_j = amplitude (<= 0.9).

    With ``fix_base_point`` the first harmonic keeps half the budget (all of
    it at order 1) and its phase solves sum_j c_j sin(theta_j) = 0 exactly,
    so phi(0) = 0.
    """
    if not (0.0 <= amplitude <= 0.9):
        raise ValueError("amplitude must lie in [0, 0.9]")
    if order < 1:
        raise ValueError("order must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 1.0, order)
    theta = rng.uniform(0.0, TAU, order)
    j = np.arange(1, order + 1)
    if amplitude == 0.0:
        return ReparamMap(np.zeros(order), np.zeros(order))
    if fix_base_point:
        # j=1 keeps half the weighted budget, so c_1 >= sum_{j>=2} c_j and
        # c_1 sin(theta_1) = -sum_{j>=2} c_j sin(theta_j) is always solvable
        c = np.empty(order)
        if order > 1:
            c[0] = 0.5 * amplitude
            c[1:] = raw[1:] / np.sum(j[1:] * raw[1:]) * (0.5 * amplitude)
            s = float(np.sum(c[1:] * np.sin(theta[1:])))
        else:
            c[0], s = amplitude, 0.0
        theta[0] = np.arcsin(np.clip(-s / c[0], -1.0, 1.0))
    else:
        c = raw / np.sum(j * raw) * amplitude
    return ReparamMap(c, theta)


def pullback_weight_one(field: FieldGrid, cmap) -> FieldGrid:
    """Weight-one pullback (F o phi) * phi' on the field's own grid.

    ``cmap`` is a circle map phi whose ``on_grid(n)`` gives the samples
    phi(sigma_j) and phi'(sigma_j) on the n-grid (a :class:`ReparamMap`
    makes them once per n).  F o phi is the
    :func:`~closedstring.numerics.trig_interpolate` of the field's samples
    at phi(sigma_j), read with the field's bandwidth: a field of bandwidth K
    has its spectrum read from O(K) alias-free samples, not all n.  A real
    field pulls back to a real one, with no bandwidth.
    """
    phi, dphi = cmap.on_grid(field.n_samples)
    moved = trig_interpolate(field.values, phi, bandwidth=field.bandwidth)
    return FieldGrid(moved * dphi.reshape((-1,) + (1,) * (moved.ndim - 1)))
