"""Second-order forward-mode jets.

A Jet2 carries (value, first, second) Taylor data of a curve at t = 0 and
propagates it through products, quotients and logarithms.  Components may be
scalars or numpy arrays; matrix-vector helpers cover the cocycle recursions.
Derivatives are taken along the real direction, which suffices for pressure
derivatives at 0 of functions analytic near the origin.
"""

from __future__ import annotations

import numpy as np


class Jet2:
    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=None, d2=None):
        self.v = v
        self.d1 = d1 if d1 is not None else np.zeros_like(v)
        self.d2 = d2 if d2 is not None else np.zeros_like(v)

    @classmethod
    def constant(cls, v):
        return cls(v, np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0,
                   np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0)

    @classmethod
    def variable(cls, v):
        """The curve t -> v + t."""
        return cls(v, 1.0, 0.0)

    def __add__(self, other):
        other = _as_jet(other)
        return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_jet(other)
        return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __rsub__(self, other):
        return _as_jet(other) - self

    def __mul__(self, other):
        other = _as_jet(other)
        return Jet2(self.v * other.v,
                    self.d1 * other.v + self.v * other.d1,
                    self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_jet(other)
        w = self.v / other.v
        d1 = (self.d1 - w * other.d1) / other.v
        d2 = (self.d2 - 2.0 * d1 * other.d1 - w * other.d2) / other.v
        return Jet2(w, d1, d2)

    def __rtruediv__(self, other):
        return _as_jet(other) / self

    def log(self):
        ratio = self.d1 / self.v
        return Jet2(np.log(self.v), ratio, self.d2 / self.v - ratio * ratio)

    def exp(self):
        e = np.exp(self.v)
        return Jet2(e, e * self.d1, e * (self.d2 + self.d1 * self.d1))

    def __repr__(self):
        return f"Jet2({self.v!r}, {self.d1!r}, {self.d2!r})"


def _as_jet(x):
    return x if isinstance(x, Jet2) else Jet2(x, np.zeros_like(np.asarray(x, dtype=float))
                                              if np.ndim(x) else 0.0,
                                              np.zeros_like(np.asarray(x, dtype=float))
                                              if np.ndim(x) else 0.0)


def jet_vecmat(vjet: Jet2, mjet: Jet2) -> Jet2:
    """Row-vector times matrix with full product-rule propagation."""
    return Jet2(vjet.v @ mjet.v,
                vjet.d1 @ mjet.v + vjet.v @ mjet.d1,
                vjet.d2 @ mjet.v + 2.0 * (vjet.d1 @ mjet.d1) + vjet.v @ mjet.d2)


def jet_dot(vjet: Jet2, w: np.ndarray) -> Jet2:
    """Jet vector dotted with a constant vector."""
    return Jet2(vjet.v @ w, vjet.d1 @ w, vjet.d2 @ w)


def jet_sum(vjet: Jet2) -> Jet2:
    return Jet2(np.sum(vjet.v), np.sum(vjet.d1), np.sum(vjet.d2))
