"""Reference implementations that tests compare the package against.

Each computes its quantity the slow, direct way: by enumerating preimage
branches or applying one operator at a time, where the package scans stacked
matrices or runs a lattice DP.  Two keep the package's earlier code for a
kernel since rewritten for speed (a doubling level, an orbit solve), which
the rewrite must reproduce.  Two compute what no experiment reads: the raw
cocycle product (`compose_cocycle`), which criterion 4 checks against branch
enumeration, and the pressure derivatives (`pressure_derivatives`), which
criterion 3 checks against the exact moments of S_k.
"""

import math
from dataclasses import dataclass

import numpy as np

from skewprod.errors import DepthMismatch, NoConvergence
from skewprod.fiber import holder_seminorm_rows
from skewprod.rpf import DEFAULT_FWD, RawOrbitTriplets, SystemOrbit, _direction_change
from skewprod.transfer import (
    branch_matrices,
    full_product,
    key_matrices,
    prefix_products,
    symbol_keys,
    unscale,
)


def branch_enumeration_apply(window, n, z, pot, model, g):
    """Brute-force n-step iterate by summing over all d^n preimage branches.

    Independent oracle for the matrix cocycle: enumerates every preimage word
    c of length n, accumulating e^(S_n phi + z S_n u) g evaluated at the
    shifted tail.  Output is the value vector on depth-(r-1) cylinders.
    """
    d, r = model.d, model.r
    D = model.space_dim
    if g.depth > r - 1:
        raise DepthMismatch("oracle expects g of depth <= r-1")
    gv = g.extend(r - 1).values if r > 1 else np.full(1, g.values[0])
    L = n + r - 1
    pair = pot.u_next_symbol
    window.require(0, n - 1 + (1 if pair else 0))
    total_words = d**L if L > 0 else 1
    idx = np.arange(total_words, dtype=np.int64)
    log_weight = np.zeros(total_words, dtype=float if float(np.imag(z)) == 0.0 else complex)
    for j in range(n):
        word_j = (idx // d ** (L - j - r)) % d**r
        s = window.symbol(j)
        s_next = window.symbol(j + 1) if pair else None
        phi = pot.phi[s]
        u = pot.u[s, s_next] if pair else pot.u[s]
        log_weight = log_weight + phi[word_j] + (z * u[word_j] if z != 0 else 0.0)
    # g is evaluated at the preimage point, whose depth-(r-1) word is the head
    # of the full branch word c.x
    head = idx // (d ** (L - (r - 1))) if r > 1 else np.zeros(total_words, dtype=np.int64)
    contrib = np.exp(log_weight) * gv[head]
    return contrib.reshape(d**n, D).sum(axis=0)


def deep_apply_normalized(orbit, j, values, depth):
    """The orbit's normalized operator at factor j applied to a depth-K
    function, K >= r; output depth K-1."""
    d, r = orbit.model.d, orbit.model.r
    phi = orbit.pot.phi[orbit.window.symbol(j)]
    h_in = orbit.h0(j)
    h_out = orbit.h0(j + 1)
    lam = orbit.lam0(j)
    n_out = d ** (depth - 1)
    out = np.zeros(n_out, dtype=values.dtype if np.iscomplexobj(values) else float)
    w_idx = np.arange(n_out, dtype=np.int64)
    for a in range(d):
        full = a * n_out + w_idx
        pot_word = full // (d ** (depth - r))
        # first r-1 symbols of a.w index h_in; first r-1 symbols of w index h_out
        h_in_val = h_in[full // (d ** (depth - r + 1))] if r > 1 else h_in[0]
        h_out_val = h_out[w_idx // (d ** (depth - r))] if r > 1 else h_out[0]
        kernel = np.exp(phi[pot_word]) * h_in_val / (lam * h_out_val)
        out += kernel * values[full]
    return out


def mu_deep(orbit, j, values, depth):
    """The orbit's Gibbs weights at position j applied to a depth-K cylinder
    function (K >= r-1)."""
    vals = np.asarray(values, dtype=float)
    k = depth
    while k > orbit.model.r - 1:
        vals = np.real(deep_apply_normalized(orbit, j, vals, k))
        k -= 1
        j += 1
    return float(orbit.mu[j - orbit.j_lo] @ vals)


def prob_at(law, value):
    """Mass of a `LatticeDistribution` at one lattice value (0 off its support)."""
    k = int(round(value / law.h)) - law.k0
    if 0 <= k < len(law.probs):
        return float(law.probs[k])
    return 0.0


def compose_reversed(window, n, z, family):
    """n-th order iterate of a Doeblin family with the present factor leftmost.

    Factor j is the kernel at symbol omega_j right-multiplied by the twist
    diagonal of the next symbol's observable.  z is one parameter, or a 1-D
    array of them whose iterates come from one scan, stacked as (len(z), q, q).
    """
    zs = np.atleast_1d(z)
    if not np.any(np.imag(zs)):
        zs = np.real(zs)
    syms = window.symbols(0, n)
    twist = np.exp(zs[:, None, None] * family.u[syms[1:], None, None, :])
    prods = unscale(*full_product(family.kernels[syms[:-1], None] * twist))
    return prods if np.ndim(z) else prods[0]


def per_shift_level(left, right):
    """One doubling level as `gibbs._compose_blocks` ran it for every level
    of up to 65 taps: the products left[p] right[p] of polynomial matrices
    (pairs, taps, D, D), coefficients second, by one batched matmul per shift
    of the right factor, added shift by shift.  (pairs, 2 taps - 1, D, D)."""
    pairs, taps, D = left.shape[:3]
    lhs = left.reshape(pairs, taps * D, D)
    out = np.zeros((pairs, 2 * taps - 1, D, D))
    for s in range(right.shape[1]):
        out[:, s:s + taps] += (lhs @ right[:, s]).reshape(pairs, taps, D, D)
    return out


def two_scan_solve_raw_once(mats, keys, z, j_lo, j_hi, model, back, fwd):
    """`rpf._solve_raw_once` as it was with one scan per side: H from the
    transposed factors from the past, V from the factors from the future
    taken backwards, each row reduction along the short axis."""
    n = j_hi - j_lo
    D = model.space_dim
    factors = mats[keys]

    def row_norms(values):
        return np.max(np.abs(values), axis=1, initial=0.0) + holder_seminorm_rows(
            values, model.d, model.r - 1, model.alpha)

    prods, _ = prefix_products(factors[:back + n].swapaxes(1, 2))
    h = np.concatenate([np.ones((1, D), dtype=factors.dtype), prods.sum(axis=1)])
    peak = np.max(np.abs(h), axis=1)
    bad = np.flatnonzero(~np.isfinite(peak) | (peak == 0))
    if bad.size:
        raise NoConvergence(
            f"backward iteration degenerated at position {j_lo - back + bad[0] - 1}")
    H = h[back:] / peak[back:, None]

    prods, _ = prefix_products(factors[back:][::-1])
    v = np.concatenate([np.ones((1, D), dtype=factors.dtype), prods.sum(axis=1)])
    total = v.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(total) | (np.abs(total) < 1e-280))
    if bad.size:
        raise NoConvergence(
            f"forward functional degenerated at position {j_hi + fwd - bad[0]}")
    V = (v / total[:, None])[fwd:][::-1]

    halves = np.zeros((max(back, fwd) // 2, 2, D, D), dtype=factors.dtype)
    halves[:] = np.eye(D)
    halves[:back // 2, 0] = factors[back - back // 2:back].swapaxes(1, 2)
    halves[:fwd // 2, 1] = factors[back + n:back + n + fwd // 2][::-1]
    ends = full_product(halves)[0].sum(axis=1)
    gap = max(_direction_change(h[back], ends[0]) if back >= 2 else 0.0,
              _direction_change(v[fwd], ends[1]) if fwd >= 2 else 0.0)

    den = np.einsum("jv,jv->j", V, H)
    small = np.flatnonzero(np.abs(den) < 1e-280)
    if small.size:
        raise NoConvergence(f"nu(h) ~ 0 at position {j_lo + small[0]}; z likely outside U")
    H = H / den[:, None]

    M = factors[back:back + n]
    MH = np.einsum("jvw,jw->jv", M, H[:-1])
    lam = np.einsum("jv,jv->j", V[1:], MH)
    eig = row_norms(MH - lam[:, None] * H[1:]) / np.maximum(row_norms(H[:-1]), 1e-300)
    dual = np.max(np.abs(np.einsum("jv,jvw->jw", V[1:], M) - lam[:, None] * V[:-1]),
                  axis=1, initial=0.0) \
        / np.maximum(np.max(np.abs(V[:-1]), axis=1, initial=0.0), 1e-300)
    return RawOrbitTriplets(z, j_lo, j_hi, H, V, lam, float(np.max(eig, initial=0.0)),
                            float(np.max(dual, initial=0.0)), back, fwd, gap)


@dataclass
class CocycleProduct:
    """Ordered product of transfer factors with its scale ledger.

    `matrix * exp(log_scale)` is the true product; factors are composed
    right-to-left, the factor at the window origin acting first.
    """

    matrix: np.ndarray
    log_scale: float

    def full(self) -> np.ndarray:
        return self.matrix * np.exp(self.log_scale)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.full() @ values


def compose_cocycle(window, n: int, z: complex, pot, model) -> CocycleProduct:
    """n-step raw cocycle product over window indices 0..n-1."""
    factors = key_matrices(z, pot, model)[symbol_keys(window, pot, 0, n)]
    P, expo = full_product(factors.swapaxes(1, 2))
    return CocycleProduct(P.T, float(expo) * math.log(2.0))


def taylor_factors(pot, model) -> np.ndarray:
    """Second-order Taylor data of every symbol key's raw matrix at z = 0.

    With M(z) = A0 + z A1 + z^2 A2 + ..., A1 = L(w u) and A2 = L(w u^2) / 2,
    the key's factor is the block upper-triangular Toeplitz matrix
    [[A0, A1, A2], [0, A0, A1], [0, 0, A0]]; products of such factors carry
    the Taylor coefficients of the matrix product in their top block row.
    Shape (keys, 3D, 3D), keys indexed as in `symbol_keys`.
    """
    w, u = np.exp(pot.key_phi), pot.key_u
    tg = np.broadcast_to(pot.targets, w.shape)
    A0, A1, A2 = (branch_matrices(c, tg, model.space_dim) for c in (w, w * u, w * u * u / 2.0))
    Z = np.zeros_like(A0)
    return np.block([[A0, A1, A2], [Z, A0, A1], [Z, Z, A0]])


def pressure_derivatives(window, k: int, pot, model, fwd: int = DEFAULT_FWD,
                         orbit0: SystemOrbit | None = None):
    """(Pi'(0), Pi''(0)) from one Toeplitz scan over the dual recursion.

    The normalized eigenvalues telescope: with the forward functionals
    l_p(z) = 1 M_{k+fwd-1}(z) ... M_p(z),
        Pi_k(z) = log l_0(z) h0_0 - log l_k(z) h0_k - sum_j log lambda0_j,
    so both derivatives are log-derivatives of two scalars, exact up to
    the (geometrically small) truncation error.  Their Taylor coefficients
    are read from one scan over the keys' Toeplitz factors (see
    `taylor_factors`), taken backwards from position k + fwd - 1.
    """
    if orbit0 is None:
        orbit0 = SystemOrbit(window, 0, k, pot, model, fwd=fwd)
    D = model.space_dim
    keys = symbol_keys(window, pot, 0, k + fwd)
    factors = taylor_factors(pot, model)[keys[::-1]]
    # a leading identity makes prods[fwd] the product down to position k
    prods, _ = prefix_products(np.concatenate([np.eye(3 * D)[None], factors]))
    derivs = []
    for i, j in ((k + fwd, 0), (fwd, k)):
        f0, f1, f2 = prods[i, :D].sum(axis=0).reshape(3, D) @ orbit0.h0(j)
        derivs.append((f1 / f0, 2.0 * f2 / f0 - (f1 / f0) ** 2))
    (a1, a2), (b1, b2) = derivs
    return float(a1 - b1), float(a2 - b2)
