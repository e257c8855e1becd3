"""Random RPF triplets along base orbits, pressure and its derivatives at 0.

The raw triplet (lambda, h, nu) at parameter z is computed from truncated
orbit products: eigenfunction directions from the products of the factors
from the past applied to the constant function, dual functionals from the
reference functional pulled back through the factors from the future.  The
products are read from the blocked scan `transfer.prefix_products` when the
factors vary with the base orbit.  When every key's matrix at z is the same
(phi reads no base symbol, nor u at z != 0), the triplet is the Perron
triple of that one matrix at every position, and the truncated products
are its powers, formed by repeated squaring in O(log) products whatever the
span.  Truncation lengths double automatically until the residuals and the
truncation gap drop below tolerance; failure to converge signals z outside
the admissible neighborhood and is surfaced, never hidden.  The pressure
derivatives at 0 come from the same scan over block Toeplitz factors that
carry the Taylor coefficients of the matrix products.

Normalized quantities (the triplet of the operator family fixing constants at
z = 0) are obtained from the raw ones by the gauge transform
lambda~ = a lambda_raw / (a_next lambda0), h~ = a h / h0, nu~ = h0 nu / a with
a = nu_z(h0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_env import OmegaWindow
from .errors import NoConvergence, NonpositiveEigenfunction
from .fiber import (
    CylinderFunction,
    FiberModel,
    PotentialTable,
    holder_norm_rows,
    holder_norm_vector,
    row_max_abs,
)
from .transfer import (
    branch_matrices,
    full_product,
    key_matrices,
    prefix_products,
    symbol_keys,
    unscale,
)

DEFAULT_BACK = 64
DEFAULT_FWD = 64
MAX_TRUNC = 1024


@dataclass
class RawOrbitTriplets:
    """Raw triplet data at one z along positions j_lo..j_hi of a window.

    Row i of H and V (shape (j_hi - j_lo + 1, D)) belongs to position
    j_lo + i, entry i of lam (shape (j_hi - j_lo,)) to the factor between
    positions j_lo + i and j_lo + i + 1.  truncation_gap is how far the
    directions of H at j_lo and V at j_hi move when the truncation is halved
    (see `_solve_raw_once`).
    """

    z: complex
    j_lo: int
    j_hi: int
    H: np.ndarray      # eigenfunction directions, nu_j(h_j) = 1
    V: np.ndarray      # dual weights, nu_j(1) = 1
    lam: np.ndarray    # one-step eigenvalues between j and j+1
    eigen_residual: float
    dual_residual: float
    back_used: int
    fwd_used: int
    truncation_gap: float

    @property
    def max_residual(self) -> float:
        return max(self.eigen_residual, self.dual_residual, self.truncation_gap)


def _direction_change(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between the unit vectors along x and y, y's phase turned to
    match x's; infinite when either vector has no direction."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if not (np.isfinite(nx) and np.isfinite(ny) and nx > 0 and ny > 0):
        return np.inf
    x, y = x / nx, y / ny
    inner = np.vdot(y, x)
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(x - phase * y))


def _solve_raw_once(mats: np.ndarray, keys: np.ndarray, z: complex, j_lo: int, j_hi: int,
                    model: FiberModel, back: int, fwd: int) -> RawOrbitTriplets:
    """One truncated solve: keys[i] is the symbol key of position j_lo - back + i.

    At j = j_lo + i, H[i] is the direction of M_{j-1} ... M_{j_lo-back} 1
    and V[i] that of 1 M_{j_hi+fwd-1} ... M_j.  Both come from one scan
    with two batch lanes: the transposed factors from the past, and the
    factors from the future taken backwards, the shorter lane padded with
    identities.  The reductions over the D entries of a row (the products
    applied to 1, the row maxima) run column by column, which on a few
    columns is much faster than a reduction along a short axis.

    The eigen and dual residuals vanish by construction along the truncated
    products, so they cannot show a truncation that is too short.  The
    truncation gap can: the direction change of H at j_lo against the
    product of the nearest back // 2 factors alone, and of V at j_hi against
    the nearest fwd // 2, each one more product of factors already stacked.
    A side with fewer than two factors has no half truncation and adds 0.
    """
    n = j_hi - j_lo
    D = model.space_dim
    factors = mats[keys]

    lanes = np.empty((max(back, fwd) + n, 2, D, D), dtype=factors.dtype)
    lanes[:back + n, 0] = factors[:back + n].swapaxes(1, 2)
    lanes[back + n:, 0] = np.eye(D)
    lanes[:n + fwd, 1] = factors[back:][::-1]
    lanes[n + fwd:, 1] = np.eye(D)
    prods, _ = prefix_products(lanes)
    # 1 times every product, after a leading 1: the sum of its rows
    ones = np.empty((len(prods) + 1, 2, D), dtype=factors.dtype)
    ones[0] = 1.0
    ones[1:] = prods[:, :, 0]
    for row in range(1, D):
        ones[1:] += prods[:, :, row]
    h, v = ones[:back + n + 1, 0], ones[:n + fwd + 1, 1]

    peak = row_max_abs(h)
    bad = np.flatnonzero(~np.isfinite(peak) | (peak == 0))
    if bad.size:
        raise NoConvergence(
            f"backward iteration degenerated at position {j_lo - back + bad[0] - 1}")
    H = h[back:] / peak[back:, None]

    total = v.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(total) | (np.abs(total) < 1e-280))
    if bad.size:
        raise NoConvergence(
            f"forward functional degenerated at position {j_hi + fwd - bad[0]}")
    V = (v / total[:, None])[fwd:][::-1]

    # both half truncations in one scan, the shorter padded with identities
    halves = np.zeros((max(back, fwd) // 2, 2, D, D), dtype=factors.dtype)
    halves[:] = np.eye(D)
    halves[:back // 2, 0] = factors[back - back // 2:back].swapaxes(1, 2)
    halves[:fwd // 2, 1] = factors[back + n:back + n + fwd // 2][::-1]
    ends = full_product(halves)[0].sum(axis=1)
    gap = max(_direction_change(h[back], ends[0]) if back >= 2 else 0.0,
              _direction_change(v[fwd], ends[1]) if fwd >= 2 else 0.0)

    # nu_j(1) = 1 holds by construction; enforce nu_j(h_j) = 1
    den = np.einsum("jv,jv->j", V, H)
    small = np.flatnonzero(np.abs(den) < 1e-280)
    if small.size:
        raise NoConvergence(f"nu(h) ~ 0 at position {j_lo + small[0]}; z likely outside U")
    H = H / den[:, None]

    M = factors[back:back + n]
    MH = np.einsum("jvw,jw->jv", M, H[:-1])
    lam = np.einsum("jv,jv->j", V[1:], MH)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    eig = holder_norm_rows(MH - lam[:, None] * H[1:], d, depth, alpha) \
        / np.maximum(holder_norm_rows(H[:-1], d, depth, alpha), 1e-300)
    dual = row_max_abs(np.einsum("jv,jvw->jw", V[1:], M) - lam[:, None] * V[:-1]) \
        / np.maximum(row_max_abs(V[:-1]), 1e-300)
    return RawOrbitTriplets(z, j_lo, j_hi, H, V, lam, float(np.max(eig, initial=0.0)),
                            float(np.max(dual, initial=0.0)), back, fwd, gap)


def _rescaled(x: np.ndarray) -> np.ndarray:
    """x divided by its largest entry's modulus; a zero x stays zero."""
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x


def _solve_raw_power(mats: np.ndarray, keys: np.ndarray, z: complex, j_lo: int, j_hi: int,
                     model: FiberModel, back: int, fwd: int) -> RawOrbitTriplets:
    """`_solve_raw_once` for a cocycle with one factor M: every key's matrix
    at z is the same, so the truncated products are powers of M.

    The scan's rows at j_lo are read from powers of M applied to 1, each
    from one squaring ladder of M (M, M^2, M^4, ..., each rescaled), so the
    cost is O(log(back + n + fwd)) D x D products: H from M^back 1, V from
    1 M^(n+fwd), and lam = 1 M^(n+fwd) 1 / 1 M^(n+fwd-1) 1, which is what the
    scan's lam at j_lo reduces to.  Every position gets that one triplet.
    The truncation gap compares M^(back // 2) 1 with M^back 1 and
    1 M^(fwd // 2) with 1 M^fwd, as the scan does.  Unlike the scan's, the
    eigen and dual residuals |M h - lam h| and |nu M - lam nu| measure the
    truncation: they vanish only at the Perron triple of M.  A power that
    degenerates hands the solve to the scan, which names the position.
    """
    n = j_hi - j_lo
    M = mats[0]
    ladder = [_rescaled(M)]
    for _ in range(1, max(back, n + fwd).bit_length()):
        ladder.append(_rescaled(ladder[-1] @ ladder[-1]))

    def power(k: int, right: bool) -> np.ndarray:
        """M^k 1 (right) or 1 M^k, rescaled."""
        x = np.ones(len(M), dtype=M.dtype)
        for i in range(k.bit_length()):
            if k >> i & 1:
                x = _rescaled(ladder[i] @ x if right else x @ ladder[i])
        return x

    h, v_prev = power(back, True), power(n + fwd - 1, False)
    v = v_prev @ M
    total, total_prev = v.sum(), v_prev.sum()
    degenerate = not (np.all(np.isfinite(h)) and np.any(h != 0) and all(
        np.isfinite(t) and abs(t) >= 1e-280 for t in (total, total_prev)))
    if not degenerate:
        V = v / total
        den = V @ h
        degenerate = not abs(den) >= 1e-280
    if degenerate:
        return _solve_raw_once(mats, keys, z, j_lo, j_hi, model, back, fwd)
    H = h / den
    lam = total / total_prev
    gap = max(_direction_change(h, power(back // 2, True)) if back >= 2 else 0.0,
              _direction_change(power(fwd, False), power(fwd // 2, False)) if fwd >= 2 else 0.0)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    eig = holder_norm_vector(M @ H - lam * H, d, depth, alpha) \
        / max(holder_norm_vector(H, d, depth, alpha), 1e-300)
    dual = float(np.max(np.abs(V @ M - lam * V))) / max(float(np.max(np.abs(V))), 1e-300)
    return RawOrbitTriplets(z, j_lo, j_hi, np.tile(H, (n + 1, 1)), np.tile(V, (n + 1, 1)),
                            np.full(n, lam), float(eig), dual, back, fwd, gap)


def solve_raw_orbit(window: OmegaWindow, z: complex, j_lo: int, j_hi: int,
                    pot: PotentialTable, model: FiberModel,
                    back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                    tol: float = 1e-9) -> RawOrbitTriplets:
    """Raw triplets along [j_lo, j_hi], the truncation doubled until the
    residuals and the truncation gap (`RawOrbitTriplets.max_residual`) are below tol.

    Doubling is capped by MAX_TRUNC and by the window itself; at both caps
    NoConvergence names the first of the truncation gap, the eigen residual
    and the dual residual that is not below tol, and each side's cap (a
    window too short for the decay stops a gap that is still falling).  When every
    key's matrix at z is the same, each truncation is solved from powers of
    that one matrix (`_solve_raw_power`), otherwise by the blocked scan
    (`_solve_raw_once`).
    """
    pair_pad = 1 if pot.u_next_symbol else 0
    window.require(j_lo - back, j_hi + fwd - 1 + pair_pad)
    b_cap = min(MAX_TRUNC, j_lo - window.lo)
    f_cap = min(MAX_TRUNC, window.hi - pair_pad - j_hi + 1)
    b, f = min(back, b_cap), min(fwd, f_cap)
    mats = key_matrices(z, pot, model)
    solve_once = _solve_raw_power if np.all(mats == mats[:1]) else _solve_raw_once
    while True:
        keys = symbol_keys(window, pot, j_lo - b, j_hi + f)
        last = solve_once(mats, keys, z, j_lo, j_hi, model, b, f)
        if last.max_residual < tol:
            if np.isrealobj(last.H) and np.any(last.H <= 0):
                raise NonpositiveEigenfunction("real-parameter eigenfunction lost positivity")
            return last
        nb, nf = min(2 * b, b_cap), min(2 * f, f_cap)
        if (nb, nf) == (b, f):
            break
        b, f = nb, nf
    # the truncation gap first: it is the check both paths share, and along
    # the scan the only one that can fail
    checks = {"truncation gap": last.truncation_gap, "eigen residual": last.eigen_residual,
              "dual residual": last.dual_residual}
    failed = next(name for name, value in checks.items() if not value < tol)
    caps = ["MAX_TRUNC" if cap == MAX_TRUNC else "the window's edge" for cap in (b_cap, f_cap)]
    raise NoConvergence(
        f"{failed} {checks[failed]:.3e} stayed above tol {tol} at z={z} with truncation "
        f"({b},{f}), capped by {caps[0]} (back) and {caps[1]} (forward)")


class SystemOrbit:
    """z = 0 triplet data along a window span plus everything derived from it.

    Positions j run over [j_lo, j_hi] and factors over [j_lo, j_hi - 1]; the
    state is kept in arrays indexed by the offset i = j - j_lo: raw0.H,
    raw0.V and the Gibbs weights mu have shape (j_hi - j_lo + 1, D), raw0.lam
    and the factors' keys (see `transfer.symbol_keys`) shape (j_hi - j_lo,).
    The methods that take a position j take it absolute.  Exposes the
    normalized one-step matrices at any z and the stacked branch kernels from
    which `symbolic.SymbolicSystem` builds the step tables; the exact moments
    of the Gibbs start are those tables' (`StepTable.moments`).
    """

    def __init__(self, window: OmegaWindow, j_lo: int, j_hi: int, pot: PotentialTable,
                 model: FiberModel, back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                 tol: float = 1e-9):
        self.window = window
        self.j_lo, self.j_hi = j_lo, j_hi
        self.pot, self.model = pot, model
        self.keys = symbol_keys(window, pot, j_lo, j_hi)
        if model.space_dim == 1:
            # r = 1: the function space is one-dimensional, the triplet is closed form
            n = j_hi - j_lo
            lam = np.exp(pot.key_phi[:, 0]).sum(axis=1)[self.keys]
            self.raw0 = RawOrbitTriplets(0.0, j_lo, j_hi, np.ones((n + 1, 1)),
                                         np.ones((n + 1, 1)), lam, 0.0, 0.0, 0, 0, 0.0)
        else:
            self.raw0 = solve_raw_orbit(window, 0.0, j_lo, j_hi, pot, model, back, fwd, tol)
        m = np.real(self.raw0.H) * np.real(self.raw0.V)
        total = m.sum(axis=1, keepdims=True)
        if np.any(total <= 0):
            raise NonpositiveEigenfunction("Gibbs weights lost positivity")
        self.mu = m / total
        self._stacked = None

    def h0(self, j: int) -> np.ndarray:
        return np.real(self.raw0.H[j - self.j_lo])

    def lam0(self, j: int) -> float:
        return float(np.real(self.raw0.lam[j - self.j_lo]))

    def kernel_arrays(self):
        """Branch kernels of the factors j_lo..j_hi-1, stacked as (j_hi - j_lo, D, d) arrays.

        probs[i, w, a]: probability that the state at level j+1 (j = j_lo + i)
        in cylinder w extends to the past by fiber symbol a; targets[i, w, a]
        the resulting level-j cylinder; u[i, w, a] the u-increment of that
        step.  Rows sum to one exactly (renormalized against rounding drift).
        """
        if self._stacked is None:
            tgt = self.pot.targets
            h = np.real(self.raw0.H)
            lam = np.real(self.raw0.lam)
            probs = np.exp(self.pot.key_phi)[self.keys] * h[:-1][:, tgt] \
                / (lam[:, None, None] * h[1:, :, None])
            probs /= probs.sum(axis=2, keepdims=True)
            self._stacked = (probs, np.broadcast_to(tgt, probs.shape), self.pot.key_u[self.keys])
        return self._stacked

    def normalized_matrices(self, zs) -> np.ndarray:
        """Normalized one-step matrices of every factor at every z in zs,
        stacked as (j_hi - j_lo, len(zs), D, D)."""
        probs, targets, uvals = self.kernel_arrays()
        zs = np.asarray(zs)
        if not np.any(np.imag(zs)):
            zs = np.real(zs).astype(float)
        weights = probs[:, None] * np.exp(zs[:, None, None] * uvals[:, None])
        return branch_matrices(weights, targets, self.model.space_dim)

    def normalized_matrix(self, j: int, z: complex = 0.0) -> np.ndarray:
        """Normalized one-step matrix at factor j and parameter z."""
        return self.normalized_matrices([z])[j - self.j_lo, 0]


def norm_triplet_from_raw(raw_z: RawOrbitTriplets, orbit0: SystemOrbit, j: int):
    """Gauge transform to the normalized triplet at position j."""
    h0 = orbit0.h0(j)
    i = j - raw_z.j_lo
    a_j = raw_z.V[i] @ h0
    h_norm = a_j * raw_z.H[i] / h0
    nu_norm = h0 * raw_z.V[i] / a_j
    lam_norm = None
    if j < raw_z.j_hi:
        a_j1 = raw_z.V[i + 1] @ orbit0.h0(j + 1)
        lam_norm = raw_z.lam[i] * a_j / (a_j1 * orbit0.lam0(j))
    return lam_norm, h_norm, nu_norm


@dataclass
class RpfTriplet:
    """Triplet of the normalized operator family at the window origin.

    lambda_/h/nu solve the twisted eigenproblem with nu(1) = nu(h) = 1; the
    raw_* fields carry the unnormalized family for reference checks (for
    column-normalized weights raw_nu is the uniform functional and
    raw_lambda = 1).
    """

    z: complex
    lambda_: complex
    h: CylinderFunction
    nu: np.ndarray
    eigen_residual: float
    dual_residual: float
    normalization_residual: float
    window_used: tuple
    raw_lambda: complex
    raw_h: np.ndarray
    raw_nu: np.ndarray

def solve_rpf(window: OmegaWindow, z: complex, back_len: int, fwd_len: int,
              pot: PotentialTable, model: FiberModel, tol: float = 1e-9) -> RpfTriplet:
    """Solve the twisted eigenproblem at the window origin.

    Backward iteration builds h, forward iteration builds nu, the one-step
    ratio gives lambda; residuals are reported against the normalized
    operator relations.
    """
    orbit0 = SystemOrbit(window, 0, 1, pot, model, back=back_len, fwd=fwd_len, tol=tol)
    raw_z = orbit0.raw0 if z == 0 else \
        solve_raw_orbit(window, z, 0, 1, pot, model, back_len, fwd_len, tol)
    lam_n, h_n, nu_n = norm_triplet_from_raw(raw_z, orbit0, 0)
    # residuals of the normalized relations at the origin
    A0 = orbit0.normalized_matrix(0, z)
    _, h_n1, nu_n1 = norm_triplet_from_raw(raw_z, orbit0, 1)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    eig = holder_norm_vector(A0 @ h_n - lam_n * h_n1, d, depth, alpha) \
        / max(holder_norm_vector(h_n, d, depth, alpha), 1e-300)
    dual = float(np.max(np.abs(nu_n1 @ A0 - lam_n * nu_n))) \
        / max(float(np.max(np.abs(nu_n))), 1e-300)
    norm_res = max(abs(np.sum(nu_n) - 1.0), abs(nu_n @ h_n - 1.0))
    hfun = CylinderFunction(depth, h_n, d)
    return RpfTriplet(z, lam_n, hfun, nu_n, float(eig), float(dual), float(norm_res),
                      (raw_z.back_used, raw_z.fwd_used),
                      raw_z.lam[0], raw_z.H[0], raw_z.V[0])


# ---------------------------------------------------------------------------
# exponential convergence probe


@dataclass
class DecayFit:
    C: float
    c: float
    r_squared: float
    e_n: list
    degenerate: bool = False


def exp_convergence_probe(window: OmegaWindow, z: complex, q: CylinderFunction,
                          n_list, pot: PotentialTable, model: FiberModel) -> DecayFit:
    """Fit ||A_z^n q / lambda_n - nu(q) h_n|| ~ C c^n over n_list, from
    orbits solved at the default truncations.

    Values below the noise floor 1e-10 are dropped before fitting (points
    under the solver's truncation error are numerical noise, not decay data);
    if fewer than three usable points remain the probe reports
    converged-at-once.
    """
    n_max = max(n_list)
    orbit0 = SystemOrbit(window, 0, n_max, pot, model)
    raw_z = orbit0.raw0 if z == 0 else solve_raw_orbit(window, z, 0, n_max, pot, model)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    qv = q.extend(depth).values
    _, _, nu_n0 = norm_triplet_from_raw(raw_z, orbit0, 0)
    lam_prods = np.cumprod(_normalized_lambdas(raw_z, orbit0))
    # (A_{n-1} ... A_0) q from one scan over the transposed normalized matrices
    prods, expo = prefix_products(orbit0.normalized_matrices([z])[:, 0].swapaxes(1, 2))
    e_n = []
    for n in sorted(n_list):
        _, h_end, _ = norm_triplet_from_raw(raw_z, orbit0, n)
        diff = qv @ unscale(prods[n - 1], expo[n - 1]) / lam_prods[n - 1] - (nu_n0 @ qv) * h_end
        e_n.append(float(holder_norm_vector(diff, d, depth, alpha)))
    ns = np.asarray(sorted(n_list), dtype=float)
    es = np.asarray(e_n)
    keep = es > 1e-10
    if keep.sum() < 3:
        return DecayFit(0.0, 0.0, 1.0, list(es), degenerate=True)
    x, y = ns[keep], np.log(es[keep])
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(np.exp(coef[0])), float(np.exp(coef[1])), r2, list(es))


# ---------------------------------------------------------------------------
# pressure along the imaginary axis and derivatives at 0


def _normalized_lambdas(raw: RawOrbitTriplets, orbit0: SystemOrbit) -> np.ndarray:
    """Normalized one-step eigenvalues along raw's span: the raw ones times
    the gauge factors a_j / (a_{j+1} lambda0_j), a_j = nu_j(z)(h0_j)."""
    i = raw.j_lo - orbit0.j_lo
    n = raw.j_hi - raw.j_lo
    a = np.einsum("jv,jv->j", raw.V, np.real(orbit0.raw0.H[i:i + n + 1]))
    return raw.lam * a[:-1] / (a[1:] * np.real(orbit0.raw0.lam[i:i + n]))


def lambda_sequence(window: OmegaWindow, z: complex, k: int, orbit0: SystemOrbit,
                    fwd: int = DEFAULT_FWD) -> np.ndarray:
    """Normalized one-step eigenvalues lambda~_j(z), j = 0..k-1, along the orbit.

    The raw eigenvalues and dual vectors come from `solve_raw_orbit` at z,
    with its truncation doubling and residual check.
    """
    return _normalized_lambdas(
        solve_raw_orbit(window, z, 0, k, orbit0.pot, orbit0.model, fwd=fwd), orbit0)
