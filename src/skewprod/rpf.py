"""Random RPF triplets along base orbits, pressure and its derivatives at 0.

The raw triplet (lambda, h, nu) at parameter z is computed from truncated
orbit iterations: eigenfunction directions by a backward sweep (products of
factors from the past applied to the constant function) and dual functionals
by a forward sweep (the reference functional pulled back from the future).
Truncation lengths double automatically until the eigen-relation residuals
drop below tolerance; failure to converge signals z outside the admissible
neighborhood and is surfaced, never hidden.

Normalized quantities (the triplet of the operator family fixing constants at
z = 0) are obtained from the raw ones by the gauge transform
lambda~ = a lambda_raw / (a_next lambda0), h~ = a h / h0, nu~ = h0 nu / a with
a = nu_z(h0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_env import OmegaWindow
from .errors import (
    BranchAmbiguity,
    NoConvergence,
    NonpositiveEigenfunction,
)
from .fiber import (
    CylinderFunction,
    FiberModel,
    PotentialTable,
    holder_norm_rows,
    holder_norm_vector,
)
from .jet import Jet2, jet_dot, jet_sum, jet_vecmat
from .transfer import (
    MatrixFactory,
    assemble_matrix,
    branch_arrays,
    key_matrices,
    symbol_keys,
)

DEFAULT_BACK = 64
DEFAULT_FWD = 64
MAX_TRUNC = 1024
PRESSURE_BOX = np.log(2.0) + np.pi  # per-step bound on |Pi| inside U_1


@dataclass
class RawOrbitTriplets:
    """Raw triplet data at one z along positions j_lo..j_hi of a window.

    Row i of H and V (shape (j_hi - j_lo + 1, D)) belongs to position
    j_lo + i, entry i of lam (shape (j_hi - j_lo,)) to the factor between
    positions j_lo + i and j_lo + i + 1.
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

    @property
    def max_residual(self) -> float:
        return max(self.eigen_residual, self.dual_residual)


def _is_real(z) -> bool:
    return float(np.imag(z)) == 0.0


def _solve_raw_once(mats: np.ndarray, keys: np.ndarray, z: complex, j_lo: int, j_hi: int,
                    model: FiberModel, back: int, fwd: int) -> RawOrbitTriplets:
    """One truncated solve: keys[i] is the symbol key of position j_lo - back + i."""
    n = j_hi - j_lo
    D = model.space_dim
    ctype = float if _is_real(z) else complex

    H = np.empty((n + 1, D), dtype=ctype)
    h = np.ones(D, dtype=ctype)
    for i in range(back + n):
        if i >= back:
            H[i - back] = h
        h = mats[keys[i]] @ h
        peak = np.max(np.abs(h))
        if peak == 0 or not np.isfinite(peak):
            raise NoConvergence(f"backward iteration degenerated at position {j_lo - back + i}")
        h = h / peak
    H[n] = h

    V = np.empty((n + 1, D), dtype=ctype)
    v = np.full(D, 1.0 / D, dtype=ctype)
    for i in range(back + n + fwd - 1, back - 1, -1):
        w = v @ mats[keys[i]]
        s = np.sum(w)
        if abs(s) < 1e-280 or not np.isfinite(abs(s)):
            raise NoConvergence(f"forward functional degenerated at position {j_lo - back + i}")
        v = w / s
        if i - back <= n:
            V[i - back] = v

    # nu_j(1) = 1 holds by construction; enforce nu_j(h_j) = 1
    den = np.einsum("jv,jv->j", V, H)
    small = np.flatnonzero(np.abs(den) < 1e-280)
    if small.size:
        raise NoConvergence(f"nu(h) ~ 0 at position {j_lo + small[0]}; z likely outside U")
    H = H / den[:, None]

    M = mats[keys[back:back + n]]
    MH = np.einsum("jvw,jw->jv", M, H[:-1])
    lam = np.einsum("jv,jv->j", V[1:], MH)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    eig = holder_norm_rows(MH - lam[:, None] * H[1:], d, depth, alpha) \
        / np.maximum(holder_norm_rows(H[:-1], d, depth, alpha), 1e-300)
    dual = np.max(np.abs(np.einsum("jv,jvw->jw", V[1:], M) - lam[:, None] * V[:-1]),
                  axis=1, initial=0.0) \
        / np.maximum(np.max(np.abs(V[:-1]), axis=1, initial=0.0), 1e-300)
    return RawOrbitTriplets(z, j_lo, j_hi, H, V, lam, float(np.max(eig, initial=0.0)),
                            float(np.max(dual, initial=0.0)), back, fwd)


def solve_raw_orbit(window: OmegaWindow, z: complex, j_lo: int, j_hi: int,
                    pot: PotentialTable, model: FiberModel,
                    back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                    tol: float = 1e-9, max_trunc: int = MAX_TRUNC) -> RawOrbitTriplets:
    """Raw triplets along [j_lo, j_hi] with truncation doubling until residuals < tol.

    Doubling is capped by max_trunc and by the window itself; a residual
    plateau above tolerance raises NoConvergence (expected behaviour for z
    outside the admissible neighborhood).
    """
    pair_pad = 1 if pot.u_next_symbol else 0
    window.require(j_lo - back, j_hi + fwd - 1 + pair_pad)
    b_cap = min(max_trunc, j_lo - window.lo)
    f_cap = min(max_trunc, window.hi - pair_pad - j_hi + 1)
    b, f = min(back, b_cap), min(fwd, f_cap)
    mats = key_matrices(z, pot, model)
    last = None
    while True:
        keys = symbol_keys(window, pot, j_lo - b, j_hi + f)
        last = _solve_raw_once(mats, keys, z, j_lo, j_hi, model, b, f)
        if last.max_residual < tol:
            if _is_real(z) and np.any(np.real(last.H) <= 0):
                raise NonpositiveEigenfunction("real-parameter eigenfunction lost positivity")
            return last
        nb, nf = min(2 * b, b_cap), min(2 * f, f_cap)
        if (nb, nf) == (b, f):
            break
        b, f = nb, nf
    raise NoConvergence(
        f"residual plateau at {last.max_residual:.3e} (tol {tol}) with truncation "
        f"({last.back_used},{last.fwd_used}); z={z} likely outside the admissible neighborhood")


class SystemOrbit:
    """z = 0 triplet data along a window span plus everything derived from it.

    Positions j run over [j_lo, j_hi] and factors over [j_lo, j_hi - 1]; the
    state is kept in arrays indexed by the offset i = j - j_lo: raw0.H,
    raw0.V and the Gibbs weights mu have shape (j_hi - j_lo + 1, D), raw0.lam,
    keys (see `transfer.symbol_keys`) and symbols (the base symbol of each
    factor) shape (j_hi - j_lo,).  The methods that take a position j take
    it absolute.  Exposes the normalized one-step matrices at any z, the
    stacked branch kernels the exact-law and sampling machinery consume, and
    the exact Birkhoff means and variances of the Gibbs start, all from one
    cached pass over those kernels.
    """

    def __init__(self, window: OmegaWindow, j_lo: int, j_hi: int, pot: PotentialTable,
                 model: FiberModel, back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                 tol: float = 1e-9, max_trunc: int = MAX_TRUNC):
        self.window = window
        self.j_lo, self.j_hi = j_lo, j_hi
        self.pot, self.model = pot, model
        self.factory0 = MatrixFactory(window, 0.0, pot, model)
        self.keys = symbol_keys(window, pot, j_lo, j_hi)
        self.symbols = self.keys // pot.n_symbols if pot.u_next_symbol else self.keys
        if model.space_dim == 1:
            # r = 1: the function space is one-dimensional, the triplet is closed form
            n = j_hi - j_lo
            lam = np.array([np.exp(row).sum() for row in pot.phi])[self.symbols]
            self.raw0 = RawOrbitTriplets(0.0, j_lo, j_hi, np.ones((n + 1, 1)),
                                         np.ones((n + 1, 1)), lam, 0.0, 0.0, 0, 0)
        else:
            self.raw0 = solve_raw_orbit(window, 0.0, j_lo, j_hi, pot, model,
                                        back, fwd, tol, max_trunc)
        m = np.real(self.raw0.H) * np.real(self.raw0.V)
        total = m.sum(axis=1, keepdims=True)
        if np.any(total <= 0):
            raise NonpositiveEigenfunction("Gibbs weights lost positivity")
        self.mu = m / total
        self._stacked = None
        self._moments = None

    def h0(self, j: int) -> np.ndarray:
        return np.real(self.raw0.H[j - self.j_lo])

    def nu0(self, j: int) -> np.ndarray:
        return np.real(self.raw0.V[j - self.j_lo])

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
            d, D = self.model.d, self.model.space_dim
            full = np.arange(d)[None, :] * D + np.arange(D)[:, None]  # word a.w at [w, a]
            tgt = full // d
            h = np.real(self.raw0.H)
            lam = np.real(self.raw0.lam)
            probs = np.exp(self.pot.phi[:, full])[self.symbols] * h[:-1][:, tgt] \
                / (lam[:, None, None] * h[1:, :, None])
            probs /= probs.sum(axis=2, keepdims=True)
            u_rows = self.pot.u.reshape(-1, d ** self.model.r)
            self._stacked = (probs, np.broadcast_to(tgt, probs.shape),
                             u_rows[:, full][self.keys])
        return self._stacked

    def branch_kernel(self, j: int):
        """(probs, targets, uvals) of the one-step backward transition at factor j."""
        return tuple(part[j - self.j_lo] for part in self.kernel_arrays())

    def normalized_matrix(self, j: int, z: complex = 0.0) -> np.ndarray:
        """Normalized one-step matrix at factor j and parameter z."""
        probs, targets, uvals = self.branch_kernel(j)
        D = self.model.space_dim
        if float(np.imag(z)) == 0.0:
            z = float(np.real(z))
        weights = probs * (np.exp(z * uvals) if z != 0 else 1.0)
        M = np.zeros((D, D), dtype=float if isinstance(z, float) else complex)
        rows = np.broadcast_to(np.arange(D)[:, None], targets.shape)
        np.add.at(M, (rows, targets), weights)
        return M

    def deep_apply_normalized(self, j: int, values: np.ndarray, depth: int) -> np.ndarray:
        """Normalized operator applied to a depth-K function, K >= r; output depth K-1."""
        d, r = self.model.d, self.model.r
        phi = self.pot.phi[self.symbols[j - self.j_lo]]
        h_in = self.h0(j)
        h_out = self.h0(j + 1)
        lam = self.lam0(j)
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

    def mu_deep(self, j: int, values: np.ndarray, depth: int) -> float:
        """mu at position j applied to a depth-K cylinder function (K >= r-1)."""
        vals = np.asarray(values, dtype=float)
        k = depth
        while k > self.model.r - 1:
            vals = np.real(self.deep_apply_normalized(j, vals, k))
            k -= 1
            j += 1
        return float(self.mu[j - self.j_lo] @ vals)

    # -- exact moments ----------------------------------------------------

    def _moment_pass(self):
        """(mean prefix sums, variance prefix sums, step means, stepped u), cached.

        Step i's mean is m_i = mu_{i+1}(A_i u_i) with (A_i u_i)[w] =
        sum_a probs u.  With the centred increments c_i = u_i - m_i the
        variance of the k-step sum is the prefix sum of mu_{i+1}(A_i c_i^2)
        plus twice the cross terms mu_{i+1}(A_i(c_i G_i)), where G_0 = 0 and
        G_{i+1} = A_i(G_i + c_i) carries the earlier centred steps to level
        i+1.  For D = 1 the steps are independent given the environment, so
        the cross terms vanish.
        """
        if self._moments is None:
            probs, targets, u = self.kernel_arrays()
            n, D = probs.shape[:2]
            mu_next = self.mu[1:]
            stepped = np.sum(probs * u, axis=2)
            means = np.einsum("iw,iw->i", mu_next, stepped)
            centred = u - means[:, None, None]
            terms = np.einsum("iw,iwa->i", mu_next, probs * centred ** 2)
            if D > 1:
                G = np.zeros(D)
                G_at = np.empty((n, D))
                weighted = probs * centred
                drift = weighted.sum(axis=2)
                for i in range(n):
                    G_at[i] = G
                    G = np.sum(probs[i] * G[targets[i]], axis=1) + drift[i]
                G_next = G_at[np.arange(n)[:, None, None], targets]
                terms += 2.0 * np.einsum("iw,iwa->i", mu_next, weighted * G_next)
            self._moments = (np.concatenate([[0.0], np.cumsum(means)]),
                             np.concatenate([[0.0], np.cumsum(terms)]), means, stepped)
        return self._moments

    def birkhoff_mean(self, k: int) -> float:
        """Exact mu-mean of the k-step sum: sum_{i<k} mu_{i+1}(A_i u_i)."""
        return float(self._moment_pass()[0][k])

    def constant_step_mean(self, n_check: int, tol: float = 1e-9):
        """(is_constant, gamma, max_deviation) of the per-step conditional means.

        The lattice limit theorems need the per-step Gibbs mean pinned to a
        constant; this checks the conditional one-step means along the window.
        """
        _, _, means, stepped = self._moment_pass()
        means, stepped = means[:n_check], stepped[:n_check]
        gamma = float(np.mean(means))
        max_dev = max(float(np.max(np.abs(stepped - means[:, None]))),
                      float(np.max(np.abs(means - gamma))))
        return max_dev <= tol, gamma, max_dev

    def birkhoff_variance(self, k: int) -> float:
        """Exact variance of the k-step sum under mu at the window origin."""
        return float(self._moment_pass()[1][k])


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

    def to_json_dict(self) -> dict:
        c = lambda x: [float(np.real(x)), float(np.imag(x))]
        cv = lambda arr: [c(x) for x in np.asarray(arr).ravel()]
        return {
            "z": c(self.z),
            "lambda": c(self.lambda_),
            "h": cv(self.h.values),
            "nu": cv(self.nu),
            "residuals": {
                "eigen": self.eigen_residual,
                "dual": self.dual_residual,
                "normalization": self.normalization_residual,
            },
            "window_used": list(self.window_used),
        }


def solve_rpf(window: OmegaWindow, z: complex, back_len: int, fwd_len: int,
              pot: PotentialTable, model: FiberModel, tol: float = 1e-9) -> RpfTriplet:
    """Solve the twisted eigenproblem at the window origin.

    Backward iteration builds h, forward iteration builds nu, the one-step
    ratio gives lambda; residuals are reported against the normalized
    operator relations.
    """
    orbit0 = SystemOrbit(window, 0, 1, pot, model, back=back_len, fwd=fwd_len, tol=tol)
    if z == 0:
        raw_z = orbit0.raw0
    else:
        raw_z = solve_raw_orbit(window, z, 0, 1, pot, model, back_len, fwd_len, tol)
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
                          n_list, pot: PotentialTable, model: FiberModel,
                          back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                          noise_floor: float = 1e-10) -> DecayFit:
    """Fit ||A_z^n q / lambda_n - nu(q) h_n|| ~ C c^n over n_list.

    Values below the noise floor are dropped before fitting (points under the
    solver's truncation error are numerical noise, not decay data); if fewer
    than three usable points remain the probe reports converged-at-once.
    """
    n_max = max(n_list)
    orbit0 = SystemOrbit(window, 0, n_max, pot, model, back=back, fwd=fwd)
    raw_z = orbit0.raw0 if z == 0 else solve_raw_orbit(window, z, 0, n_max, pot, model, back, fwd)
    d, depth, alpha = model.d, model.r - 1, model.alpha
    qv = q.extend(depth).values
    _, _, nu_n0 = norm_triplet_from_raw(raw_z, orbit0, 0)
    nu_q = nu_n0 @ qv
    e_n = []
    vec = qv.astype(float if _is_real(z) else complex)
    lam_prod = 1.0
    wanted = set(int(n) for n in n_list)
    for n in range(1, n_max + 1):
        lam_n, _, _ = norm_triplet_from_raw(raw_z, orbit0, n - 1)
        vec = orbit0.normalized_matrix(n - 1, z) @ vec
        lam_prod = lam_prod * lam_n
        if n in wanted:
            _, h_end, _ = norm_triplet_from_raw(raw_z, orbit0, n)
            diff = vec / lam_prod - nu_q * h_end
            e_n.append(float(holder_norm_vector(diff, d, depth, alpha)))
    ns = np.asarray(sorted(n_list), dtype=float)
    es = np.asarray(e_n)
    keep = es > noise_floor
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


def lambda_sequence(window: OmegaWindow, z: complex, k: int, orbit0: SystemOrbit,
                    fwd: int = DEFAULT_FWD) -> np.ndarray:
    """Normalized one-step eigenvalues lambda~_j(z), j = 0..k-1, along the orbit.

    Runs the forward dual recursion at z once; the per-step normalizing sums
    are the raw eigenvalues, and the gauge factors a_j = nu_j(z)(h0_j) convert
    to the normalized cocycle.
    """
    factory = MatrixFactory(window, z, orbit0.pot, orbit0.model)
    pair_pad = 1 if orbit0.pot.u_next_symbol else 0
    window.require(0, k + fwd - 1 + pair_pad)
    D = orbit0.model.space_dim
    v = np.full(D, 1.0 / D, dtype=complex)
    raw_lam = np.empty(k, dtype=complex)
    a = np.empty(k + 1, dtype=complex)
    vs = {}
    for p in range(k + fwd - 1, -1, -1):
        w = v @ factory.matrix(p)
        s = np.sum(w)
        if abs(s) < 1e-280:
            raise NoConvergence(f"dual recursion degenerated at position {p} for z={z}")
        v = w / s
        if p < k:
            raw_lam[p] = s
        if p <= k:
            vs[p] = v
    for j in range(k + 1):
        a[j] = vs[j] @ orbit0.h0(j)
    lam_norm = np.empty(k, dtype=complex)
    for j in range(k):
        lam_norm[j] = raw_lam[j] * a[j] / (a[j + 1] * orbit0.lam0(j))
    return lam_norm


@dataclass
class PressureCurve:
    k: int
    t_grid: np.ndarray
    values: np.ndarray          # Pi_{omega,k}(i t) along the grid
    windings: np.ndarray        # accumulated winding numbers per factor at grid end
    box_violations: list        # grid indices where |Pi| > k (ln 2 + pi)
    d1: complex | None = None
    d2: complex | None = None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t_grid": [float(t) for t in self.t_grid],
            "values": [[float(np.real(v)), float(np.imag(v))] for v in self.values],
            "windings": [float(w) for w in self.windings],
            "box_violations": list(self.box_violations),
        }


def pressure_curve(window: OmegaWindow, k: int, t_grid, pot: PotentialTable,
                   model: FiberModel, fwd: int = DEFAULT_FWD,
                   orbit0: SystemOrbit | None = None) -> PressureCurve:
    """Pi_{omega,k}(it) on the grid with per-factor continuous branch tracking.

    The grid is continued from t = 0 (prepended when missing), each factor's
    log starting at 0 there; adjacent grid points with argument jumps above
    pi/2 raise BranchAmbiguity and ask the caller to refine.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    prepended = False
    if len(ts) == 0 or ts[0] != 0.0:
        ts = np.concatenate([[0.0], ts])
        prepended = True
    if orbit0 is None:
        orbit0 = SystemOrbit(window, 0, k, pot, model, fwd=fwd)
    lam_grid = np.empty((len(ts), k), dtype=complex)
    for i, t in enumerate(ts):
        lam_grid[i] = lambda_sequence(window, 1j * t, k, orbit0, fwd=fwd) if t != 0 \
            else lambda_sequence(window, 0.0, k, orbit0, fwd=fwd)
    logs = np.empty_like(lam_grid)
    windings = np.zeros(k)
    logs[0] = np.log(lam_grid[0])  # at t=0 the normalized factors are ~1, so log ~ 0
    for i in range(1, len(ts)):
        ratio_arg = np.angle(lam_grid[i] / lam_grid[i - 1])
        if np.any(np.abs(ratio_arg) > np.pi / 2):
            j_bad = int(np.argmax(np.abs(ratio_arg)))
            raise BranchAmbiguity(
                f"factor {j_bad}: |d arg| = {abs(ratio_arg[j_bad]):.3f} > pi/2 between "
                f"t={ts[i-1]} and t={ts[i]}; refine the grid")
        logs[i] = logs[i - 1] + np.log(np.abs(lam_grid[i] / lam_grid[i - 1])) + 1j * ratio_arg
    values = logs.sum(axis=1)
    windings = np.round((np.imag(logs[-1]) - np.angle(lam_grid[-1])) / (2 * np.pi))
    box = [int(i) for i in range(len(ts)) if abs(values[i]) > k * PRESSURE_BOX]
    if prepended:
        ts, values = ts[1:], values[1:]
        box = [i - 1 for i in box if i >= 1]
    return PressureCurve(k, ts, values, windings, box)


def pressure_derivatives(window: OmegaWindow, k: int, pot: PotentialTable,
                         model: FiberModel, fwd: int = DEFAULT_FWD,
                         orbit0: SystemOrbit | None = None):
    """(Pi'(0), Pi''(0)) by second-order jets through the dual recursion.

    Jets ride the forward functional recursion and the gauge factors, so the
    derivatives are exact up to the (geometrically small) truncation error;
    finite differences stay available as an independent cross-check.
    """
    if orbit0 is None:
        orbit0 = SystemOrbit(window, 0, k, pot, model, fwd=fwd)
    pair_pad = 1 if pot.u_next_symbol else 0
    window.require(0, k + fwd - 1 + pair_pad)
    D = model.space_dim
    mjets = {}

    def mjet(j):
        key = orbit0.factory0.key_at(j)
        if key not in mjets:
            s_next = key[1] if len(key) == 2 else None
            w, tg = branch_arrays(key[0], 0.0, pot, model, s_next)
            u = pot.u_for(key[0], s_next)
            uvals = np.stack([u[a * D + np.arange(D)] for a in range(model.d)])
            M0 = assemble_matrix(w, tg, D)
            M1 = assemble_matrix(w * uvals, tg, D)
            M2 = assemble_matrix(w * uvals * uvals, tg, D)
            mjets[key] = Jet2(M0, M1, M2)
        return mjets[key]

    v = Jet2(np.full(D, 1.0 / D), np.zeros(D), np.zeros(D))
    lam_jets = {}
    a_jets = {}
    for p in range(k + fwd - 1, -1, -1):
        w = jet_vecmat(v, mjet(p))
        s = jet_sum(w)
        v = w / s
        if p < k:
            lam_jets[p] = s
        if p <= k:
            a_jets[p] = jet_dot(v, orbit0.h0(p))
    d1 = 0.0
    d2 = 0.0
    for j in range(k):
        lam_norm = lam_jets[j] * a_jets[j] / (a_jets[j + 1] * lam_jets[j].v)
        lg = lam_norm.log()
        d1 += lg.d1
        d2 += lg.d2
    return float(d1), float(d2)


def admissible_band(window: OmegaWindow, pot: PotentialTable, model: FiberModel,
                    t_max: float, bisections: int = 12, tol: float = 1e-9,
                    span: int = 1) -> float:
    """Largest |Im z| (up to t_max) where the orbit solver still converges.

    Empirical bisection; the theory only guarantees some neighborhood of 0.
    """
    def converges(t: float) -> bool:
        try:
            solve_raw_orbit(window, 1j * t, 0, span, pot, model,
                            back=DEFAULT_BACK, fwd=DEFAULT_FWD, tol=tol)
            return True
        except NoConvergence:
            return False

    if converges(t_max):
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(bisections):
        mid = (lo + hi) / 2
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo
