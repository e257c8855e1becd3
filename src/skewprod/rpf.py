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
from .fiber import CylinderFunction, FiberModel, PotentialTable, holder_norm_vector
from .jet import Jet2, jet_dot, jet_sum, jet_vecmat
from .transfer import MatrixFactory, branch_arrays, assemble_matrix

DEFAULT_BACK = 64
DEFAULT_FWD = 64
MAX_TRUNC = 1024
PRESSURE_BOX = np.log(2.0) + np.pi  # per-step bound on |Pi| inside U_1


@dataclass
class RawOrbitTriplets:
    """Raw triplet data at one z along positions j_lo..j_hi of a window."""

    z: complex
    j_lo: int
    j_hi: int
    H: dict            # j -> eigenfunction direction, nu_j(h_j) = 1
    V: dict            # j -> dual weights, nu_j(1) = 1
    lam: dict          # j -> one-step eigenvalue between j and j+1
    eigen_residual: float
    dual_residual: float
    back_used: int
    fwd_used: int

    @property
    def max_residual(self) -> float:
        return max(self.eigen_residual, self.dual_residual)


def _is_real(z) -> bool:
    return float(np.imag(z)) == 0.0


def _solve_raw_once(window: OmegaWindow, z: complex, j_lo: int, j_hi: int,
                    pot: PotentialTable, model: FiberModel, back: int, fwd: int):
    factory = MatrixFactory(window, z, pot, model)
    D = model.space_dim
    pair_pad = 1 if pot.u_next_symbol else 0
    window.require(j_lo - back, j_hi + fwd - 1 + pair_pad)
    ctype = float if _is_real(z) else complex

    H = {}
    h = np.ones(D, dtype=ctype)
    for p in range(j_lo - back, j_hi):
        if p >= j_lo:
            H[p] = h
        h = factory.matrix(p) @ h
        peak = np.max(np.abs(h))
        if peak == 0 or not np.isfinite(peak):
            raise NoConvergence(f"backward iteration degenerated at position {p}")
        h = h / peak
    H[j_hi] = h

    V = {}
    v = np.full(D, 1.0 / D, dtype=ctype)
    for p in range(j_hi + fwd - 1, j_lo - 1, -1):
        w = v @ factory.matrix(p)
        s = np.sum(w)
        if abs(s) < 1e-280 or not np.isfinite(abs(s)):
            raise NoConvergence(f"forward functional degenerated at position {p}")
        v = w / s
        if p <= j_hi:
            V[p] = v

    # fix normalizations: nu_j(1) = 1 holds by construction; enforce nu_j(h_j) = 1
    for j in range(j_lo, j_hi + 1):
        den = V[j] @ H[j]
        if abs(den) < 1e-280:
            raise NoConvergence(f"nu(h) ~ 0 at position {j}; z likely outside U")
        H[j] = H[j] / den

    lam = {}
    for j in range(j_lo, j_hi):
        val = V[j + 1] @ (factory.matrix(j) @ H[j])
        lam[j] = float(np.real(val)) if ctype is float else complex(val)

    eig_res = 0.0
    dual_res = 0.0
    for j in range(j_lo, j_hi):
        Mj = factory.matrix(j)
        r1 = Mj @ H[j] - lam[j] * H[j + 1]
        eig_res = max(eig_res, holder_norm_vector(r1, model.d, model.r - 1, model.alpha)
                      / max(holder_norm_vector(H[j], model.d, model.r - 1, model.alpha), 1e-300))
        r2 = V[j + 1] @ Mj - lam[j] * V[j]
        dual_res = max(dual_res, float(np.max(np.abs(r2))) / max(float(np.max(np.abs(V[j]))), 1e-300))
    return RawOrbitTriplets(z, j_lo, j_hi, H, V, lam, eig_res, dual_res, back, fwd)


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
    last = None
    while True:
        last = _solve_raw_once(window, z, j_lo, j_hi, pot, model, b, f)
        if last.max_residual < tol:
            if _is_real(z):
                for j in range(j_lo, j_hi + 1):
                    if np.any(np.real(last.H[j]) <= 0):
                        raise NonpositiveEigenfunction(
                            "real-parameter eigenfunction lost positivity")
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

    Exposes the Gibbs weights mu_j, the normalized one-step matrices at any z,
    and the per-branch transition kernels the exact-law and sampling machinery
    consume.  Positions j run over [j_lo, j_hi]; factor data (kernels, u
    shifts) exist for j in [j_lo, j_hi - 1].
    """

    def __init__(self, window: OmegaWindow, j_lo: int, j_hi: int, pot: PotentialTable,
                 model: FiberModel, back: int = DEFAULT_BACK, fwd: int = DEFAULT_FWD,
                 tol: float = 1e-9, max_trunc: int = MAX_TRUNC):
        self.window = window
        self.j_lo, self.j_hi = j_lo, j_hi
        self.pot, self.model = pot, model
        self.factory0 = MatrixFactory(window, 0.0, pot, model)
        if model.space_dim == 1:
            self.raw0 = self._scalar_raw0()
        else:
            self.raw0 = solve_raw_orbit(window, 0.0, j_lo, j_hi, pot, model,
                                        back, fwd, tol, max_trunc)
        self.mu = {}
        for j in range(j_lo, j_hi + 1):
            m = np.real(self.raw0.H[j]) * np.real(self.raw0.V[j])
            total = m.sum()
            if total <= 0:
                raise NonpositiveEigenfunction("Gibbs weights lost positivity")
            self.mu[j] = m / total
        self._kernels = {}
        self._stacked = None

    def _scalar_raw0(self) -> RawOrbitTriplets:
        # r = 1: the function space is one-dimensional, the triplet is closed form
        one = np.ones(1)
        H = {j: one for j in range(self.j_lo, self.j_hi + 1)}
        V = dict(H)
        lam = {}
        sums = {}
        for j in range(self.j_lo, self.j_hi):
            key = self.factory0.key_at(j)
            if key not in sums:
                sums[key] = float(np.exp(self.pot.phi_for(key[0])).sum())
            lam[j] = sums[key]
        return RawOrbitTriplets(0.0, self.j_lo, self.j_hi, H, V, lam, 0.0, 0.0, 0, 0)

    def h0(self, j: int) -> np.ndarray:
        return np.real(self.raw0.H[j])

    def nu0(self, j: int) -> np.ndarray:
        return np.real(self.raw0.V[j])

    def lam0(self, j: int) -> float:
        return float(np.real(self.raw0.lam[j]))

    def symbols_at(self, j: int):
        s = self.window.symbol(j)
        s_next = self.window.symbol(j + 1) if self.pot.u_next_symbol else None
        return s, s_next

    def branch_kernel(self, j: int):
        """(probs, targets, uvals) of the one-step backward transition at factor j.

        probs[w, a]: probability that the state at level j+1 in cylinder w
        extends to the past by fiber symbol a; targets[w, a] the resulting
        level-j cylinder; uvals[w, a] the u-increment of that step.  Rows sum
        to one exactly (renormalized against rounding drift).
        """
        # for r = 1 kernels are symbol-determined; cache by symbol key then
        key = self.factory0.key_at(j) if self.model.space_dim == 1 else j
        if key in self._kernels:
            return self._kernels[key]
        d, D = self.model.d, self.model.space_dim
        s, s_next = self.symbols_at(j)
        phi = self.pot.phi_for(s)
        u = self.pot.u_for(s, s_next)
        h_in = self.h0(j)
        h_out = self.h0(j + 1)
        lam = self.lam0(j)
        w_idx = np.arange(D, dtype=np.int64)
        probs = np.empty((D, d))
        targets = np.empty((D, d), dtype=np.int64)
        uvals = np.empty((D, d))
        for a in range(d):
            full = a * D + w_idx
            tgt = full // d
            probs[:, a] = np.exp(phi[full]) * h_in[tgt] / (lam * h_out[w_idx])
            targets[:, a] = tgt
            uvals[:, a] = u[full]
        probs /= probs.sum(axis=1, keepdims=True)
        self._kernels[key] = (probs, targets, uvals)
        return self._kernels[key]

    def kernel_arrays(self):
        """branch_kernel(j) for the factors j_lo..j_hi-1, stacked: (j_hi - j_lo, D, d) arrays."""
        if self._stacked is None:
            shape = (self.j_hi - self.j_lo, self.model.space_dim, self.model.d)
            if self.model.space_dim == 1 and shape[0] > 0:
                # r = 1 kernels depend only on the symbol key: one kernel per key
                pair = self.pot.u_next_symbol
                syms = self.window.symbols(self.j_lo, self.j_hi - 1 + pair)
                keys = syms[:-1] * self.pot.n_symbols + syms[1:] if pair else syms
                _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
                kernels = [self.branch_kernel(self.j_lo + int(i)) for i in first]
                self._stacked = tuple(np.stack(part)[inverse] for part in zip(*kernels))
            else:
                self._stacked = (np.empty(shape), np.empty(shape, dtype=np.int64),
                                 np.empty(shape))
                for i in range(shape[0]):
                    for out, part in zip(self._stacked, self.branch_kernel(self.j_lo + i)):
                        out[i] = part
        return self._stacked

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
        s, s_next = self.symbols_at(j)
        phi = self.pot.phi_for(s)
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
        D = self.model.space_dim
        vals = np.asarray(values, dtype=float)
        k = depth
        while k > self.model.r - 1:
            vals = np.real(self.deep_apply_normalized(j, vals, k))
            k -= 1
            j += 1
        return float(self.mu[j] @ vals)

    # -- quadrature -------------------------------------------------------

    def u_at(self, j: int) -> np.ndarray:
        s, s_next = self.symbols_at(j)
        return self.pot.u_for(s, s_next)

    def birkhoff_mean(self, k: int) -> float:
        """Exact mu-mean of the k-step sum: sum_j mu_{j+1}(applied step mean)."""
        total = 0.0
        for j in range(k):
            stepped = self.deep_apply_normalized(j, self.u_at(j), self.model.r)
            total += float(self.mu[j + 1] @ np.real(stepped))
        return total

    def constant_step_mean(self, n_check: int, tol: float = 1e-9):
        """(is_constant, gamma, max_deviation) of the per-step conditional means.

        The lattice limit theorems need the per-step Gibbs mean pinned to a
        constant; this checks the conditional one-step means along the window.
        """
        means = []
        devs = []
        for j in range(n_check):
            stepped = np.real(self.deep_apply_normalized(j, self.u_at(j), self.model.r))
            m = float(self.mu[j + 1] @ stepped)
            means.append(m)
            devs.append(float(np.max(np.abs(stepped - m))))
        gamma = float(np.mean(means))
        max_dev = max(max(devs), max(abs(m - gamma) for m in means))
        return max_dev <= tol, gamma, max_dev

    def birkhoff_variance(self, k: int) -> float:
        """Exact variance of the k-step sum under mu at the window origin."""
        r = self.model.r
        if self.model.space_dim == 1:
            # steps are independent given the environment
            total = 0.0
            for j in range(k):
                probs, _, uvals = self.branch_kernel(j)
                m = float(probs[0] @ uvals[0])
                total += float(probs[0] @ (uvals[0] - m) ** 2)
            return total
        means = np.empty(k)
        second = 0.0
        for j in range(k):
            uj = self.u_at(j)
            stepped = np.real(self.deep_apply_normalized(j, uj, r))
            means[j] = float(self.mu[j + 1] @ stepped)
            diag = np.real(self.deep_apply_normalized(j, uj * uj, r))
            second += float(self.mu[j + 1] @ diag)
            F = stepped
            for l in range(j + 1, k):
                ul = self.u_at(l)
                F_ext = np.repeat(F, self.model.d)  # depth r-1 -> depth r: F[y_{:r-1}]
                cross = np.real(self.deep_apply_normalized(l, ul * F_ext, r))
                second += 2.0 * float(self.mu[l + 1] @ cross)
                F = self.normalized_matrix(l) @ F
        mean = means.sum()
        return second - mean * mean


def norm_triplet_from_raw(raw_z: RawOrbitTriplets, orbit0: SystemOrbit, j: int):
    """Gauge transform to the normalized triplet at position j."""
    h0 = orbit0.h0(j)
    a_j = raw_z.V[j] @ h0
    a_j1 = raw_z.V[j + 1] @ orbit0.h0(j + 1) if j + 1 <= raw_z.j_hi else None
    h_norm = a_j * raw_z.H[j] / h0
    nu_norm = h0 * raw_z.V[j] / a_j
    lam_norm = None
    if a_j1 is not None and j in raw_z.lam:
        lam_norm = raw_z.lam[j] * a_j / (a_j1 * orbit0.lam0(j))
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
