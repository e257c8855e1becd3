"""Exact lattice laws of Birkhoff sums, their chains, samplers and characteristic functions.

Along one environment, both fiber models reduce to a `StepTable`: a start
law with per-state start increments, then one row of (probability, target
state, increment) branches per step.  The models build their tables in their
own modules (`symbolic`, `doeblin`); this engine sees only the arrays, and
the rows' keys when the builder knows that no row reads the state.  The
exact lattice law (a dynamic-programming convolution over (state, lattice
value), or, on a keyed table, the start law times powers of the table's few
distinct step laws), the renewal sums (one sweep of the `accumulating`
chain), the exact means and variances (one cached pass, `StepTable.moments`),
the sampler and the spectral characteristic function are written once
against the table, which is what makes the three characteristic-function
routes exactly comparable.

The DP advances the joint law, a row of D polynomials, left to right through
blocks of BLOCK_ROWS = 64 rows: a row times a D x D polynomial matrix costs
D^2 convolutions where a matrix product costs D^3, so this order is cheaper
than multiplying blocks together first.  All blocks' polynomial matrices are
built in one batch by pairwise doubling.  One kernel, a banded (Toeplitz)
GEMM over overlapping windows of rows of polynomials (`_banded`), runs both
each advance of the joint and each doubling level past SHIFT_TAPS taps,
batched over the level's pairs; short operands, such as one-row segments,
keep np.convolve, and short pieces a matmul per shift.  Every product is a
direct sum of nonnegative terms (np.convolve or matmul), never an FFT, so the
law's far tails keep their relative accuracy, and every law is rescaled to
its exact mass, carried in extended precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LatticeTooLarge, NotLattice
from .transfer import branch_matrices, full_product, prefix_products, unscale

STATE_BUDGET = 10**7
BLOCK_ROWS = 64  # DP rows multiplied into one polynomial matrix per joint advance
SHIFT_TAPS = 8  # longest pieces that a doubling level multiplies shift by shift
CHUNK = 16  # joint entries that one window of `_advance`'s banded GEMM yields
DOUBLING_CHUNK = 8  # entries that one window of a doubling level's banded GEMM yields
SERIAL_MNK = 1 << 18  # largest m * n * k that OpenBLAS multiplies on one thread
SLAB = 1 << 15  # entries of windows and band that one batch of `_banded` items copies


@dataclass
class LatticeDistribution:
    """Exact law of an n-step sum supported on offset + h * (k0 + i)."""

    h: float
    k0: int
    probs: np.ndarray
    n: int

    def values(self) -> np.ndarray:
        return (self.k0 + np.arange(len(self.probs))) * self.h

    def mean(self) -> float:
        return float(self.values() @ self.probs)

    def variance(self) -> float:
        v = self.values()
        m = v @ self.probs
        return float((v - m) ** 2 @ self.probs)

    def char_function(self, t: float) -> complex:
        return complex(np.exp(1j * t * self.values()) @ self.probs)

    def trim(self) -> "LatticeDistribution":
        nz = np.nonzero(self.probs > 0)[0]
        if len(nz) == 0:
            return self
        return LatticeDistribution(self.h, self.k0 + int(nz[0]),
                                   self.probs[nz[0]:nz[-1] + 1].copy(), self.n)


@dataclass
class StepTable:
    """One environment's n-step walk as arrays, rows in processing order.

    The start law puts state w at probability start[w] with the increment
    start_u[w]; row i then moves state w to targets[i, w, b] with probability
    probs[i, w, b], adding u[i, w, b].  probs, targets and u have shape
    (steps, D, B); the first n - steps summands of S_n sit in the start.  h is
    the lattice span of every increment, None when u is not lattice-valued.
    A system's `cycle_table` lays out one period of its periodic base orbit
    the same way, for `twisted_product` alone; its symbolic rows carry raw
    branch weights, not probabilities.  keys, which only a builder sets, is
    None or one integer per row: then no row reads the state, and rows that
    share a key share one step law (r = 1 fibers, rank-one Doeblin kernels:
    the base symbol key); rows with other keys may share it too.
    """

    n: int
    h: float | None
    start: np.ndarray
    start_u: np.ndarray
    probs: np.ndarray
    targets: np.ndarray
    u: np.ndarray
    keys: np.ndarray | None = None

    def sweep(self, at):
        """Exact lattice DP: yields (m, joint, k0) at each prefix length m in `at`.

        joint[w, i] is the mass of state w with S_m at lattice index k0 + i.

        Row i is a polynomial matrix C[i, s, v, w]: the mass moving from state
        v to state w with shift kmin_i + s.  The rows between consecutive
        yields form a segment, cut into blocks of up to BLOCK_ROWS rows; every
        block is padded with identity rows to a power-of-two length, and the
        products of all blocks of one padded length come from one batch of
        pairwise doubling (`_compose_blocks`).  The joint is then advanced by
        each block in order and yielded at the end of each segment.  Advancing
        a row vector costs D^2 convolutions per block where multiplying a
        segment's blocks together would cost D^3.  Each advance is one banded
        GEMM of the joint's overlapping windows (`_advance`), stacked in BLAS
        calls small enough to run on one thread, and so is each doubling
        level of more than SHIFT_TAPS taps, batched over its pairs; at span 2
        a 64-row block has 129 taps, and its levels of 9, 17, 33 and 65 taps
        are banded GEMMs.  Short operands keep np.convolve: a joint narrower
        than 2 * CHUNK, and a block of fewer than CHUNK taps, such as a
        one-row segment.  A block's coefficients past its rows' summed spans
        are exact zeros and are trimmed, so each joint has the value range of
        a row-by-row DP.  Every product is a direct sum of nonnegative terms,
        so the law's far tails keep their relative accuracy, which an FFT would
        lose to the rounding of the largest mass.  Each block's entries and
        each yielded joint are rescaled to their exact masses, which take the
        same products in extended precision (`_anchored`); without that, a
        law on a few lattice points lost mass to rounding at every doubling
        level (2e-15 after 102 rows of a two-state chain).
        """
        if self.h is None:
            raise NotLattice("exact lattice law needs declared lattice_h")
        k_start = _lattice_ints(self.start_u, self.h)
        k_steps = _lattice_ints(self.u, self.h)
        steps, D, B = self.probs.shape
        kmin, kmax = _row_min_max(k_steps.reshape(steps, D * B))
        lows = k_start.min() + np.concatenate([[0], np.cumsum(kmin)])
        highs = k_start.max() + np.concatenate([[0], np.cumsum(kmax)])
        width = int(highs.max()) - int(lows.min()) + 1
        if D * width > STATE_BUDGET:
            raise LatticeTooLarge(
                f"lattice DP needs {D * width} states, budget {STATE_BUDGET}")
        m0 = self.n - steps
        ms = self._prefixes(at)
        joint = np.zeros((D, int(highs[0] - lows[0]) + 1))
        joint[np.arange(D), k_start - lows[0]] = self.start
        k0 = int(lows[0])
        if ms and ms[0] == m0:
            yield m0, joint, k0
        ends = np.asarray(ms[1:] if ms and ms[0] == m0 else ms, dtype=np.int64) - m0
        if not len(ends):
            return
        # segment s covers rows [ends[s-1], ends[s]) in blocks [b0, b1) of up to BLOCK_ROWS
        seg_lo = np.concatenate([[0], ends[:-1]])
        n_blocks = -(-(ends - seg_lo) // BLOCK_ROWS)
        first = np.cumsum(n_blocks) - n_blocks
        seg = np.repeat(np.arange(len(ends)), n_blocks)
        b0 = seg_lo[seg] + BLOCK_ROWS * (np.arange(len(seg)) - first[seg])
        b1 = np.minimum(b0 + BLOCK_ROWS, ends[seg])
        # rows as polynomial matrices C and their masses M (the branch
        # probabilities summed per state and target in extended precision, so
        # that branches sharing a shift lose nothing to rounding); row
        # `steps` is the identity that pads short blocks
        span = kmax - kmin
        taps = int(span.max(initial=0)) + 1
        C = np.zeros((steps + 1, taps, D, D))
        M = np.zeros((steps + 1, D, D), dtype=np.longdouble)
        # flat indices of each branch's entries of C (row, shift, state,
        # target) and M (row, state, target), one branch at a time: within a
        # branch every (row, state) writes its own entry, and branches that
        # share one add in ascending order, as np.add.at does
        to = np.arange(D)[:, None] * D + self.targets
        c_at = (np.arange(steps)[:, None, None] * taps + k_steps - kmin[:, None, None]) * D * D + to
        m_at = np.arange(steps)[:, None, None] * D * D + to
        flat_c, flat_m = C.reshape(-1), M.reshape(-1)
        for b in range(B):
            flat_c[c_at[..., b]] += self.probs[..., b]
            flat_m[m_at[..., b]] += self.probs[..., b]
        C[steps, 0] = M[steps] = np.eye(D)
        span, kmin = np.append(span, 0), np.append(kmin, 0)
        # each block padded with identity rows to a power of two, one batch of
        # doubling per padded length; past its rows' summed spans a block's
        # coefficients are exact zeros and are trimmed
        pad = np.left_shift(1, np.frexp(b1 - b0 - 1)[1])  # 2 ** bit_length(rows - 1)
        blocks = [None] * len(b0)
        for size in sorted(set(pad.tolist())):
            sel = np.flatnonzero(pad == size)
            idx = b0[sel, None] + np.arange(size)
            idx[idx >= b1[sel, None]] = steps
            for b, coef, mass, length, shift in zip(sel.tolist(), *_compose_blocks(C, M, idx),
                                                    span[idx].sum(axis=1) + 1,
                                                    kmin[idx].sum(axis=1)):
                blocks[b] = coef[..., :length], mass, int(shift)
        last = set((first + n_blocks - 1).tolist())
        joint_mass = self.start.astype(np.longdouble)
        for b, (coef, mass, shift) in enumerate(blocks):
            joint = _advance(joint, coef)
            joint_mass = joint_mass @ mass
            k0 += shift
            if b in last:
                joint = _anchored(joint, joint_mass)
                yield m0 + int(ends[seg[b]]), joint, k0

    def accumulating(self, weights) -> "StepTable":
        """The renewal chain: this chain on D + 1 states.

        Every branch of a live state is also taken, with the same probability
        and increment, into one accumulator state D, which keeps its mass with
        increment 0; the live start is weighted by `weights` (the renewal
        integrand f) and the accumulator starts empty.  After the rows up to
        prefix length m the accumulator holds the sum over m0 < j <= m of the
        weighted joints of S_j, summed over states, so one `sweep` gives every
        renewal sum.  The rows are not stochastic: the accumulator gains the
        live mass, start . weights, on every row.
        """
        steps, D, B = self.probs.shape
        probs = np.zeros((steps, D + 1, 2 * B))
        targets = np.full((steps, D + 1, 2 * B), D)
        u = np.zeros((steps, D + 1, 2 * B))
        probs[:, :D, :B] = probs[:, :D, B:] = self.probs
        targets[:, :D, :B] = self.targets
        u[:, :D, :B] = u[:, :D, B:] = self.u
        probs[:, D, 0] = 1.0
        start = np.append(self.start * np.asarray(weights, dtype=float), 0.0)
        # the empty accumulator's increment lies inside the start's range
        return StepTable(self.n, self.h, start, np.append(self.start_u, self.start_u.min()),
                         probs, targets, u)

    def _prefixes(self, ns) -> list:
        """The distinct prefix lengths in ns, sorted; each must lie in [n - steps, n]."""
        m0 = self.n - len(self.probs)
        ms = sorted({int(m) for m in ns})
        if ms and not m0 <= ms[0] <= ms[-1] <= self.n:
            raise ValueError(f"prefix lengths must lie in [{m0}, {self.n}], got {ms}")
        return ms

    def stateless(self) -> bool:
        """True when no row reads the state: the builder gave the rows' keys."""
        return self.keys is not None

    @cached_property
    def _step_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of a keyed table grouped by step law (probabilities and
        increments), latest law first: for each group the last row that has
        its law and how many rows do, and each row's group.  One row per
        distinct key is read, and keys whose rows are equal share a group."""
        # each key's last row, latest key first
        _, first, inverse = np.unique(self.keys[::-1], return_index=True, return_inverse=True)
        order = np.argsort(first)
        last = len(self.keys) - 1 - first[order]
        laws = np.concatenate([self.probs[last, 0], self.u[last, 0]], axis=1)
        # keys whose rows are equal share a law, and the groups are the laws by latest key
        _, lead, law = np.unique(laws, axis=0, return_index=True, return_inverse=True)
        group = np.argsort(np.argsort(lead))[law.ravel()]  # the group of each key, latest first
        labels = group[np.argsort(order)][inverse.ravel()][::-1]
        return last[np.sort(lead)], np.bincount(labels, minlength=len(lead)), labels

    def laws(self, ns) -> list:
        """Exact laws of S_m for each prefix length m in ns (mass 1 up to rounding).

        A keyless table runs one `sweep`.  In a keyed table (r = 1 fibers,
        rank-one kernels) no row reads the state, so S_m is the start
        increment plus independent steps, and its law is the start law times
        the polynomials, on lattice shifts, of its few distinct step laws
        (`_step_groups`).  Between consecutive requested lengths, the d rows
        of group g contribute p_g ** d, computed by repeated squaring on one
        ladder per group and kept by (g, d); a segment multiplies its powers
        in a pairwise tree and advances the law once.  As in `sweep`, every
        product is a direct convolution of nonnegative terms, never an FFT,
        and each law is rescaled to its exact mass.
        """
        if not self.stateless():
            out = {m: LatticeDistribution(self.h, k0, joint.sum(axis=0), m).trim()
                   for m, joint, k0 in self.sweep(at=ns)}
            return [out[int(m)] for m in ns]
        if self.h is None:
            raise NotLattice("exact lattice law needs declared lattice_h")
        k_start = _lattice_ints(self.start_u, self.h)
        k_steps = _lattice_ints(self.u[:, 0], self.h)
        kmin = k_steps.min(axis=1)
        span = k_steps.max(axis=1) - kmin
        width = int(k_start.max() - k_start.min() + span.sum()) + 1
        if width > STATE_BUDGET:
            raise LatticeTooLarge(f"lattice law needs {width} states, budget {STATE_BUDGET}")
        m0 = self.n - len(self.probs)
        ms = self._prefixes(ns)
        rows, _, labels = self._step_groups
        # squaring ladders p_g, p_g ** 2, p_g ** 4, ... as 1 x 1 polynomial matrices
        ladders = [[np.bincount(k_steps[i] - kmin[i], self.probs[i, 0], span[i] + 1)[None, None]]
                   for i in rows]
        powers = {}

        def power(g: int, d: int) -> np.ndarray:
            if (g, d) not in powers:
                ladder = ladders[g]
                while d >> len(ladder):
                    ladder.append(_poly_product(ladder[-1], ladder[-1]))
                powers[g, d] = _tree_product([ladder[j] for j in range(d.bit_length()) if d >> j & 1])
            return powers[g, d]

        k0 = int(k_start.min())
        joint = np.bincount(k_start - k0, self.start)[None]
        # the exact mass of the joint and of each group's step law
        mass = self.start.astype(np.longdouble).sum(keepdims=True)
        step_mass = self.probs[rows, 0].astype(np.longdouble).sum(axis=1)
        out, done = {}, 0
        for m in ms:
            # the groups of the segment's rows and how many rows each has there
            g, d = np.unique(labels[done:m - m0], return_counts=True)
            if len(g):
                coef = _tree_product([power(*gd) for gd in zip(g.tolist(), d.tolist())])
                mass = mass * np.prod(step_mass[g] ** d)
                joint = _anchored(_poly_product(joint[None], coef)[0], mass)
                k0 += int(kmin[rows[g]] @ d)
            out[m] = LatticeDistribution(self.h, k0, joint[0], m).trim()
            done = m - m0
        return [out[int(m)] for m in ns]

    def law(self) -> LatticeDistribution:
        """Exact law of S_n: the last entry of `laws`."""
        return self.laws([self.n])[-1]

    def moments(self, ns) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and variance of S_m for each prefix length m in ns,
        read from one cached pass over the table (`_moments`)."""
        self._prefixes(ns)
        at = np.asarray(ns, dtype=np.int64) - (self.n - len(self.probs))
        return self._moments[0][at], self._moments[1][at]

    def summand_means(self) -> tuple[np.ndarray, np.ndarray]:
        """(conditional, means): each row's mean increment given the state,
        (steps, D), and the mean of every summand of S_n in order, the start
        counted as one summand when it carries any."""
        return self._moments[2:]

    @cached_property
    def marginals(self) -> np.ndarray:
        """The state's law before each row and after the last, (steps + 1, D),
        from one scan over the rows' transition matrices."""
        K = branch_matrices(self.probs, self.targets, len(self.start))
        return np.concatenate([self.start[None], self.start @ unscale(*prefix_products(K))])

    @cached_property
    def _moments(self) -> tuple:
        """Means and variances of S_m at m = n - steps, ..., n, then `summand_means`.

        Row i has mean e_i[w] = sum_b probs u given state w and m_i = p_i . e_i
        under the state's law p_i (`marginals`).  With c_i = u_i - m_i and c_s
        = start_u - start . start_u, Var(S_m) is start . c_s^2 plus the prefix
        sum of p_i . sum_b probs c_i^2 + 2 g_i . (e_i - m_i): g_i[w] carries the
        centred summands before row i on state w, one affine scan [g_{i+1}, 1]
        = [g_i, 1] [[K_i, 0], [drift_i, 1]] from g_0 = start c_s.  A keyed
        table (r = 1 fibers, rank-one kernels) has independent steps: it reads
        one state's branches and runs no scan, nor does a table of no rows."""
        steps, D, _ = self.probs.shape
        cond = (self.probs * self.u).sum(axis=2)
        start_mean = self.start @ self.start_u
        start_c = self.start_u - start_mean
        if self.stateless() or not steps:
            means = cond[:, 0]
            terms = (self.probs[:, 0] * (self.u[:, 0] - means[:, None]) ** 2).sum(axis=1)
        else:
            p = self.marginals[:-1]
            means = np.einsum("iw,iw->i", p, cond)
            weighted = self.probs * (self.u - means[:, None, None])
            terms = np.einsum("iw,iwb->i", p, weighted * (self.u - means[:, None, None]))
            aug = np.zeros((steps, D + 1, D + 1))
            aug[:, :D, :D] = branch_matrices(self.probs, self.targets, D)
            aug[:, D, :D] = branch_matrices(p[:, :, None] * weighted, self.targets, D).sum(axis=1)
            aug[:, D, D] = 1.0
            g = np.empty((steps, D + 1))
            g[0] = np.append(self.start * start_c, 1.0)
            g[1:] = g[0] @ unscale(*prefix_products(aug[:-1]))
            terms += 2.0 * np.einsum("iw,iw->i", g[:, :D], cond - means[:, None])
        means = np.concatenate([[start_mean], means])
        terms = np.concatenate([[self.start @ start_c ** 2], terms])
        return (np.cumsum(means), np.cumsum(terms), cond,
                means[1:] if steps == self.n else means)

    def sample(self, rng, replicates: int = 1) -> np.ndarray:
        """Unbiased draws of S_n.

        In a keyed table (r = 1 fibers, rank-one kernels) the rows are
        grouped by their step law (`_step_groups`, once per table) and each
        group is drawn as multinomial counts, groups in the order of their
        last row; otherwise the chain runs row by row, vectorized over
        replicates.
        """
        steps, D, _ = self.probs.shape
        states = np.zeros(replicates, dtype=np.int64) if D == 1 else \
            rng.choice(D, size=replicates, p=self.start)
        totals = self.start_u[states]
        if self.stateless():
            rows, counts, _ = self._step_groups
            for i, count in zip(rows, counts):
                draws = rng.multinomial(count, self.probs[i, 0], size=replicates)
                totals += draws @ self.u[i, 0]
            return totals
        cum = np.cumsum(self.probs, axis=2)
        cum[:, :, -1] = 1.0
        for i in range(steps):
            us = rng.random(replicates)
            branch = (us[:, None] > cum[i, states]).sum(axis=1)
            totals += self.u[i, states, branch]
            states = self.targets[i, states, branch]
        return totals

    def twisted_product(self, ts) -> np.ndarray:
        """The product, in row order, of the rows twisted by exp(i t u): one
        D x D matrix per t, (len(ts), D, D), from one scan with t the batch axis."""
        ts = np.asarray(ts, dtype=float)
        twisted = self.probs[:, None] * np.exp(1j * ts[:, None, None] * self.u[:, None])
        return unscale(*full_product(branch_matrices(twisted, self.targets, len(self.start))))

    def char_function(self, ts) -> np.ndarray:
        """Spectral E exp(i t S_n) for each t: the twisted product applied
        to 1, paired with the start law."""
        ts = np.asarray(ts, dtype=float)
        start = self.start * np.exp(1j * ts[:, None] * self.start_u)
        return np.einsum("tw,twc->t", start, self.twisted_product(ts))


def _compose_blocks(C: np.ndarray, M: np.ndarray, idx: np.ndarray) -> tuple:
    """Product of the polynomial matrices C[idx[b, 0]], C[idx[b, 1]], ... for
    every block b at once: (blocks, D, D, length), coefficients last, shifts
    from the block's summed kmin; and the product of their masses M (blocks,
    D, D), to which each block's entries are rescaled (`_anchored`).

    C has shape (rows, taps, D, D) and idx a power-of-two number of columns.
    Each level of the doubling multiplies adjacent pieces of every block in
    one batch, so a block of 2^k rows takes k levels.  While the pieces have
    at most SHIFT_TAPS coefficients, a level loops over the right factor's
    shifts with one batched matmul per shift, the left factor reshaped to
    (pieces, taps * D, D) (`_shift_level`).  Every longer level is one
    batched banded GEMM (`_banded`, the kernel of the joint advance): each
    pair's left piece is D row vectors of polynomials, each advanced by the
    right piece, in windows of min(DOUBLING_CHUNK, taps // 2) outputs, which
    keeps the windows and the band about equally small.  On the matrix-llt
    blocks (D = 2, 129 taps) the per-shift loop is faster at 3 and 5 taps
    and the banded GEMM from 9 taps on: about 2.5 times at 33 taps and 4 to
    5 times at 65 (best-of timings of one level on a 2-core VM).  The
    masses take the same doubling in extended precision.
    """
    blocks, D = len(idx), C.shape[2]
    mass = M[idx]
    while mass.shape[1] > 1:
        mass = mass[:, 0::2] @ mass[:, 1::2]
    mass = mass[:, 0]
    poly = C[idx.ravel()]
    while len(poly) > blocks and poly.shape[1] <= SHIFT_TAPS:
        poly = _shift_level(poly[0::2], poly[1::2])
    # (pieces, v, w, shift): row v of a left piece is a row of D polynomials
    poly = np.ascontiguousarray(poly.transpose(0, 2, 3, 1))
    while len(poly) > blocks:
        poly = _banded(poly[0::2], poly[1::2], min(DOUBLING_CHUNK, poly.shape[3] // 2))
    return _anchored(poly, mass), mass


def _shift_level(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products left[p] right[p] of polynomial matrices (pairs, taps, D,
    D), coefficients second: (pairs, 2 taps - 1, D, D), one batched matmul
    per shift of the right factor with the left reshaped to (pairs, taps *
    D, D), so that each pair takes one matrix product per shift.  Pairs go
    in slabs of about SLAB entries of products and output, as in `_banded`.
    """
    pairs, taps, D = left.shape[:3]
    slab = max(1, SLAB // (3 * taps * D * D))
    if pairs > slab:
        return np.concatenate([_shift_level(left[lo:lo + slab], right[lo:lo + slab])
                               for lo in range(0, pairs, slab)])
    lhs = left.reshape(pairs, taps * D, D)
    out = np.zeros((pairs, 2 * taps - 1, D, D))
    for s in range(taps):
        out[:, s:s + taps] += (lhs @ right[:, s]).reshape(pairs, taps, D, D)
    return out


def _advance(joint: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The joint (D, W) times the polynomial matrix coef (D, D, L), as
    `_poly_product(joint[None], coef)[0]`: (D, W + L - 1), the same direct sums
    of nonnegative products, added in another order.

    One banded GEMM (`_banded`) in windows of CHUNK outputs.  Short operands
    (W < 2 * CHUNK, or L < CHUNK as in one-row segments) keep np.convolve,
    which is faster there.
    """
    if joint.shape[1] < 2 * CHUNK or coef.shape[2] < CHUNK:
        return _poly_product(joint[None], coef)[0]
    return _banded(joint[None, None], coef[None], CHUNK)[0, 0]


def _banded(rows: np.ndarray, coef: np.ndarray, chunk: int) -> np.ndarray:
    """Every row vector of polynomials times its item's polynomial matrix:
    rows (P, R, D, W) and coef (P, D, D, L) give (P, R, D, W + L - 1), out[p,
    r] = `_poly_product(rows[p, r][None], coef[p])[0]`, the same direct sums
    of nonnegative products, added in another order.

    The output comes in chunks of `chunk` entries.  The chunk at j reads,
    from every state's polynomial of the row zero-padded by L - 1 on the
    left, the window of chunk + L - 1 entries starting at j, so one GEMM of
    the windows against the banded (Toeplitz) matrix band[(v, q), (w, t)] =
    coef[v, w, t - q + L - 1], zero off the band, gives every chunk of every
    row of an item.  Both are strided views, of the padded rows (windows
    every `chunk` entries) and of the coefficients padded by chunk - 1 zeros
    on each side, copied once each.  The windows are stacked so that each
    BLAS call has m * n * k <= SERIAL_MNK, which OpenBLAS runs on one thread:
    no thread start-up per call, and the same sums whatever the BLAS thread
    count.  A call takes whole rows when one row's windows fit, else a run
    of one row's windows; the chunk is halved while a single window is past
    SERIAL_MNK, so only a window of one entry past it (D^2 L > SERIAL_MNK)
    takes a call of its own, which OpenBLAS may thread.

    Items go in slabs whose windows and band hold at most SLAB entries
    (256 KiB).  The allocator serves buffers that small from memory it
    holds, where the buffers of a whole doubling level (1-2 MiB) would be
    mapped afresh, and page-faulted in, on every level of every table; in
    fresh `llt-matrix` runs the doubling took 25.4 ms at 2^14 entries and
    22.2 ms at 2^15 (medians of 10 alternating runs), and faulted again
    from about 2^15.5 on.
    """
    P, R, D, W = rows.shape
    L = coef.shape[3]
    while chunk > 1 and D * D * chunk * (chunk + L - 1) > SERIAL_MNK:
        chunk //= 2
    width, span = W + L - 1, chunk + L - 1
    k, n = D * span, D * chunk
    chunks = -(-width // chunk)
    fit = max(1, SERIAL_MNK // (k * n))  # windows per BLAS call
    if chunks <= fit:  # whole rows per call
        groups = -(-R // min(R, fit // chunks))
        per_row, parts, per_part = -(-R // groups), 1, chunks
    else:  # one row per call, its windows split evenly
        groups, per_row = R, 1
        parts = -(-chunks // fit)
        per_part = -(-chunks // parts)
    slab = max(1, SLAB // (k * (n + groups * parts * per_row * per_part)))
    if P > slab:  # items in slabs whose windows and band fit in SLAB entries
        out = np.empty((P, R, D, width))
        for lo in range(0, P, slab):
            out[lo:lo + slab] = _banded(rows[lo:lo + slab], coef[lo:lo + slab], chunk)
        return out
    # each strided view is copied once, and every buffer dropped as soon as
    # it is used, which keeps the footprint of a batch of items small
    padded = np.zeros((P, groups * per_row, D, parts * per_part * chunk + L - 1))
    padded[:, :R, :, L - 1:L - 1 + W] = rows
    item = padded.itemsize
    sp, sr, sd, _ = padded.strides
    windows = np.ndarray((P, groups, parts, per_row, per_part, D, span), buffer=padded,
                         strides=(sp, per_row * sr, per_part * chunk * item, sr,
                                  chunk * item, sd, item))
    windows = windows.reshape(P, groups, parts, per_row * per_part, k)
    del padded
    taps = np.zeros((P, D, D, 2 * chunk + L - 2))
    taps[..., chunk - 1:chunk - 1 + L] = coef
    tp, tv, tw, _ = taps.strides
    band = np.ndarray((P, D, span, D, chunk), buffer=taps, offset=(chunk + L - 2) * item,
                      strides=(tp, tv, -item, tw, item))
    band = band.reshape(P, 1, 1, k, n)
    del taps
    out = (windows @ band).reshape(P, groups, parts, per_row, per_part, D, chunk)
    del windows, band
    out = out.transpose(0, 1, 3, 5, 2, 4, 6).reshape(P, groups * per_row, D, -1)
    return out[:, :R, :, :width]


def _anchored(poly: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """poly (..., coefficients) rescaled in place so that each polynomial's
    coefficients sum to its entry of `mass`, the exact mass carried in
    extended precision.  Rounding drifts the mass of a long product, and in a
    chain whose rows repeat it drifts the same way in every piece of a
    doubling, so the drift would double with each level; a polynomial whose
    mass sits on one coefficient comes out within a rounding of exact."""
    got = poly.sum(axis=-1)
    got[got == 0] = 1.0  # an all-zero polynomial stays zero
    poly *= (mass / got).astype(float)[..., None]
    return poly


def _poly_product(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Product of polynomial matrices P (A, D, p) and Q (D, B, q), coefficients
    along the last axis: (A, B, p + q - 1), each entry summed over D direct
    convolutions (no FFT)."""
    out = np.zeros((P.shape[0], Q.shape[1], P.shape[2] + Q.shape[2] - 1))
    for a in range(P.shape[0]):
        for b in range(Q.shape[1]):
            entry = out[a, b]
            for x in range(Q.shape[0]):
                entry += np.convolve(P[a, x], Q[x, b])
    return out


def _tree_product(polys: list) -> np.ndarray:
    """Product of the polynomial matrices in order, multiplied in adjacent
    pairs level by level, so most of the work lands in a few long convolutions."""
    while len(polys) > 1:
        polys = [_poly_product(*polys[i:i + 2]) if i + 1 < len(polys) else polys[i]
                 for i in range(0, len(polys), 2)]
    return polys[0]


def _row_min_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and maximum of every row of a 2-D array, a column at a time:
    on a few columns much faster than a reduction along the short axis."""
    low, high = values[:, 0].copy(), values[:, 0].copy()
    for col in values.T[1:]:
        np.minimum(low, col, out=low)
        np.maximum(high, col, out=high)
    return low, high


def _lattice_ints(values: np.ndarray, h: float) -> np.ndarray:
    k = np.round(values / h).astype(np.int64)
    if np.max(np.abs(values / h - k), initial=0.0) > 1e-12:
        raise NotLattice("u values drifted off the lattice")
    return k
