import numpy as np
import pytest
from _instances import random_instance, scalar_instance
from _oracles import branch_enumeration_apply, compose_cocycle

from skewprod.base_env import OmegaWindow, build_markov_base, sample_base_path
from skewprod.errors import InsufficientWindow, MissingSymbol
from skewprod.fiber import CylinderFunction, FiberModel, PotentialTable
from skewprod.rpf import SystemOrbit
from skewprod.seeding import generator
from skewprod.transfer import holder_operator_norm, key_matrices, symbol_keys


def test_scalar_normalized_weights():
    # phi = -ln 2 on two branches: L_0 1 = 1 via the 1x1 matrix [1]
    _, model, pot = scalar_instance([1.0, -1.0])
    m = key_matrices(0.0, pot, model)[0]
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0)


def test_scalar_fourier_weight_is_cosine():
    _, model, pot = scalar_instance([1.0, -1.0])
    for t in [0.3, 1.0, 2.5]:
        assert key_matrices(1j * t, pot, model)[0, 0, 0] == pytest.approx(np.cos(t), abs=1e-14)


def test_matrix_matches_manual_preimage_sum_r2():
    rng = generator(5)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    m = key_matrices(0.0, pot, model)[1]
    phi = pot.phi[1]
    # (L g)(x) = sum_a e^{phi[a x0]} g(a); manual enumeration of both preimages
    for x0 in range(2):
        g = np.array([0.7, -0.2])
        manual = sum(np.exp(phi[a * 2 + x0]) * g[a] for a in range(2))
        assert (m @ g)[x0] == pytest.approx(manual, rel=1e-14)


def test_missing_symbol_raises():
    _, model, pot = scalar_instance([1.0, -1.0])
    win = OmegaWindow(0, 1, [7, 0], n_states=8)  # symbol 7 has no table
    with pytest.raises(MissingSymbol):
        symbol_keys(win, pot, 0, 1)


@pytest.mark.parametrize("d,r,pair", [(2, 1, False), (2, 1, True), (2, 2, False),
                                      (2, 2, True), (2, 3, False), (2, 3, True),
                                      (3, 2, False)])
def test_key_matrices_equal_branch_enumeration(d, r, pair):
    # every key's matrix, column by column: M e_c is the one-step branch sum
    # of the basis function e_c, on a window whose first symbols spell the key
    rng = generator(200 + 10 * d + r + 5 * pair)
    model, S, D = FiberModel(d, r), 3, d ** (r - 1)
    phi = 0.5 * rng.standard_normal((S, d**r))
    u = rng.standard_normal((S, S, d**r) if pair else (S, d**r))
    pot = PotentialTable(phi, u, model, u_next_symbol=pair)
    zs = [0.3, 0.8j, 0.2 - 0.5j]
    batched = key_matrices(np.array(zs), pot, model)
    assert batched.shape == (3, S * S if pair else S, D, D)
    for i, z in enumerate(zs):
        mats = key_matrices(z, pot, model)
        assert np.iscomplexobj(mats) == (i > 0)
        assert np.allclose(batched[i], mats, rtol=1e-14, atol=0)
        for key, m in enumerate(mats):
            win = OmegaWindow(0, 1, divmod(key, S) if pair else (key, 0), n_states=S)
            for c in range(D):
                g = CylinderFunction(r - 1, np.eye(D)[c], d)
                oracle = branch_enumeration_apply(win, 1, z, pot, model, g)
                assert np.allclose(m[:, c], oracle, rtol=1e-13, atol=1e-15)


def test_compose_identity_and_scalar_product():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = sample_base_path(chain, 0, 10, 1)
    c0 = compose_cocycle(win, 0, 1j * 0.7, pot, model)
    assert np.allclose(c0.full(), np.eye(1))
    c2 = compose_cocycle(win, 2, 1j * 0.7, pot, model)
    assert c2.full()[0, 0] == pytest.approx(np.cos(0.7) ** 2, abs=1e-14)


def test_compose_associativity():
    rng = generator(6)
    chain, model, pot = random_instance(rng, d=2, r=3, n_states=3)
    win = sample_base_path(chain, 0, 12, 2)
    z = 0.3 + 0.4j
    full = compose_cocycle(win, 7, z, pot, model).full()
    first = compose_cocycle(win, 3, z, pot, model).full()
    second = compose_cocycle(win.shifted(3), 4, z, pot, model).full()
    assert np.allclose(second @ first, full, rtol=1e-10)


def test_window_too_short():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = sample_base_path(chain, 0, 3, 1)
    with pytest.raises(InsufficientWindow):
        compose_cocycle(win, 10, 0.0, pot, model)


@pytest.mark.parametrize("d,r,n", [(2, 1, 5), (2, 2, 5), (2, 3, 5), (3, 2, 4)])
def test_cocycle_equals_branch_enumeration(d, r, n):
    rng = generator(100 + d * 10 + r)
    chain, model, pot = random_instance(rng, d=d, r=r, n_states=2)
    win = sample_base_path(chain, 0, n + 2, 3)
    g = CylinderFunction(max(r - 1, 0), rng.standard_normal(d ** (r - 1)), d)
    for z in [0.0, 1j * 0.8, 0.2 - 0.5j]:
        matrix_result = compose_cocycle(win, n, z, pot, model).apply(g.values.astype(complex))
        oracle = branch_enumeration_apply(win, n, z, pot, model, g)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(matrix_result - oracle)) / scale < 1e-10


def test_oracle_pair_mode_tables():
    # u depending on the next base symbol flows through both pipelines identically
    rng = generator(40)
    model = FiberModel(2, 2)
    chain = build_markov_base([[0.6, 0.4], [0.3, 0.7]])
    phi = 0.3 * rng.standard_normal((2, 4))
    u_pair = rng.standard_normal((2, 2, 4))
    pot = PotentialTable(phi, u_pair, model, u_next_symbol=True)
    win = sample_base_path(chain, 0, 8, 9)
    g = CylinderFunction(1, rng.standard_normal(2), 2)
    z = 0.4j
    matrix_result = compose_cocycle(win, 5, z, pot, model).apply(g.values.astype(complex))
    oracle = branch_enumeration_apply(win, 5, z, pot, model, g)
    assert np.max(np.abs(matrix_result - oracle)) < 1e-10


def test_modulus_of_twisted_entries():
    rng = generator(7)
    chain, model, pot = random_instance(rng, d=3, r=2, n_states=2)
    m0 = key_matrices(0.0, pot, model)[0]
    mt = key_matrices(1j * 1.3, pot, model)[0]
    # entrywise |L_it| = L_0 holds before cancellation, i.e. per branch; after
    # assembly each (row, col) holds a single branch for r >= 2
    assert np.allclose(np.abs(mt), m0, atol=1e-14)


def test_normalize_operator_maximal_entropy_unchanged():
    # phi = -ln 2: h = 1 and lambda = 1, so the gauge leaves every factor as it is
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = sample_base_path(chain, -80, 100, 3)
    orbit = SystemOrbit(win, 0, 4, pot, model)
    raw = key_matrices(0.5j, pot, model)[orbit.keys]
    assert np.allclose(orbit.normalized_matrices([0.5j])[:, 0], raw)


def test_holder_operator_norm_identity():
    model = FiberModel(2, 3)
    rng = generator(8)
    chain, _, pot = random_instance(rng, d=2, r=3, n_states=2)
    rep = holder_operator_norm(np.eye(4), model, pot, n_steps=0, z=0.0)
    assert rep.surrogate == pytest.approx(1.0)
    assert rep.certified_bound >= rep.surrogate


def test_lasota_yorke_normalized_sup_contraction():
    # positive operator fixing 1: sup norm of A_0^n g never exceeds sup|g|
    rng = generator(9)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = sample_base_path(chain, -80, 100, 4)
    orbit = SystemOrbit(win, 0, 10, pot, model)
    g = rng.standard_normal(2)
    vec = g.copy()
    for j in range(10):
        vec = orbit.normalized_matrix(j) @ vec
        assert np.max(np.abs(vec)) <= np.max(np.abs(g)) + 1e-12
