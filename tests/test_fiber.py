import numpy as np
import pytest

from skewprod.errors import DepthShrink, NotLattice
from skewprod.fiber import (
    CylinderFunction,
    FiberModel,
    PotentialTable,
    first_disagreement,
    holder_norm_rows,
    holder_norm_vector,
    holder_seminorm_values,
    word_table,
)


def holder_norm(g: CylinderFunction, alpha: float = 1.0):
    """(sup norm, seminorm, total) of g in the ||.||_{alpha,xi} norm, xi = 1/2."""
    semi = holder_seminorm_values(g.values, g.d, g.depth, alpha)
    return float(np.max(np.abs(g.values))), semi, holder_norm_vector(g.values, g.d, g.depth, alpha)


def test_word_table_lexicographic():
    tab = word_table(2, 3)
    assert tab.shape == (8, 3)
    assert list(tab[0]) == [0, 0, 0]
    assert list(tab[1]) == [0, 0, 1]
    assert list(tab[4]) == [1, 0, 0]
    assert list(tab[5]) == [1, 0, 1]


def test_constant_function_norm():
    g = CylinderFunction.constant(5.0, 2)
    sup, semi, total = holder_norm(g.extend(3))
    assert sup == 5.0 and semi == 0.0 and total == 5.0


def test_indicator_at_coordinate_2_seminorm():
    # g depends only on x_2: indicator of {x_2 = 0} at depth 3, d = 2.
    # Closest differing pair splits at m = 2, so the seminorm is 1 * 2^2 = 4.
    vals = np.array([1.0 if (w // 1) % 2 == 0 else 0.0 for w in range(8)])
    g = CylinderFunction(3, vals, 2)
    sup, semi, total = holder_norm(g, alpha=1.0)
    assert sup == 1.0
    assert semi == pytest.approx(4.0)
    assert total == pytest.approx(5.0)


def test_seminorm_alpha_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = CylinderFunction(4, rng.standard_normal(16), 2)
        _, semi_half, _ = holder_norm(g, alpha=0.5)
        _, semi_one, _ = holder_norm(g, alpha=1.0)
        assert semi_half <= semi_one + 1e-12


def test_seminorm_zero_iff_depth_two():
    rng = np.random.default_rng(1)
    g2 = CylinderFunction(2, rng.standard_normal(4), 2)
    assert holder_norm(g2)[1] == 0.0
    g3 = CylinderFunction(3, np.arange(8.0), 2)
    assert holder_norm(g3)[1] > 0.0


def test_extend_depth_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(100):
        depth = int(rng.integers(0, 4))
        g = CylinderFunction(depth, rng.standard_normal(2**depth), 2)
        ext = g.extend(depth + 2)
        assert holder_norm(g) == holder_norm(ext)


def test_extend_depth_value_layout():
    g = CylinderFunction(1, np.array([1.0, 2.0]), 2)
    ext = g.extend(3)
    # value at word w depends only on w_0
    assert list(ext.values) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    with pytest.raises(DepthShrink):
        ext.extend(1)


def test_norm_triangle_and_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = CylinderFunction(3, rng.standard_normal(8) + 1j * rng.standard_normal(8), 2)
        b = CylinderFunction(3, rng.standard_normal(8) + 1j * rng.standard_normal(8), 2)
        na = holder_norm(a)[2]
        nb = holder_norm(b)[2]
        nab = holder_norm(CylinderFunction(3, a.values + b.values, 2))[2]
        assert nab <= na + nb + 1e-10
        c = rng.standard_normal()
        assert holder_norm(CylinderFunction(3, a.values * c, 2))[2] == pytest.approx(abs(c) * na)


def test_pairing_contraction_on_words():
    # words agreeing on coords 0,1: prepending a common symbol halves the distance
    fd = first_disagreement(2, 4)
    tab = word_table(2, 4)
    for i in range(16):
        for j in range(16):
            m = fd[i, j]
            if m >= 2 and m < 4:
                for a in range(2):
                    # the index of the word a.w is a * 2^4 + index(w)
                    wi, wj = a * 16 + i, a * 16 + j
                    assert first_disagreement(2, 5)[wi, wj] == m + 1


def test_potential_table_lattice_validation():
    model = FiberModel(2, 1)
    PotentialTable([[0.0, 0.0]], [[1.0, -1.0]], model, lattice_h=1.0)
    with pytest.raises(NotLattice):
        PotentialTable([[0.0, 0.0]], [[1.0, -0.5]], model, lattice_h=1.0)
    for h in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(NotLattice, match="finite and positive"):
            PotentialTable([[0.0, 0.0]], [[1.0, -1.0]], model, lattice_h=h)


def test_potential_pair_mode_shapes():
    model = FiberModel(2, 1)
    u_pair = np.zeros((2, 2, 2))
    u_pair[0, 1] = [1.0, 1.0]
    pot = PotentialTable(np.zeros((2, 2)), u_pair, model, u_next_symbol=True)
    # key s * 2 + s_next; r = 1, so one cylinder w = 0 and branch a reads word a
    assert pot.key_u.shape == pot.key_phi.shape == (4, 1, 2)
    assert pot.targets.shape == (1, 2)
    assert pot.key_u[1, 0, 0] == 1.0
    assert pot.key_u[0, 0, 0] == 0.0


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 3), (3, 3), (2, 4)])
def test_holder_norm_rows_matches_per_vector(d, depth):
    rng = np.random.default_rng(d * 10 + depth)
    rows = rng.standard_normal((7, d**depth)) + 1j * rng.standard_normal((7, d**depth))
    norms = holder_norm_rows(rows, d, depth, alpha=0.7)
    assert norms.shape == (7,)
    for row, norm in zip(rows, norms):
        assert norm == holder_norm_vector(row, d, depth, alpha=0.7)
