import numpy as np
import pytest

from hybvp.basis import Interval, collocation_grid, lobatto_nodes, map_point
from hybvp.expressions import reference_block, reference_bounds
from oracles import BasisSpec, end_tables, eval_basis


def test_interval_requires_increasing_endpoints():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    assert Interval(0.0, 2.0).width == 2.0


def test_map_point_endpoint_images_are_exact():
    iv = Interval(0.0, 1.0)
    assert map_point(iv, 0.0) == -1.0
    assert map_point(iv, 1.0) == 1.0
    assert map_point(iv, 0.5) == 0.0


def test_map_point_hand_computed_interior_value():
    assert map_point(Interval(0.5, 1.0), 0.75) == 0.0


def test_map_point_rejects_outside_points():
    with pytest.raises(ValueError):
        map_point(Interval(0.0, 1.0), 1.5)
    with pytest.raises(ValueError):
        map_point(Interval(0.0, 1.0), -0.1)


def test_map_point_is_affine_in_the_fraction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-10, 10, 2))
        if b - a < 1e-3:
            continue
        iv = Interval(a, b)
        lam = rng.uniform(0, 1)
        z = map_point(iv, a + lam * (b - a))
        assert abs(z - (-1.0 + 2.0 * lam)) < 1e-14


def test_collocation_grid_two_and_three_points():
    assert np.array_equal(collocation_grid(Interval(-1, 1), 2), [-1.0, 1.0])
    assert np.array_equal(collocation_grid(Interval(-1, 1), 3), [-1.0, 0.0, 1.0])
    assert np.array_equal(collocation_grid(Interval(0, 1), 3), [0.0, 0.5, 1.0])


def test_collocation_grid_rejects_tiny_N():
    with pytest.raises(ValueError):
        collocation_grid(Interval(0, 1), 1)


def test_collocation_grid_spans_endpoints_and_increases():
    iv = Interval(0.3, 2.7)
    x = collocation_grid(iv, 37)
    assert x[0] == iv.x0 and x[-1] == iv.xf
    assert np.all(np.diff(x) > 0)
    assert x.shape == (37,)


def test_collocation_grid_maps_the_lobatto_nodes():
    iv = Interval(0.3, 2.7)
    x = collocation_grid(iv, 11)
    nodes = lobatto_nodes(11)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    mapped = 0.5 * (iv.x0 + iv.xf) + 0.5 * iv.width * nodes
    assert np.array_equal(x[1:-1], mapped[1:-1])


def test_cached_tables_are_the_recurrence_at_the_reference_points():
    for family in ("chebyshev", "legendre"):
        spec = BasisSpec(family, 13, 1.0)
        assert all(np.array_equal(a, b) for a, b in
                   zip(end_tables(family, 13), eval_basis(spec, np.array([-1.0, 1.0]), (0, 1))))
        assert end_tables(family, 13)[1] is end_tables(family, 13)[1]


def test_cached_tables_are_read_only():
    rows, ends, powers = reference_block("chebyshev", 5, 9, False, True)
    bounds = reference_bounds("legendre", 5, 9, True, True)
    for table in (lobatto_nodes(9), bounds, *rows, *ends, powers):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)
    assert np.array_equal(lobatto_nodes(3), [-1.0, 0.0, 1.0])


def test_collocation_grid_antisymmetric_on_reference_interval():
    z = collocation_grid(Interval(-1, 1), 24)
    assert np.array_equal(z, -z[::-1])
    z = collocation_grid(Interval(-1, 1), 25)
    assert np.array_equal(z, -z[::-1])
    assert z[12] == 0.0


def test_chebyshev_values_at_one_and_zero():
    spec = BasisSpec("chebyshev", 4, 1.0)
    assert np.array_equal(eval_basis(spec, 1.0, 0), [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(eval_basis(spec, 0.0, 0), [1.0, 0.0, -1.0, 0.0])


def test_legendre_values_at_one():
    spec = BasisSpec("legendre", 6, 1.0)
    assert np.allclose(eval_basis(spec, 1.0, 0), np.ones(6), atol=1e-14)
    # P2(0) = -1/2, P4(0) = 3/8
    vals = eval_basis(spec, 0.0, 0)
    assert abs(vals[2] + 0.5) < 1e-15
    assert abs(vals[4] - 0.375) < 1e-15


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
def test_first_derivative_matches_finite_difference(family):
    spec = BasisSpec(family, 10, 1.0)
    h = 1e-6
    for z in (-0.83, -0.2, 0.41, 0.77):
        fd = (eval_basis(spec, z + h, 0) - eval_basis(spec, z - h, 0)) / (2 * h)
        exact = eval_basis(spec, z, 1)
        denom = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(fd - exact) / denom) < 1e-8


@pytest.mark.parametrize("family", ["chebyshev", "legendre"])
def test_second_derivative_matches_finite_difference_of_first(family):
    spec = BasisSpec(family, 10, 1.0)
    h = 1e-6
    for z in (-0.61, 0.13, 0.57):
        fd = (eval_basis(spec, z + h, 1) - eval_basis(spec, z - h, 1)) / (2 * h)
        exact = eval_basis(spec, z, 2)
        denom = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(fd - exact) / denom) < 1e-8


def test_eval_basis_rejects_high_orders_and_outside_points():
    spec = BasisSpec("chebyshev", 4, 1.0)
    with pytest.raises(ValueError):
        eval_basis(spec, 0.0, 3)
    with pytest.raises(ValueError):
        eval_basis(spec, 1.2, 0)


def test_chebyshev_values_bounded_by_one():
    spec = BasisSpec("chebyshev", 20, 1.0)
    z = np.random.default_rng(3).uniform(-1, 1, 200)
    assert np.max(np.abs(eval_basis(spec, z, 0))) <= 1.0 + 1e-14


def _basis_matrix(spec, iv, x, d):
    """N x m matrix of c**d * h^(d)(z(x_i)) over the points x of iv."""
    return (spec.c ** d) * eval_basis(spec, map_point(iv, x), d)


def test_basis_matrix_constant_column_and_linear_second_derivative():
    iv = Interval(0.0, 2.0)
    x = collocation_grid(iv, 9)
    spec1 = BasisSpec.for_interval("chebyshev", 1, iv)
    assert np.array_equal(_basis_matrix(spec1, iv, x, 0), np.ones((9, 1)))
    spec2 = BasisSpec.for_interval("chebyshev", 2, iv)
    d2 = _basis_matrix(spec2, iv, x, 2)
    assert np.array_equal(d2[:, 1], np.zeros(9))


def test_basis_matrix_rows_match_pointwise_evaluation():
    rng = np.random.default_rng(11)
    iv = Interval(-0.5, 1.7)
    spec = BasisSpec.for_interval("legendre", 7, iv)
    pts = np.sort(rng.uniform(iv.x0, iv.xf, 5))
    pts[0], pts[-1] = iv.x0, iv.xf
    for d in (0, 1, 2):
        mat = _basis_matrix(spec, iv, pts, d)
        for i, x in enumerate(pts):
            row = (spec.c ** d) * eval_basis(spec, map_point(iv, x), d)
            assert np.array_equal(mat[i], row)


def test_expansion_chain_rule_matches_x_finite_differences():
    rng = np.random.default_rng(5)
    iv = Interval(0.25, 3.5)
    spec = BasisSpec.for_interval("chebyshev", 9, iv)
    xi = rng.standard_normal(9)
    h = 1e-6

    def g(x, d=0):
        return (spec.c ** d) * eval_basis(spec, map_point(iv, x), d) @ xi

    for x in np.linspace(iv.x0 + 0.1, iv.xf - 0.1, 7):
        fd1 = (g(x + h) - g(x - h)) / (2 * h)
        fd2 = (g(x + h, 1) - g(x - h, 1)) / (2 * h)
        assert abs(fd1 - g(x, 1)) / max(1.0, abs(g(x, 1))) < 1e-7
        assert abs(fd2 - g(x, 2)) / max(1.0, abs(g(x, 2))) < 1e-7


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec("fourier", 4, 1.0)
    with pytest.raises(ValueError):
        BasisSpec("chebyshev", 0, 1.0)
    with pytest.raises(ValueError):
        BasisSpec("chebyshev", 4, -1.0)
