import numpy as np
import pytest
from numpy.polynomial import chebyshev as ncheb

from hybvp import basis
from hybvp.assembly import assemble_all, segment_grids
from hybvp.basis import FAMILIES, BasisSpec, Interval, eval_basis, map_point
from hybvp.expressions import UnknownLayout, reference_block, segment_block, segment_constraints
from oracles import CASCADE_SKIP, cascade_eval, cascade_junction_value, segment_row


def _spec_for(iv, m=6, family="chebyshev"):
    return BasisSpec.for_interval(family, m, iv)


def _random_geometry(rng, n_segments):
    cuts = np.sort(rng.uniform(-5, 5, n_segments + 1))
    while np.min(np.diff(cuts)) < 0.2:
        cuts = np.sort(rng.uniform(-5, 5, n_segments + 1))
    return cuts


def test_layout_ordering_and_slices():
    lay = UnknownLayout(ms=(3, 3))
    assert lay.total == 8
    assert lay.xi_slice(1) == slice(0, 3)
    assert lay.junction_value_index(1) == 3
    assert lay.junction_slope_index(1) == 4
    assert lay.xi_slice(2) == slice(5, 8)

    lay = UnknownLayout(ms=(4, 2, 5))
    assert lay.total == 4 + 2 + 5 + 4
    covered = []
    for k in (1, 2, 3):
        covered.extend(range(lay.xi_slice(k).start, lay.xi_slice(k).stop))
    for j in (1, 2):
        covered.extend([lay.junction_value_index(j), lay.junction_slope_index(j)])
    assert sorted(covered) == list(range(lay.total))


def test_layout_single_segment_has_no_junctions():
    lay = UnknownLayout(ms=(5,))
    assert lay.total == 5
    with pytest.raises(ValueError):
        lay.junction_value_index(1)


def test_single_bvp_zero_free_function_interpolates_boundaries():
    iv = Interval(0.0, 1.0)
    spec = _spec_for(iv)
    layout = UnknownLayout(ms=(spec.m,))
    row0 = segment_row(spec, iv, 1, layout, 0.0, 1.0, 0.0, 0)
    rowm = segment_row(spec, iv, 1, layout, 0.0, 1.0, 0.5, 0)
    rowf = segment_row(spec, iv, 1, layout, 0.0, 1.0, 1.0, 0)
    xi = np.zeros(spec.m)
    assert row0(xi) == 0.0
    assert rowm(xi) == 0.5
    assert rowf(xi) == 1.0


def test_single_bvp_second_derivative_is_pure_free_function():
    rng = np.random.default_rng(1)
    iv = Interval(0.2, 1.7)
    spec = _spec_for(iv, m=7)
    layout = UnknownLayout(ms=(spec.m,))
    wide = BasisSpec(spec.family, spec.m + CASCADE_SKIP, spec.c)

    for x in (0.3, 0.9, 1.5):
        row = segment_row(spec, iv, 1, layout, 2.0, -1.0, x, 2)
        assert row.offset == 0.0
        pure = (spec.c ** 2) * eval_basis(wide, map_point(iv, x), 2)[CASCADE_SKIP:]
        assert np.array_equal(row.coeffs, pure)
        xi = rng.standard_normal(spec.m)
        assert row(xi) == pure @ xi


def test_first_segment_constraints_select_the_right_unknowns():
    rng = np.random.default_rng(2)
    x0, x1 = 0.0, 0.6
    iv = Interval(x0, x1)
    layout = UnknownLayout(ms=(6, 6))
    spec = _spec_for(iv)
    y0 = -1.3

    row = segment_row(spec, iv, 1, layout, y0, None, x0, 0)
    for _ in range(10):
        xi = rng.standard_normal(layout.total)
        assert row(xi) == y0

    row_val = segment_row(spec, iv, 1, layout, y0, None, x1, 0)
    e = np.zeros(layout.total)
    e[layout.junction_value_index(1)] = 1.0
    assert np.array_equal(row_val.coeffs, e)
    assert row_val.offset == 0.0

    row_slope = segment_row(spec, iv, 1, layout, y0, None, x1, 1)
    e = np.zeros(layout.total)
    e[layout.junction_slope_index(1)] = 1.0
    assert np.array_equal(row_slope.coeffs, e)
    assert row_slope.offset == 0.0


def test_middle_segment_constraints_select_the_right_unknowns():
    layout = UnknownLayout(ms=(4, 4, 4))
    iv = Interval(1.0, 2.5)
    spec = _spec_for(iv, m=4)

    row = segment_row(spec, iv, 2, layout, None, None, 1.0, 0)
    e = np.zeros(layout.total)
    e[layout.junction_value_index(1)] = 1.0
    assert np.array_equal(row.coeffs, e) and row.offset == 0.0

    row = segment_row(spec, iv, 2, layout, None, None, 2.5, 1)
    e = np.zeros(layout.total)
    e[layout.junction_slope_index(2)] = 1.0
    assert np.array_equal(row.coeffs, e) and row.offset == 0.0

    # homogeneous case: zero unknowns -> zero function
    row = segment_row(spec, iv, 2, layout, None, None, 1.7, 0)
    assert row(np.zeros(layout.total)) == 0.0


def test_segment_index_range_checked():
    layout = UnknownLayout(ms=(4, 4, 4))
    iv = Interval(1.0, 2.5)
    spec = _spec_for(iv, m=4)
    for k in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            segment_block(spec, iv, k, layout, 0.0, 1.0, 1.5)


def test_last_segment_constraints_select_the_right_unknowns():
    rng = np.random.default_rng(3)
    layout = UnknownLayout(ms=(5, 5))
    iv = Interval(0.5, 1.0)
    spec = _spec_for(iv, m=5)
    yf = 2.25

    row = segment_row(spec, iv, 2, layout, None, yf, 1.0, 0)
    for _ in range(10):
        assert row(rng.standard_normal(layout.total)) == yf

    row = segment_row(spec, iv, 2, layout, None, yf, 0.5, 0)
    e = np.zeros(layout.total)
    e[layout.junction_value_index(1)] = 1.0
    assert np.array_equal(row.coeffs, e) and row.offset == 0.0

    row = segment_row(spec, iv, 2, layout, None, yf, 0.5, 1)
    e = np.zeros(layout.total)
    e[layout.junction_slope_index(1)] = 1.0
    assert np.array_equal(row.coeffs, e) and row.offset == 0.0


def test_rows_touch_only_owning_segment_and_adjacent_junctions():
    layout = UnknownLayout(ms=(4, 4, 4, 4))
    cuts = [0.0, 1.0, 2.0, 3.0, 4.0]
    iv2 = Interval(cuts[1], cuts[2])
    spec = _spec_for(iv2, m=4)
    row = segment_row(spec, iv2, 2, layout, None, None, 1.3, 0)
    allowed = set(range(layout.xi_slice(2).start, layout.xi_slice(2).stop))
    allowed |= {layout.junction_value_index(1), layout.junction_slope_index(1),
                layout.junction_value_index(2), layout.junction_slope_index(2)}
    outside = [i for i in range(layout.total) if i not in allowed]
    assert np.all(row.coeffs[outside] == 0.0)


def test_constraint_satisfaction_over_random_geometries():
    """Boundary and C1 junction embedding holds for any Xi, before solving."""
    rng = np.random.default_rng(2024)
    for family in ("chebyshev", "legendre"):
        for trial in range(100):
            n = int(rng.integers(1, 6))
            cuts = _random_geometry(rng, n)
            m = int(rng.integers(3, 8))
            layout = UnknownLayout(ms=(m,) * n)
            y0, yf = rng.standard_normal(2) * 3
            xi = rng.standard_normal(layout.total)

            def row_at(k, x, d):
                iv = Interval(cuts[k - 1], cuts[k])
                return segment_row(_spec_for(iv, m, family), iv, k, layout, y0, yf, x, d)

            assert abs(row_at(1, cuts[0], 0)(xi) - y0) <= 1e-13 * max(1, abs(y0))
            assert abs(row_at(n, cuts[-1], 0)(xi) - yf) <= 1e-13 * max(1, abs(yf))
            for j in range(1, n):
                for d in (0, 1):
                    left = row_at(j, cuts[j], d)
                    right = row_at(j + 1, cuts[j], d)
                    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-13
                    assert abs(left.offset - right.offset) <= 1e-13
                    assert abs(left(xi) - right(xi)) <= 1e-13 * max(1.0, abs(left(xi)))


def test_one_call_for_all_orders_equals_one_call_per_order():
    rng = np.random.default_rng(7)
    cuts = [0.0, 0.4, 1.1, 1.3, 2.0]
    for n in (1, 2, 4):
        layout = UnknownLayout(ms=(5, 6, 7, 8)[:n])
        for k in range(1, n + 1):
            iv = Interval(cuts[k - 1], cuts[k] if k < n else cuts[-1])
            spec = BasisSpec.for_interval("legendre", layout.ms[k - 1], iv)
            x = np.sort(rng.uniform(iv.x0, iv.xf, 9))
            together = segment_block(spec, iv, k, layout, 0.7, -1.1, x, (0, 1, 2))
            for d in (0, 1, 2):
                coeffs, offsets = segment_block(spec, iv, k, layout, 0.7, -1.1, x, (d,))[d]
                assert np.array_equal(together[d][0], coeffs)
                assert np.array_equal(together[d][1], offsets)
                assert np.array_equal(np.signbit(together[d][1]), np.signbit(offsets))


def test_segment_constraints_are_the_switching_table_data():
    layout = UnknownLayout(ms=(3, 3, 3))
    expect = {1: [(0, 0, None, 1.5), (0, 1, 3, 0.0), (1, 1, 4, 0.0)],
              2: [(0, 0, 3, 0.0), (0, 1, 8, 0.0), (1, 0, 4, 0.0), (1, 1, 9, 0.0)],
              3: [(0, 0, 8, 0.0), (0, 1, None, -2.0), (1, 0, 9, 0.0)]}
    for k, cons in expect.items():
        got = segment_constraints(k, layout, 1.5, -2.0)
        assert [tuple(c) for c in got] == cons
    cons = segment_constraints(1, UnknownLayout(ms=(3,)), 1.5, -2.0)
    assert [tuple(c) for c in cons] == [(0, 0, None, 1.5), (0, 1, None, -2.0)]


def _cheb_free_coeffs(fn, iv, m):
    """Free-function coefficients of fn on iv: full fit minus the skipped head."""
    series = ncheb.Chebyshev.interpolate(
        lambda z: fn(0.5 * (iv.x0 + iv.xf) + 0.5 * iv.width * z), deg=m + CASCADE_SKIP - 1)
    coef = np.zeros(m + CASCADE_SKIP)
    coef[: series.coef.size] = series.coef
    return coef[CASCADE_SKIP:]


def test_cascade_junction_of_zero_free_functions_is_the_line_value():
    iv1, iv2 = Interval(0.0, 0.5), Interval(0.5, 1.0)
    s1, s2 = _spec_for(iv1, 4), _spec_for(iv2, 4)
    y1 = cascade_junction_value((s1, np.zeros(4)), (s2, np.zeros(4)), iv1, iv2, 0.0, 1.0)
    assert abs(y1 - 0.5) < 1e-15


def test_cascade_junction_symmetric_case():
    iv1, iv2 = Interval(0.0, 0.7), Interval(0.7, 1.9)
    s1, s2 = _spec_for(iv1, 5), _spec_for(iv2, 5)
    y1 = cascade_junction_value((s1, np.zeros(5)), (s2, np.zeros(5)), iv1, iv2, 0.7, 0.7)
    assert abs(y1 - 0.7) < 1e-14


def test_cascade_reproduces_a_global_polynomial():
    # g_k = the high-order part of P on each segment; the alpha support
    # restores the trimmed affine part, so the cascade must reproduce P.
    P = np.polynomial.Polynomial([0.3, -1.2, 0.8, 0.45, -0.2])
    iv1, iv2 = Interval(0.0, 0.6), Interval(0.6, 1.4)
    m = 6
    s1, s2 = _spec_for(iv1, m), _spec_for(iv2, m)
    g1 = (s1, _cheb_free_coeffs(P, iv1, m))
    g2 = (s2, _cheb_free_coeffs(P, iv2, m))
    y0, yf = P(0.0), P(1.4)
    y1 = cascade_junction_value(g1, g2, iv1, iv2, y0, yf)
    assert abs(y1 - P(0.6)) < 1e-12
    xs = np.linspace(0.0, 1.4, 41)
    vals = cascade_eval(g1, g2, iv1, iv2, y0, yf, xs, 0)
    assert np.max(np.abs(vals - P(xs))) < 1e-12
    dvals = cascade_eval(g1, g2, iv1, iv2, y0, yf, xs, 1)
    assert np.max(np.abs(dvals - P.deriv()(xs))) < 1e-11


def test_cascade_boundary_values_and_c1_junction():
    rng = np.random.default_rng(8)
    iv1, iv2 = Interval(-1.0, 0.2), Interval(0.2, 2.0)
    m = 7
    s1, s2 = _spec_for(iv1, m), _spec_for(iv2, m)
    for _ in range(20):
        g1 = (s1, rng.standard_normal(m))
        g2 = (s2, rng.standard_normal(m))
        y0, yf = rng.standard_normal(2)
        assert abs(cascade_eval(g1, g2, iv1, iv2, y0, yf, -1.0, 0) - y0) < 1e-13
        assert abs(cascade_eval(g1, g2, iv1, iv2, y0, yf, 2.0, 0) - yf) < 1e-13
        d_left = cascade_eval(g1, g2, iv1, iv2, y0, yf, 0.2, 1)
        d_right = cascade_eval(g1, g2, iv1, iv2, y0, yf, np.nextafter(0.2, 1.0), 1)
        assert abs(d_left - d_right) <= 1e-12 * max(1.0, abs(d_left))
        v_left = cascade_eval(g1, g2, iv1, iv2, y0, yf, 0.2, 0)
        v_right = cascade_eval(g1, g2, iv1, iv2, y0, yf, np.nextafter(0.2, 1.0), 0)
        assert abs(v_left - v_right) <= 1e-12 * max(1.0, abs(v_left))


def test_cascade_rejects_mismatched_junction():
    iv1, iv2 = Interval(0.0, 0.5), Interval(0.6, 1.0)
    s1, s2 = _spec_for(iv1, 4), _spec_for(iv2, 4)
    with pytest.raises(ValueError):
        cascade_junction_value((s1, np.zeros(4)), (s2, np.zeros(4)), iv1, iv2, 0.0, 1.0)


# --- assembly from cached reference blocks --------------------------------

def test_grid_path_matches_the_point_path_on_random_geometries():
    rng = np.random.default_rng(601)
    worst = 0.0
    for trial in range(24):
        n = int(rng.integers(1, 9))
        family = FAMILIES[trial % 2]
        m = [int(v) for v in rng.integers(1, 61, n)]
        N = [mk + int(rng.integers(4, 20)) for mk in m]
        grids = segment_grids(_random_geometry(rng, n), N, m, family)
        y0, yf = rng.standard_normal(2)
        system = assemble_all(grids, y0, yf)
        for k in range(1, n + 1):
            spec, grid = grids.specs[k - 1], grids.grids[k - 1]
            at_points = segment_block(spec, grid.interval, k, grids.layout, y0, yf, grid.points)
            for d in (0, 1, 2):
                (A, B), (A_x, B_x) = system.block(k, d), at_points[d]
                scale = np.max(np.abs(A))
                worst = max(worst, np.max(np.abs(A - A_x)) / scale)
                assert np.max(np.abs(A - A_x)) <= 1e-12 * scale
                assert np.max(np.abs(B - B_x)) <= 1e-13 * np.max(np.abs(B_x))
    assert worst > 0.0  # the reference block really is evaluated at other points


def test_grid_path_embeds_boundary_values_and_c1_exactly():
    rng = np.random.default_rng(17)
    for family in FAMILIES:
        grids = segment_grids(_random_geometry(rng, 5), 23, (4, 9, 12, 7, 15), family)
        sm = assemble_all(grids, -1.25, 2.5)
        layout = grids.layout
        for _ in range(5):
            xi = rng.standard_normal(layout.total)
            states = [sm.segment_states(xi, k) for k in range(1, 6)]
            assert states[0][0][0] == -1.25
            assert states[-1][0][-1] == 2.5
            for j in range(1, 5):
                left, right = states[j - 1], states[j]
                value = xi[layout.junction_value_index(j)]
                slope = xi[layout.junction_slope_index(j)]
                assert left[0][-1] == value == right[0][0]
                assert left[1][-1] == slope == right[1][0]


def test_reassembly_runs_no_basis_recurrence(monkeypatch):
    grids = segment_grids([0.0, 0.3, 1.0, 1.8, 2.0], 30, (8, 8, 11, 8), "legendre")
    first = assemble_all(grids, 0.5, -0.5)
    calls = []
    recurrence = basis._table

    def counted(*args):
        calls.append(args[0])
        return recurrence(*args)

    monkeypatch.setattr(basis, "_table", counted)
    again = assemble_all(grids, 0.5, -0.5)
    assert calls == []
    for k in range(1, 5):
        for d in (0, 1, 2):
            assert np.array_equal(first.block(k, d)[0], again.block(k, d)[0])
    # points off the collocation grid still run the recurrence
    segment_block(grids.specs[0], grids.grids[0].interval, 1, grids.layout, 0.5, -0.5,
                  np.array([0.1, 0.2]))
    assert calls == ["legendre"]


def test_a_uniform_chain_shares_one_reference_block_per_role():
    reference_block.cache_clear()
    system = assemble_all(segment_grids(np.linspace(0.0, 2.0, 65), 40, 12), 1.0, -1.0)
    # first, middle and last: 64 segments of one size make three blocks
    assert reference_block.cache_info().currsize <= 3
    assert all(system.segments[k][0] is system.segments[1][0] for k in range(1, 63))


def test_grid_of_another_segment_is_rejected():
    grids = segment_grids([0.0, 0.5, 1.0], 12, 5)
    with pytest.raises(ValueError, match="segment 1"):
        segment_block(grids.specs[0], grids.grids[0].interval, 1, grids.layout, 0.0, 1.0,
                      grids.grids[1].points)
