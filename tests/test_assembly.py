import numpy as np
import pytest

from hybvp.assembly import assemble_all, per_segment, segment_grids
from hybvp.expressions import UnknownLayout, segment_block
from oracles import beta, dense_matrix, dense_offsets, evaluate, full_width


def _layout(n, m):
    return UnknownLayout(ms=per_segment(m, n, "m"))


def test_per_segment_layout_totals():
    assert per_segment(5, 3, "m") == (5, 5, 5)
    assert per_segment([2.0, 4, 6], 3, "m") == (2, 4, 6)
    assert _layout(1, 5).total == 5
    lay = _layout(2, 3)
    assert lay.total == 8
    assert lay.xi_slice(1) == slice(0, 3)
    assert lay.junction_value_index(1) == 3
    assert lay.junction_slope_index(1) == 4
    assert lay.xi_slice(2) == slice(5, 8)
    assert _layout(4, 10).total == 46
    assert _layout(3, (2, 4, 6)).total == 2 + 4 + 6 + 4


def test_per_segment_validation():
    with pytest.raises(ValueError, match="at least one segment"):
        per_segment(5, 0, "m")
    with pytest.raises(ValueError, match="m: expected 2 per-segment values, got 1"):
        per_segment((3,), 2, "m")


def test_segment_grids_share_junction_abscissae():
    grids = segment_grids([0.0, 0.5, 1.0], N=9, m=4)
    assert grids.n_segments == 2
    assert grids.grids[0].points[-1] == grids.grids[1].points[0] == 0.5
    assert grids.total_points == 18
    with pytest.raises(ValueError):
        segment_grids([0.0, 1.0, 0.5], N=9, m=4)
    with pytest.raises(ValueError):
        segment_grids([0.0, 1.0], N=(9, 9), m=4)


def test_boundary_row_embeds_y0_for_any_xi():
    grids = segment_grids([0.0, 0.5, 1.0], N=12, m=5)
    y0, yf = -2.0, 3.0
    sm = assemble_all(grids, y0, yf)
    A, B = dense_matrix(sm, 0), dense_offsets(sm, 0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = rng.standard_normal(grids.layout.total)
        assert A[0] @ xi + B[0] == y0
        assert abs(A[-1] @ xi + B[-1] - yf) < 1e-14


def test_zero_padding_blocks_are_exact():
    grids = segment_grids([0.0, 1.0, 2.0, 3.0], N=10, m=4)
    layout = grids.layout
    sm = assemble_all(grids, 0.0, 1.0)
    for d in (0, 1, 2):
        A = dense_matrix(sm, d)
        # segment-1 rows touch xi1 and junction 1 only
        rows1 = grids.row_slice(1)
        assert np.all(A[rows1, layout.xi_slice(2)] == 0.0)
        assert np.all(A[rows1, layout.xi_slice(3)] == 0.0)
        assert np.all(A[rows1, layout.junction_value_index(2)] == 0.0)
        # segment-2 (middle) rows touch xi2 and both junctions
        rows2 = grids.row_slice(2)
        assert np.all(A[rows2, layout.xi_slice(1)] == 0.0)
        assert np.all(A[rows2, layout.xi_slice(3)] == 0.0)
        # segment-3 rows touch xi3 and junction 2 only
        rows3 = grids.row_slice(3)
        assert np.all(A[rows3, layout.xi_slice(1)] == 0.0)
        assert np.all(A[rows3, layout.xi_slice(2)] == 0.0)
        assert np.all(A[rows3, layout.junction_value_index(1)] == 0.0)
        assert np.all(A[rows3, layout.junction_slope_index(1)] == 0.0)


def test_offsets_zero_on_middle_segments():
    grids = segment_grids([0.0, 1.0, 2.0, 3.0], N=8, m=4)
    sm = assemble_all(grids, 5.0, -7.0)
    for d in (0, 1, 2):
        B = dense_offsets(sm, d)
        assert np.all(B[grids.row_slice(2)] == 0.0)
        if d == 0:
            assert B[grids.row_slice(1)][0] == 5.0
            assert B[grids.row_slice(3)][-1] == -7.0


def test_two_segment_second_derivative_block_structure():
    """The d=2 stack of a two-segment geometry: [H1 b2'' b3'' 0; 0 b4'' b5'' H2]."""
    grids = segment_grids([0.0, 0.5, 1.0], N=7, m=5)
    layout = grids.layout
    sm = assemble_all(grids, 0.0, 1.0)
    A, B = dense_matrix(sm, 2), dense_offsets(sm, 2)
    x1 = grids.grids[0].points
    x2 = grids.grids[1].points
    iv1, iv2 = grids.grids[0].interval, grids.grids[1].interval
    rows1, rows2 = grids.row_slice(1), grids.row_slice(2)
    # segment k's rows are its role's reference rows scaled by powers of
    # its width: equal to the kernel and the closed forms up to rounding
    # of the block's largest entry
    tol1, tol2 = (1e-14 * np.max(np.abs(A[rows])) for rows in (rows1, rows2))

    H1, off1 = segment_block(grids.specs[0], iv1, 1, layout, 0.0, 1.0, x1, (2,))[2]
    assert np.max(np.abs(A[rows1] - full_width(H1, layout, 1))) <= tol1
    assert np.max(np.abs(B[rows1] - off1)) <= tol1

    assert np.max(np.abs(A[rows1, layout.junction_value_index(1)] - beta(2, iv1, x1, 2))) <= tol1
    assert np.max(np.abs(A[rows1, layout.junction_slope_index(1)] - beta(3, iv1, x1, 2))) <= tol1
    assert np.all(A[rows1, layout.xi_slice(2)] == 0.0)

    assert np.max(np.abs(A[rows2, layout.junction_value_index(1)] - beta(4, iv2, x2, 2))) <= tol2
    assert np.max(np.abs(A[rows2, layout.junction_slope_index(1)] - beta(5, iv2, x2, 2))) <= tol2
    assert np.all(A[rows2, layout.xi_slice(1)] == 0.0)

    # offsets carry beta1''*y0 and beta6''*yf
    assert np.max(np.abs(B[rows2] - beta(6, iv2, x2, 2) * 1.0)) <= tol2
    assert np.max(np.abs(B[rows1] - beta(1, iv1, x1, 2) * 0.0)) <= tol1


def test_junction_rows_agree_between_adjacent_segments():
    grids = segment_grids([0.0, 0.8, 1.7, 3.0], N=9, m=5)
    rng = np.random.default_rng(5)
    sm = assemble_all(grids, 1.5, -0.5)
    for d in (0, 1):
        A, B = dense_matrix(sm, d), dense_offsets(sm, d)
        for k in (1, 2):
            left_row = grids.row_slice(k).stop - 1
            right_row = grids.row_slice(k + 1).start
            for _ in range(5):
                xi = rng.standard_normal(grids.layout.total)
                lhs = A[left_row] @ xi + B[left_row]
                rhs = A[right_row] @ xi + B[right_row]
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_first_derivative_consistent_with_value_differences():
    grids = segment_grids([0.0, 0.5, 1.0], N=20, m=6)
    sm = assemble_all(grids, 0.3, 0.9)
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(grids.layout.total)
    h = 1e-6
    layout = grids.layout
    for k in (1, 2):
        iv = grids.grids[k - 1].interval
        spec = grids.specs[k - 1]
        xs = np.linspace(iv.x0 + 2 * h, iv.xf - 2 * h, 9)

        def block(x, d):
            return segment_block(spec, iv, k, layout, 0.3, 0.9, x, (d,))[d]

        local = xi[layout.window(k)]
        c_plus, o_plus = block(xs + h, 0)
        c_minus, o_minus = block(xs - h, 0)
        c_mid, o_mid = block(xs, 1)
        fd = ((c_plus - c_minus) @ local + (o_plus - o_minus)) / (2 * h)
        analytic = c_mid @ local + o_mid
        assert np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))) < 1e-6


def test_shapes_and_single_segment_path():
    grids = segment_grids([0.0, 2.0], N=12, m=5)
    sm = assemble_all(grids, 1.0, 2.0)
    assert dense_matrix(sm, 0).shape == (12, 5)
    assert dense_offsets(sm, 2).shape == (12,)
    xi = np.zeros(5)
    vals = evaluate(sm, xi, 0)
    assert vals[0] == 1.0 and abs(vals[-1] - 2.0) < 1e-15

    grids = segment_grids([0.0, 1.0, 2.0, 3.0, 4.0], N=7, m=(3, 4, 5, 6))
    sm = assemble_all(grids, 0.0, 1.0)
    assert dense_matrix(sm, 1).shape == (28, 3 + 4 + 5 + 6 + 6)
