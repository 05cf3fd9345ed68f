import numpy as np
import pytest

from hybvp.basis import Interval
from hybvp.switching import switching_functions
from oracles import FAMILY_CONSTRAINTS, alpha, beta, closed_form_switching, gamma


def _random_intervals(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b = np.sort(rng.uniform(-10, 10, 2))
        if b - a > 1e-2:
            out.append(Interval(a, b))
    return out


def _constraint_matrix(fns, constraints, iv):
    """Matrix of constraint functionals applied to each switching function."""
    ends = (iv.x0, iv.xf)
    return np.array([[fn(iv, ends[end], d) for fn in fns] for d, end in constraints])


def test_table_spot_values():
    assert beta(1, Interval(0, 1), 0.0, 0) == 1.0
    assert gamma(1, Interval(2, 5), 5.0, 0) == 0.0
    assert gamma(3, Interval(0, 1), 0.0, 1) == 1.0
    assert alpha(2, Interval(0, 1), 0.25, 0) == 0.25


def test_kronecker_identities_on_random_intervals():
    families = {
        "alpha": ([lambda iv, x, d, j=j: alpha(j, iv, x, d) for j in (1, 2)],
                  FAMILY_CONSTRAINTS["alpha"]),
        "beta_first": ([lambda iv, x, d, j=j: beta(j, iv, x, d) for j in (1, 2, 3)],
                       FAMILY_CONSTRAINTS["beta_first"]),
        "beta_last": ([lambda iv, x, d, j=j: beta(j, iv, x, d) for j in (4, 5, 6)],
                      FAMILY_CONSTRAINTS["beta_last"]),
        "gamma": ([lambda iv, x, d, j=j: gamma(j, iv, x, d) for j in (1, 2, 3, 4)],
                  FAMILY_CONSTRAINTS["gamma"]),
    }
    for iv in _random_intervals(100, seed=42):
        for name, (fns, constraints) in families.items():
            mat = _constraint_matrix(fns, constraints, iv)
            assert np.array_equal(mat, np.eye(len(fns))), f"{name} delta property failed on {iv}"


def test_alpha_lambda_closure_bug_guard():
    # the alpha list above builds both functions; make sure they differ
    iv = Interval(0, 1)
    assert alpha(1, iv, 0.25) == 0.75
    assert alpha(2, iv, 0.25) == 0.25


@pytest.mark.parametrize("family,indices", [("alpha", (1, 2)), ("beta", (1, 2, 3, 4, 5, 6)),
                                            ("gamma", (1, 2, 3, 4))])
def test_derivatives_match_finite_differences(family, indices):
    fn = {"alpha": alpha, "beta": beta, "gamma": gamma}[family]
    h = 1e-6
    for iv in _random_intervals(10, seed=9):
        xs = np.linspace(iv.x0 + 2 * h, iv.xf - 2 * h, 7)
        for j in indices:
            for x in xs:
                fd1 = (fn(j, iv, x + h) - fn(j, iv, x - h)) / (2 * h)
                d1 = fn(j, iv, x, 1)
                assert abs(fd1 - d1) / max(1.0, abs(d1)) < 1e-7
                fd2 = (fn(j, iv, x + h, 1) - fn(j, iv, x - h, 1)) / (2 * h)
                d2 = fn(j, iv, x, 2)
                assert abs(fd2 - d2) / max(1.0, abs(d2)) < 1e-7


def test_alpha_second_derivatives_identically_zero():
    for iv in _random_intervals(10, seed=4):
        xs = np.linspace(iv.x0, iv.xf, 11)
        assert np.all(alpha(1, iv, xs, 2) == 0.0)
        assert np.all(alpha(2, iv, xs, 2) == 0.0)


def _inversion_oracle(iv, support, constraints):
    """Switching functions derived by inverting the support-constraint system.

    support is a list of (value, d1, d2) callables of x; the returned
    callable evaluates switching function j at (x, d) from the inverse
    matrix, the way the constrained-expression derivation constructs
    them.
    """
    ends = (iv.x0, iv.xf)
    M = np.array([[support[i][d](ends[end]) for i in range(len(support))]
                  for d, end in constraints])
    Minv = np.linalg.inv(M)

    def eval_fn(j, x, d=0):
        p = np.array([support[i][d](x) for i in range(len(support))])
        return float(p @ Minv[:, j - 1])

    return eval_fn


def _poly_support(max_degree, shift):
    """Shifted monomials u^k, u = x - shift (same span, well conditioned).

    Switching functions depend only on the support span, so any basis of
    the polynomial space is a valid derivation oracle.
    """
    mono = [
        (lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x, lambda x: 0.0 * x),
        (lambda x: x - shift, lambda x: 1.0 + 0.0 * x, lambda x: 0.0 * x),
        (lambda x: (x - shift) ** 2, lambda x: 2.0 * (x - shift), lambda x: 2.0 + 0.0 * x),
        (lambda x: (x - shift) ** 3, lambda x: 3.0 * (x - shift) ** 2, lambda x: 6.0 * (x - shift)),
    ]
    return mono[: max_degree + 1]


@pytest.mark.parametrize("name,fn,indices,degree", [
    ("alpha", alpha, (1, 2), 1),
    ("beta_first", beta, (1, 2, 3), 2),
    ("beta_last", beta, (4, 5, 6), 2),
    ("gamma", gamma, (1, 2, 3, 4), 3),
])
def test_tables_match_inversion_derivation(name, fn, indices, degree):
    rng = np.random.default_rng(17)
    for iv in _random_intervals(8, seed=23):
        oracle = _inversion_oracle(iv, _poly_support(degree, iv.x0), FAMILY_CONSTRAINTS[name])
        xs = rng.uniform(iv.x0, iv.xf, 6)
        for slot, j in enumerate(indices, start=1):
            for x in xs:
                for d in (0, 1, 2):
                    table = fn(j, iv, x, d)
                    derived = oracle(slot, x, d)
                    assert abs(table - derived) <= 1e-12 * max(1.0, abs(table)), \
                        f"{name}[{j}] d={d} table={table} derived={derived}"


def test_invalid_indices_and_family():
    iv = Interval(0, 1)
    with pytest.raises(ValueError):
        alpha(3, iv, 0.5)
    with pytest.raises(ValueError):
        alpha(0, iv, 0.5)
    with pytest.raises(ValueError):
        beta(7, iv, 0.5)
    with pytest.raises(ValueError):
        beta(0, iv, 0.5)
    with pytest.raises(ValueError):
        gamma(0, iv, 0.5)
    with pytest.raises(ValueError):
        gamma(5, iv, 0.5)
    with pytest.raises(ValueError):
        beta(1, iv, 0.5, 3)
    with pytest.raises(ValueError):
        switching_functions(FAMILY_CONSTRAINTS["gamma"], iv, 0.5, (0, 3))


def test_vectorized_evaluation_matches_scalar():
    iv = Interval(1.0, 4.0)
    xs = np.linspace(1.0, 4.0, 9)
    for fn, indices in ((alpha, (1, 2)), (beta, (1, 2, 3, 4, 5, 6)), (gamma, (1, 2, 3, 4))):
        for j in indices:
            for d in (0, 1, 2):
                vec = fn(j, iv, xs, d)
                assert vec.shape == (9,)
                for i, x in enumerate(xs):
                    assert vec[i] == fn(j, iv, x, d)


@pytest.mark.parametrize("family,fn,indices", [("alpha", alpha, (1, 2)),
                                               ("beta", beta, (1, 2, 3, 4, 5, 6)),
                                               ("gamma", gamma, (1, 2, 3, 4))])
def test_derived_functions_match_the_closed_forms(family, fn, indices):
    rng = np.random.default_rng(5)
    for iv in _random_intervals(200, seed=31):
        xs = np.concatenate([[iv.x0, iv.xf], rng.uniform(iv.x0, iv.xf, 8)])
        for j in indices:
            for d in (0, 1, 2):
                derived = fn(j, iv, xs, d)
                closed = closed_form_switching(family, j, iv, xs, d)
                assert np.all(np.abs(derived - closed) <= 1e-14 * np.maximum(1.0, np.abs(closed))), \
                    f"{family}[{j}] d={d} on {iv}: {np.max(np.abs(derived - closed))}"


def test_out_of_interval_points_rejected():
    with pytest.raises(ValueError):
        beta(1, Interval(0, 1), 1.5)
    with pytest.raises(ValueError, match=r"x\[1\] = nan outside"):
        switching_functions([(0, 0), (0, 1)], Interval(0, 1), [0.5, np.nan])
