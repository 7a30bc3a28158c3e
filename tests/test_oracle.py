import math

import pytest

from pavcal import (
    Brier,
    CostAt,
    Label,
    Logarithmic,
    grid_minimizer,
    maxmin_oracle,
    objective,
    pav_posteriors,
)

T = Label.TARGET
N = Label.NONTARGET


def test_known_closed_form_values():
    # Frozen from an exact-rational evaluation of the max-min formula.
    assert maxmin_oracle([T, N], (1.0, 1.0)) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert maxmin_oracle([N, T], (1.0, 1.0)) == [0.0, 1.0]
    assert maxmin_oracle([T, T, N, T], (1.0, 1.0)) == pytest.approx(
        [2 / 3, 2 / 3, 2 / 3, 1.0], abs=1e-15
    )
    assert maxmin_oracle([N, N, T, T], (1.0, 1.0)) == [0.0, 0.0, 1.0, 1.0]


def test_oracle_rejects_empty():
    with pytest.raises(ValueError):
        maxmin_oracle([], (1.0, 1.0))


def test_oracle_rejects_string_labels():
    # A string is not Label.TARGET, but it is not a non-target either.
    with pytest.raises(TypeError, match="'target'"):
        maxmin_oracle(["target", "nontarget", "target"], (1.0, 1.0))


def test_grid_minimizer_finds_known_optima():
    assert grid_minimizer(Brier(), [T, N], (1.0, 1.0), 21) == [0.5, 0.5]
    assert grid_minimizer(Logarithmic(), [T], (1.0, 1.0), 11) == [1.0]


def test_grid_minimizer_refuses_large_problems():
    with pytest.raises(ValueError):
        grid_minimizer(Brier(), [T] * 9, (1.0, 1.0), 11)
    with pytest.raises(ValueError):
        grid_minimizer(Brier(), [T, N], (1.0, 1.0), 22)
    with pytest.raises(ValueError):
        grid_minimizer(Brier(), [T, N], (1.0, 1.0), 1)
    with pytest.raises(ValueError):
        grid_minimizer(Brier(), [], (1.0, 1.0), 11)


def test_grid_answer_never_beats_the_fit():
    # The grid search runs over a finite subset of the feasible monotone
    # assignments, so its minimum can only sit at or above the true one.
    labels = [N, T, N]
    wpair = (1.0, 1.0)
    rule = CostAt(0.37)
    fit_obj = objective(rule, labels, wpair, pav_posteriors(labels, wpair))
    grid_obj = objective(rule, labels, wpair, grid_minimizer(rule, labels, wpair, 21))
    assert grid_obj >= fit_obj - 1e-12


def test_grid_sequences_are_nondecreasing():
    sol = grid_minimizer(Logarithmic(), [N, T, N, T, N], (0.3, 4.0), 13)
    assert all(a <= b for a, b in zip(sol, sol[1:]))
    assert all(0.0 <= x <= 1.0 for x in sol)
