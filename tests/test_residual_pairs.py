"""Residual pairs found from the stored depths of each order: an entry added
after a check is paired by the next direct ``residual_at`` and the next check."""

from nahmpole.geometry import load_background
from nahmpole.series import check_residuals, expand, residual_at

from conftest import rand_one_form
from test_residual_sums import plain_residual


def test_an_entry_added_after_a_check_is_paired(field, rng):
    s = expand(load_background("builtin:berger-s3?squash=2", field), N=6)
    assert check_residuals(s) == []
    assert (2, 3) not in s.addresses() and (2, 0) in s.addresses()
    s._a[(2, 3)] = rand_one_form(rng, field)  # pairs with (2, 0) at (5, 3)
    cells = [(K, p) for K in range(1, 8) for p in range(5)]
    assert all(residual_at(s, K, p) == plain_residual(s, K, p) for K, p in cells)
    assert any(not R.is_zero() for R in residual_at(s, 5, 3))
    want = [(K, p, name) for K in range(1, 8) for p in range(4, -1, -1)
            for R, name in zip(residual_at(s, K, p), ("a", "b", "phi_y"))
            if (name != "b" or K <= 6) and not R.is_zero()]
    assert (5, 3, "b") in want and check_residuals(s) == want
