"""GP known optima that sit on the boundary of the feasible region.

Each optimum is pinned by a posynomial constraint, a variable bound or a
monomial equality rather than by the objective's interior stationary point.
"""

import pytest

from repro.posy import as_posynomial, var
from repro.sizing.gp import GeometricProgram


def _box(gp, *names, lo=0.01, hi=100.0):
    for name in names:
        gp.set_bounds(name, lo, hi)


class TestKnownOptima:
    def test_x_plus_inverse_x(self):
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        _box(gp, "x")
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)
        assert sol.objective == pytest.approx(2.0, rel=1e-4)

    def test_constrained_product(self):
        """min x+y s.t. xy >= 4 -> x = y = 2."""
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(4.0 / (var("x") * var("y")), 1.0, "prod")
        _box(gp, "x", "y")
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(2.0, rel=1e-2)
        assert sol.env["y"] == pytest.approx(2.0, rel=1e-2)
        assert sol.max_violation <= 1e-4

    def test_bound_constrained(self):
        gp = GeometricProgram(as_posynomial(var("x") + var("y")))
        gp.set_bounds("x", 1.5, 10.0)
        gp.set_bounds("y", 2.5, 10.0)
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(1.5, rel=1e-2)
        assert sol.env["y"] == pytest.approx(2.5, rel=1e-2)

    def test_equality_as_penalty(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_equality(var("x"), 4.0 * var("y"))
        gp.set_bounds("x", 0.1, 100.0)
        gp.set_bounds("y", 1.0, 100.0)
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(4.0 * sol.env["y"], rel=1e-2)
