"""Unit tests for the numerical Wirtinger-calculus checks."""

import numpy as np
import pytest

from ckaf.wirtinger import (
    analytic_squared_error_gradients,
    check_inner_product_gradients,
    check_steepest_ascent,
    check_taylor_first_order,
    numeric_wirtinger_gradient,
    squared_error_loss,
    standard_battery,
)


def random_vector(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestNumericGradient:
    def test_identity_function(self):
        """T(z) = z has R-derivative 1 and conjugate R-derivative 0."""
        g = numeric_wirtinger_gradient(lambda z: z[0], [0.3 - 0.7j])
        assert g.r_derivative[0] == pytest.approx(1.0, abs=1e-9)
        assert g.conj_r_derivative[0] == pytest.approx(0.0, abs=1e-9)

    def test_mixed_cubic_at_one_plus_i(self):
        """T(z) = z conj(z)^2 at 1+i has gradients (-2i, 4)."""
        g = numeric_wirtinger_gradient(lambda z: z[0] * np.conj(z[0]) ** 2, [1 + 1j])
        assert g.r_derivative[0] == pytest.approx(-2j, abs=1e-8)
        assert g.conj_r_derivative[0] == pytest.approx(4.0, abs=1e-8)

    def test_modulus_squared_product_rule(self):
        """T(z) = z conj(z) has gradients (conj(z), z) at any z."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            z = random_vector(rng, 3)
            g = numeric_wirtinger_gradient(lambda v: np.sum(v * np.conj(v)), z)
            np.testing.assert_allclose(g.r_derivative, np.conj(z), atol=1e-8)
            np.testing.assert_allclose(g.conj_r_derivative, z, atol=1e-8)

    def test_non_finite_evaluation_raises(self):
        """An evaluator emitting NaN at a probe point is a numeric error."""
        with pytest.raises(ArithmeticError, match="non-finite"):
            numeric_wirtinger_gradient(lambda z: complex(np.nan), [0j])

    @pytest.mark.parametrize("value", ["1+2j", b"1", None, [1.0, 2.0]], ids=["str", "bytes", "None", "list"])
    def test_non_numeric_evaluation_raises_type_error(self, value):
        """An evaluator value that is not one number is refused, not parsed or read as NaN."""
        with pytest.raises(TypeError, match="^evaluator value must be"):
            numeric_wirtinger_gradient(lambda z: value, [0.5])

    def test_empty_input_rejected(self):
        """Zero-length probe points are refused."""
        with pytest.raises(ValueError):
            numeric_wirtinger_gradient(lambda z: 0j, [])


class TestBatteryCharacter:
    def test_holomorphic_has_zero_conjugate_derivative(self):
        """Polynomials in z alone have vanishing conjugate R-derivative."""
        rng = np.random.default_rng(22)
        holo = [
            lambda z: np.sum(z),
            lambda z: np.sum(z**2),
            lambda z: np.sum(z**3 - 2.0 * z),
        ]
        for func in holo:
            z = random_vector(rng, 4)
            g = numeric_wirtinger_gradient(func, z)
            assert np.max(np.abs(g.conj_r_derivative)) <= 1e-6

    def test_antiholomorphic_has_zero_r_derivative(self):
        """Polynomials in conj(z) alone have vanishing R-derivative."""
        rng = np.random.default_rng(23)
        anti = [lambda z: np.sum(np.conj(z)), lambda z: np.sum(np.conj(z) ** 2)]
        for func in anti:
            z = random_vector(rng, 4)
            g = numeric_wirtinger_gradient(func, z)
            assert np.max(np.abs(g.r_derivative)) <= 1e-6

    def test_real_functionals_have_conjugate_gradient_pair(self):
        """For real-valued T the two gradients are complex conjugates."""
        rng = np.random.default_rng(24)
        for entry in standard_battery(4, rng=0):
            if entry.kind != "real":
                continue
            z = random_vector(rng, 4)
            g = numeric_wirtinger_gradient(entry.func, z)
            np.testing.assert_allclose(
                g.conj_r_derivative,
                np.conj(g.r_derivative),
                atol=1e-6,
                err_msg=f"battery entry {entry.name}",
            )

    def test_battery_covers_documented_kinds(self):
        """The standard battery ships all four analytic characters."""
        kinds = {entry.kind for entry in standard_battery(3)}
        assert kinds == {"holomorphic", "antiholomorphic", "real", "mixed"}


class TestInnerProductGradients:
    def test_zero_weight_vector(self):
        """With w = 0 every gradient vanishes."""
        dev = check_inner_product_gradients(np.zeros(3, complex), [1j, -1.0, 0.5 + 0.5j])
        assert dev <= 1e-9

    def test_scalar_unit_weight(self):
        """nu = 1, w = 1: T(f) = <f, w> has gradients (1, 0)."""
        g = numeric_wirtinger_gradient(lambda f: np.sum(f * np.conj([1.0 + 0j])), [0.2 + 0.1j])
        assert g.r_derivative[0] == pytest.approx(1.0, abs=1e-8)
        assert g.conj_r_derivative[0] == pytest.approx(0.0, abs=1e-8)

    def test_random_instances_meet_tolerance(self):
        """Random w and probe in C^5 deviate by at most 1e-6."""
        rng = np.random.default_rng(25)
        for trial in range(25):
            w = random_vector(rng, 5)
            probe = random_vector(rng, 5)
            dev = check_inner_product_gradients(w, probe)
            assert dev <= 1e-6, f"trial {trial}: deviation {dev:.3e}"


class TestTaylorFirstOrder:
    def test_linear_functional_is_exact(self):
        """Functions linear in (z, conj z) leave no first-order residual."""
        rng = np.random.default_rng(26)
        z, h = random_vector(rng, 3), 1e-2 * random_vector(rng, 3)
        res = check_taylor_first_order(
            lambda v: np.sum(2.0 * v) + np.sum((1 - 1j) * np.conj(v)), z, h
        )
        assert res <= 1e-9

    def test_quadratic_residual_scaling(self):
        """Shrinking h tenfold shrinks the residual about a hundredfold."""
        rng = np.random.default_rng(27)
        func = lambda v: np.sum(v * np.conj(v) ** 2)
        z = random_vector(rng, 2)
        direction = random_vector(rng, 2)
        direction /= np.linalg.norm(direction)
        res_coarse = check_taylor_first_order(func, z, 1e-3 * direction)
        res_fine = check_taylor_first_order(func, z, 1e-4 * direction)
        ratio = res_coarse / res_fine
        assert 50.0 < ratio < 200.0, f"expected quadratic scaling, ratio {ratio:.1f}"

    def test_real_functional_increment_is_real_inner_product(self):
        """For real T the predicted increment equals 2 Re <h, conj-gradient>."""
        rng = np.random.default_rng(28)
        func = lambda v: complex(np.vdot(v, v).real ** 2)  # ||z||^4
        z = random_vector(rng, 3)
        h = 1e-5 * random_vector(rng, 3)
        g = numeric_wirtinger_gradient(func, z)
        two_term = np.sum(h * g.r_derivative) + np.sum(np.conj(h) * g.conj_r_derivative)
        real_form = 2.0 * np.real(np.sum(h * np.conj(g.conj_r_derivative)))
        assert two_term.imag == pytest.approx(0.0, abs=1e-12)
        assert two_term.real == pytest.approx(real_form, rel=1e-9)
        assert check_taylor_first_order(func, z, h) <= 1e-8

    def test_battery_residuals_small(self):
        """Every battery functional passes the expansion check at small h."""
        rng = np.random.default_rng(29)
        for entry in standard_battery(3, rng=1):
            z = random_vector(rng, 3, scale=0.7)
            h = 1e-6 * random_vector(rng, 3)
            res = check_taylor_first_order(entry.func, z, h)
            assert res <= 1e-6, f"{entry.name}: residual {res:.3e}"


class TestSteepestAscent:
    def test_radial_function(self):
        """For |z|^2 at z = 1 the gradient direction wins."""
        assert check_steepest_ascent(
            lambda v: complex(np.vdot(v, v).real), [1.0 + 0j], n_directions=100, rng=2
        )

    def test_real_part_gradient(self):
        """T = Re z has conjugate gradient 1/2; the +1 direction wins."""
        g = numeric_wirtinger_gradient(lambda v: complex(np.sum(v.real)), [0.3 + 0.4j])
        assert g.conj_r_derivative[0] == pytest.approx(0.5, abs=1e-9)
        assert check_steepest_ascent(
            lambda v: complex(np.sum(v.real)), [0.3 + 0.4j], n_directions=100, rng=3
        )

    def test_squared_error_loss_direction(self):
        """The loss's conjugate gradient beats 200 random directions."""
        rng = np.random.default_rng(30)
        phi = random_vector(rng, 4)
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = random_vector(rng, 4)
        assert check_steepest_ascent(squared_error_loss(phi, d), w, n_directions=200, rng=4)

    def test_zero_gradient_rejected(self):
        """A vanishing conjugate gradient has no ascent direction."""
        with pytest.raises(ValueError, match="gradient"):
            check_steepest_ascent(lambda v: complex(np.vdot(v, v).real), [0j], rng=5)


class TestSquaredErrorLossGradient:
    def test_analytic_closed_form(self):
        """analytic_squared_error_gradients returns -e conj(phi) and -conj(e) phi."""
        phi = np.array([1 + 1j, -2j])
        w = np.array([0.5, 0.25j])
        d = 3 - 1j
        e, grad_r, grad_conj = analytic_squared_error_gradients(phi, d, w)
        expected_e = d - np.sum(phi * np.conj(w))
        assert e == pytest.approx(expected_e, rel=1e-15)
        np.testing.assert_allclose(grad_r, -e * np.conj(phi), rtol=1e-15)
        np.testing.assert_allclose(grad_conj, -np.conj(e) * phi, rtol=1e-15)

    def test_numeric_matches_analytic_over_random_instances(self):
        """Numeric conjugate gradients match -conj(e) phi to 1e-6 relative."""
        rng = np.random.default_rng(31)
        for trial in range(100):
            m = int(rng.integers(1, 9))
            phi = random_vector(rng, m)
            w = random_vector(rng, m)
            d = complex(rng.standard_normal() + 1j * rng.standard_normal())
            loss = squared_error_loss(phi, d)
            numeric = numeric_wirtinger_gradient(loss, w)
            _, grad_r, grad_conj = analytic_squared_error_gradients(phi, d, w)
            rel = np.linalg.norm(numeric.conj_r_derivative - grad_conj) / np.linalg.norm(
                grad_conj
            )
            assert rel <= 1e-6, f"trial {trial}: relative error {rel:.3e}"
            rel_r = np.linalg.norm(numeric.r_derivative - grad_r) / np.linalg.norm(grad_r)
            assert rel_r <= 1e-6, f"trial {trial}: R-derivative error {rel_r:.3e}"
