"""Configuration-level tests for the reference kernel lowering.

``repro.kernels.reference.specialize_kernel`` is what every reference
execution plan replays: given a resolved call record
(:class:`~repro.runtime.executor.StepCall`: kernel family, structured
side, transposition flags, stored triangularity), it returns a callable
over the *stored* left/right arrays.  These tests sweep the configuration
space per kernel family and check each call against dense NumPy
evaluation of the logical operation.
"""

import numpy as np
import pytest

from repro.kernels.reference import specialize_kernel

from conftest import make_call

RNG = np.random.default_rng(42)


def _sym(n):
    a = RNG.standard_normal((n, n))
    return (a + a.T) / 2 + np.eye(n) * n


def _spd(n):
    a = RNG.standard_normal((n, n))
    return a @ a.T / np.sqrt(n) + np.eye(n)


def _low(n):
    t = np.tril(RNG.standard_normal((n, n)))
    t[np.diag_indices(n)] = np.abs(np.diag(t)) + 1
    return t


def _gen(m, n):
    return RNG.standard_normal((m, n))


def _gen_inv(n):
    return RNG.standard_normal((n, n)) + np.eye(n) * np.sqrt(n)


def _diag(n):
    return np.diag(np.abs(RNG.standard_normal(n)) + 1.0)


def _op(a, trans):
    return a.T if trans else a


class TestProductImpls:
    @pytest.mark.parametrize("kernel", ["GEMM", "SYMM", "TRMM", "SYSYMM",
                                        "TRSYMM", "TRTRMM", "DIMM", "DIDIMM"])
    @pytest.mark.parametrize("lt", [False, True])
    @pytest.mark.parametrize("rt", [False, True])
    def test_product_with_transpositions(self, kernel, lt, rt):
        # All product implementations reduce to op(A) @ op(B) on the full
        # dense storage, whatever the declared structures.
        a = _gen(4, 4)
        b = _gen(4, 4)
        got = specialize_kernel(make_call(kernel, lt=lt, rt=rt))(a, b)
        np.testing.assert_allclose(got, _op(a, lt) @ _op(b, rt))

    def test_rectangular_product(self):
        a, b = _gen(3, 5), _gen(5, 7)
        np.testing.assert_allclose(
            specialize_kernel(make_call("GEMM"))(a, b), a @ b
        )


class TestGeneralSolveImpls:
    @pytest.mark.parametrize("kernel", ["GEGESV", "GESYSV", "GETRSV"])
    def test_coefficient_left(self, kernel):
        coeff, rhs = _gen_inv(5), _gen(5, 3)
        got = specialize_kernel(make_call(kernel, side="left"))(coeff, rhs)
        np.testing.assert_allclose(coeff @ got, rhs, atol=1e-9)

    @pytest.mark.parametrize("kernel", ["GEGESV"])
    def test_coefficient_right(self, kernel):
        rhs, coeff = _gen(3, 5), _gen_inv(5)
        got = specialize_kernel(make_call(kernel, side="right"))(rhs, coeff)
        np.testing.assert_allclose(got @ coeff, rhs, atol=1e-9)

    def test_transposed_coefficient_left(self):
        coeff, rhs = _gen_inv(5), _gen(5, 3)
        got = specialize_kernel(make_call("GEGESV", side="left", lt=True))(coeff, rhs)
        np.testing.assert_allclose(coeff.T @ got, rhs, atol=1e-9)

    def test_transposed_coefficient_right(self):
        rhs, coeff = _gen(3, 5), _gen_inv(5)
        got = specialize_kernel(make_call("GEGESV", side="right", rt=True))(rhs, coeff)
        np.testing.assert_allclose(got @ coeff.T, rhs, atol=1e-9)


class TestStructuredSolveImpls:
    def test_symmetric_left_and_right(self):
        s = _sym(5)
        rhs = _gen(5, 4)
        got = specialize_kernel(make_call("SYGESV", side="left"))(s, rhs)
        np.testing.assert_allclose(s @ got, rhs, atol=1e-8)
        rhs_r = _gen(4, 5)
        got = specialize_kernel(make_call("SYGESV", side="right"))(rhs_r, s)
        np.testing.assert_allclose(got @ s, rhs_r, atol=1e-8)

    def test_spd_left_and_right(self):
        p = _spd(5)
        rhs = _gen(5, 4)
        got = specialize_kernel(make_call("POGESV", side="left"))(p, rhs)
        np.testing.assert_allclose(p @ got, rhs, atol=1e-8)
        rhs_r = _gen(4, 5)
        got = specialize_kernel(make_call("POGESV", side="right"))(rhs_r, p)
        np.testing.assert_allclose(got @ p, rhs_r, atol=1e-8)

    @pytest.mark.parametrize("stored_lower", [True, False])
    def test_triangular_sides_and_storage(self, stored_lower):
        low = _low(5)
        stored = low if stored_lower else low.T.copy()
        rhs = _gen(5, 4)
        got = specialize_kernel(make_call("TRSM", side="left", ll=stored_lower))(stored, rhs)
        np.testing.assert_allclose(stored @ got, rhs, atol=1e-9)
        rhs_r = _gen(4, 5)
        got = specialize_kernel(make_call("TRSM", side="right", rl=stored_lower))(rhs_r, stored)
        np.testing.assert_allclose(got @ stored, rhs_r, atol=1e-9)

    def test_triangular_transposed_coefficient(self):
        # Stored lower, consumed transposed: solve with the upper L^T.
        low = _low(5)
        rhs = _gen(5, 4)
        got = specialize_kernel(make_call("TRSM", side="left", lt=True, ll=True))(low, rhs)
        np.testing.assert_allclose(low.T @ got, rhs, atol=1e-9)

    def test_diagonal_solves(self):
        d = _diag(5)
        rhs = _gen(5, 4)
        got = specialize_kernel(make_call("DIGESV", side="left"))(d, rhs)
        np.testing.assert_allclose(d @ got, rhs, atol=1e-12)
        rhs_r = _gen(4, 5)
        got = specialize_kernel(make_call("DIGESV", side="right"))(rhs_r, d)
        np.testing.assert_allclose(got @ d, rhs_r, atol=1e-12)

    def test_transposed_rhs_is_materialized(self):
        # RHS stored transposed (the executor's cfg carries the flag even
        # though compiled variants never produce this for solves).
        coeff = _gen_inv(5)
        rhs_stored = _gen(3, 5)  # logical RHS is its transpose: 5 x 3
        got = specialize_kernel(make_call("GEGESV", side="left", rt=True))(coeff, rhs_stored)
        np.testing.assert_allclose(coeff @ got, rhs_stored.T, atol=1e-9)


class TestCoverage:
    def test_every_binary_kernel_covered_by_impl_and_cfg_tests(self):
        from repro.kernels.spec import DIAGONAL_KERNELS, PRODUCT_KERNELS, SOLVE_KERNELS

        for kernel in (*PRODUCT_KERNELS, *SOLVE_KERNELS, *DIAGONAL_KERNELS):
            assert callable(specialize_kernel(make_call(kernel.name)))
