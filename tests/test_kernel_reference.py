"""Numeric correctness of the kernel reference implementations."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.kernels import reference as ref

RNG = np.random.default_rng(7)


def _sym(n):
    a = RNG.standard_normal((n, n))
    return (a + a.T) / 2 + np.eye(n) * n


def _spd(n):
    a = RNG.standard_normal((n, n))
    return a @ a.T / np.sqrt(n) + np.eye(n)


def _lower(n):
    t = np.tril(RNG.standard_normal((n, n)))
    t[np.diag_indices(n)] = np.abs(np.diag(t)) + 1
    return t


def _upper(n):
    return _lower(n).T.copy()


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


class TestProducts:
    def test_gemm_plain(self):
        a, b = RNG.standard_normal((4, 6)), RNG.standard_normal((6, 3))
        assert_close(ref.gemm(a, b), a @ b)

    def test_gemm_transposes(self):
        a, b = RNG.standard_normal((6, 4)), RNG.standard_normal((3, 6))
        assert_close(ref.gemm(a, b, trans_a=True, trans_b=True), a.T @ b.T)

    def test_gemm_alpha(self):
        a, b = RNG.standard_normal((4, 6)), RNG.standard_normal((6, 3))
        assert_close(ref.gemm(a, b, alpha=2.5), 2.5 * (a @ b))

    def test_gemm_dim_mismatch(self):
        with pytest.raises(ExecutionError):
            ref.gemm(RNG.standard_normal((3, 4)), RNG.standard_normal((5, 3)))

    def test_symm_sides(self):
        s, g = _sym(5), RNG.standard_normal((5, 3))
        assert_close(ref.symm(s, g, side="left"), s @ g)
        g2 = RNG.standard_normal((3, 5))
        assert_close(ref.symm(s, g2, side="right"), g2 @ s)

    def test_trmm_sides_and_transpose(self):
        t, g = _lower(5), RNG.standard_normal((5, 3))
        assert_close(ref.trmm(t, g, side="left"), t @ g)
        assert_close(ref.trmm(t, g, side="left", trans_t=True), t.T @ g)
        g2 = RNG.standard_normal((3, 5))
        assert_close(ref.trmm(t, g2, side="right"), g2 @ t)

    def test_structured_products(self):
        s1, s2 = _sym(4), _sym(4)
        assert_close(ref.sysymm(s1, s2), s1 @ s2)
        t = _lower(4)
        assert_close(ref.trsymm(t, s1, side="left"), t @ s1)
        assert_close(ref.trsymm(t, s1, side="right"), s1 @ t)
        u = _upper(4)
        assert_close(ref.trtrmm(t, u), t @ u)
        assert_close(ref.trtrmm(t, u, trans_a=True), t.T @ u)


class TestSolves:
    def test_gegesv_left_right(self):
        a, b = RNG.standard_normal((5, 5)) + 5 * np.eye(5), RNG.standard_normal((5, 3))
        assert_close(a @ ref.gegesv(a, b, side="left"), b)
        b2 = RNG.standard_normal((3, 5))
        assert_close(ref.gegesv(a, b2, side="right") @ a, b2)

    def test_gegesv_transposed_coefficient(self):
        a, b = RNG.standard_normal((5, 5)) + 5 * np.eye(5), RNG.standard_normal((5, 3))
        assert_close(a.T @ ref.gegesv(a, b, side="left", trans_coeff=True), b)

    def test_symmetric_family(self):
        s = _sym(5)
        b = RNG.standard_normal((5, 4))
        assert_close(s @ ref.sygesv(s, b, side="left"), b)
        b2 = _sym(5)
        assert_close(s @ ref.sysysv(s, b2, side="left"), b2)
        t = _lower(5)
        assert_close(ref.sytrsv(s, t, side="right") @ s, t)

    def test_spd_family(self):
        p = _spd(5)
        b = RNG.standard_normal((5, 4))
        assert_close(p @ ref.pogesv(p, b, side="left"), b)
        assert_close(ref.pogesv(p, b.T, side="right") @ p, b.T)
        s = _sym(5)
        assert_close(p @ ref.posysv(p, s, side="left"), s)
        t = _upper(5)
        assert_close(p @ ref.potrsv(p, t, side="left"), t)

    def test_triangular_family(self):
        low = _lower(5)
        b = RNG.standard_normal((5, 4))
        assert_close(low @ ref.trsm(low, b, side="left", lower=True), b)
        b2 = RNG.standard_normal((4, 5))
        assert_close(ref.trsm(low, b2, side="right", lower=True) @ low, b2)
        up = _upper(5)
        assert_close(up @ ref.trsm(up, b, side="left", lower=False), b)
        # Transposed coefficient: solving with L^T (upper-triangular data).
        assert_close(
            low.T @ ref.trsm(low, b, side="left", trans_coeff=True, lower=True), b
        )
        s = _sym(5)
        assert_close(low @ ref.trsysv(low, s, side="left"), s)
        assert_close(low @ ref.trtrsv(low, up, side="left", lower=True), up)

    def test_singular_coefficient_raises(self):
        singular = np.zeros((4, 4))
        with pytest.raises(ExecutionError):
            ref.gegesv(singular, np.eye(4), side="left")


class TestUnary:
    def test_geinv(self):
        a = RNG.standard_normal((5, 5)) + 5 * np.eye(5)
        assert_close(ref.geinv(a) @ a, np.eye(5))

    def test_poinv(self):
        p = _spd(5)
        assert_close(ref.poinv(p) @ p, np.eye(5))

    def test_trinv(self):
        low = _lower(5)
        inv = ref.trinv(low, lower=True)
        assert_close(inv @ low, np.eye(5))
        # Inverse of lower-triangular stays lower-triangular.
        assert np.allclose(np.triu(inv, 1), 0.0)

    def test_transpose_and_copy(self):
        a = RNG.standard_normal((3, 5))
        assert_close(ref.explicit_transpose(a), a.T)
        c = ref.copy(a)
        assert_close(c, a)
        c[0, 0] = 123.0
        assert a[0, 0] != 123.0

    def test_geinv_singular_raises(self):
        with pytest.raises(ExecutionError):
            ref.geinv(np.zeros((3, 3)))


class TestKernelImplRegistry:
    def test_every_binary_kernel_has_impl(self):
        from repro.kernels.spec import KERNEL_FAMILY, PRODUCT_KERNELS, SOLVE_KERNELS

        for kernel in (*PRODUCT_KERNELS, *SOLVE_KERNELS):
            families = ref.PRODUCT_FAMILIES | ref.SOLVER_BY_FAMILY.keys()
            assert KERNEL_FAMILY[kernel.name] in families

    def test_one_family_per_binary_kernel_and_a_lowering_per_family(self):
        from repro.kernels.spec import (
            DIAGONAL_KERNELS,
            KERNEL_FAMILY,
            PRODUCT_KERNELS,
            SOLVE_KERNELS,
        )
        from repro.runtime import REFERENCE_ROUTINE, ReferenceBackend, StepCall

        binary = [k.name for k in (*PRODUCT_KERNELS, *SOLVE_KERNELS, *DIAGONAL_KERNELS)]
        assert len(binary) == len(set(binary))
        # Exactly the binary kernels, each mapped to one family.
        assert sorted(KERNEL_FAMILY) == sorted(binary)
        # 2I is diagonal, triangular, symmetric and SPD at once, so it is a
        # valid structured operand (or coefficient) of every family.
        two = 2.0 * np.eye(4)
        other = RNG.standard_normal((4, 4))
        for family in sorted(set(KERNEL_FAMILY.values())):
            kernel = min(k for k, f in KERNEL_FAMILY.items() if f == family)
            lowered = ReferenceBackend().specialize(
                StepCall(kernel, family, True, s_lower=True)
            )
            assert lowered.routine == REFERENCE_ROUTINE
            expected = (
                other / 2.0 if family in ref.SOLVER_BY_FAMILY else 2.0 * other
            )
            assert_close(lowered.impl(two, other), expected)
