"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.chain import Chain
from repro.ir.features import Property, Structure
from repro.ir.matrix import Matrix
from repro.ir.operand import Operand, UnaryOp
from repro.kernels.spec import KERNEL_FAMILY
from repro.runtime.executor import StepCall
from repro.experiments.sampling import (
    MATRIX_OPTIONS,
    sample_instances,
    sample_shapes,
    shape_from_options,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def restore_global_codegen_cache():
    """Undo ``configure_codegen_cache`` calls made through the CLI knobs."""
    from repro.runtime import codegen_cache as cc_mod

    with cc_mod._cache_lock:
        saved = cc_mod._cache
    yield
    with cc_mod._cache_lock:
        cc_mod._cache = saved


def make_general(name: str = "G", invertible: bool = False) -> Matrix:
    prop = Property.NON_SINGULAR if invertible else Property.SINGULAR
    return Matrix(name, Structure.GENERAL, prop)


def make_lower(name: str = "L", invertible: bool = True) -> Matrix:
    prop = Property.NON_SINGULAR if invertible else Property.SINGULAR
    return Matrix(name, Structure.LOWER_TRIANGULAR, prop)


def make_upper(name: str = "U", invertible: bool = True) -> Matrix:
    prop = Property.NON_SINGULAR if invertible else Property.SINGULAR
    return Matrix(name, Structure.UPPER_TRIANGULAR, prop)


def make_symmetric(name: str = "S", spd: bool = False) -> Matrix:
    prop = Property.SPD if spd else Property.NON_SINGULAR
    return Matrix(name, Structure.SYMMETRIC, prop)


def make_orthogonal(name: str = "Q") -> Matrix:
    return Matrix(name, Structure.GENERAL, Property.ORTHOGONAL)


def make_call(kernel, side="left", lt=False, rt=False, ll=None, rl=None) -> StepCall:
    """The record of a ``kernel`` call whose structured operand (the
    coefficient, for solves) stands on ``side``; ``lt``/``rt`` and
    ``ll``/``rl`` are the left/right transpose and stored-lower flags."""
    s_left = side == "left"
    return StepCall(
        kernel,
        KERNEL_FAMILY[kernel],
        s_left,
        s_trans=lt if s_left else rt,
        s_lower=ll if s_left else rl,
        o_trans=rt if s_left else lt,
    )


def general_chain(n: int) -> Chain:
    """A standard matrix chain of ``n`` general matrices."""
    return Chain(
        tuple(Matrix(f"G{i + 1}").as_operand() for i in range(n))
    )


def random_option_chain(
    n: int, rng: np.random.Generator, allow_transpose: bool = False
) -> Chain:
    """Random chain from the experiment option space (optionally with ^T)."""
    chains = sample_shapes(n, 1, rng, rectangular_probability=0.4)
    chain = chains[0]
    if not allow_transpose:
        return chain
    operands = []
    for operand in chain:
        if (
            operand.op is UnaryOp.NONE
            and rng.random() < 0.3
        ):
            operands.append(Operand(operand.matrix, UnaryOp.TRANSPOSE))
        else:
            operands.append(operand)
    return Chain(tuple(operands))


def small_sizes_for(chain: Chain, rng: np.random.Generator, low=3, high=12):
    """One random small valid instance of a chain (fast numeric tests)."""
    return tuple(int(x) for x in sample_instances(chain, 1, rng, low, high)[0])


def count_admits(service, monkeypatch) -> list:
    """Record every record a ``CompileService`` puts on its worker queue."""
    admitted: list = []
    original = service._admit

    def counting(record):
        admitted.append(record)
        return original(record)

    monkeypatch.setattr(service, "_admit", counting)
    return admitted


def queued_path(service, monkeypatch) -> None:
    """Send every later compile of a ``CompileService`` through its queue
    and a worker: the path a compile took before registered compilations
    were answered on the caller's thread."""
    monkeypatch.setattr(service, "_answer_registered", lambda *args: False)
