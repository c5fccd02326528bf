"""The code generator core: the paper's primary contribution.

Modules:

* :mod:`repro.compiler.parenthesization` — expression trees, Catalan
  enumeration, fanning-out trees, leftmost-first linearization (§III-B).
* :mod:`repro.compiler.states` — symbolic operand states and the
  four-step association procedure (§IV).
* :mod:`repro.compiler.variant` — variants (sequences of kernel calls) and
  their FLOP cost functions (§III-C, §IV).
* :mod:`repro.compiler.selection` — fanning-out variants, equivalence
  classes, the essential set of Theorem 2, and penalties (§V).
* :mod:`repro.compiler.expansion` — the greedy ExpandSet procedure
  (Algorithm 1, §VI).
* :mod:`repro.compiler.dp` — the generalized matrix chain dynamic program
  for concrete sizes (the Linnea-style optimal search used as baseline,
  and the seed generator of the DP-seeded variant space).
* :mod:`repro.compiler.variant_space` — pluggable candidate generation:
  exhaustive Catalan enumeration for small chains, lazy DP-seeded pools
  that scale compilation to long chains (§III-B beyond n ≈ 12).
* :mod:`repro.compiler.pipeline` — the staged pass pipeline (parse,
  simplify, sample, enumerate, cost-matrix, select, expand, dispatch).
* :mod:`repro.compiler.cache` — the content-addressed compilation cache
  (in-memory LRU + optional disk layer).
* :mod:`repro.compiler.session` — the :class:`CompilerSession` facade with
  cached single and batch (``compile_many``) compilation.

The run-time half (the memoizing dispatcher, compiled execution plans,
and the variant executor) lives in :mod:`repro.runtime`.
"""

from repro.compiler.parenthesization import (
    ParenTree,
    enumerate_trees,
    iter_trees,
    left_to_right_tree,
    right_to_left_tree,
    fanning_out_tree,
    linearize,
    rotations,
)
from repro.compiler.variant import Variant, build_variant
from repro.compiler.selection import (
    all_variants,
    fanning_out_variants,
    essential_set,
    left_to_right_variant,
    optimal_cost,
    penalty,
)
from repro.compiler.expansion import expand_set, AveragePenalty, MaxPenalty
from repro.runtime import Dispatcher, execute_variant, random_instance_arrays
from repro.compiler.dp import (
    dp_optimal_cost,
    dp_optimal_plan,
    dp_optimal_tree,
    dp_plan_variants,
    dp_seed_trees,
)
from repro.compiler.variant_space import (
    AUTO_EXHAUSTIVE_MAX_N,
    DPSeededSpace,
    ExhaustiveSpace,
    VariantSpace,
    make_space,
    resolve_space,
)
from repro.compiler.memory import MemoryPlan, peak_workspace_bytes, plan_memory
from repro.compiler.validation import (
    VariantVerificationError,
    verify_or_report,
    verify_variant,
)
from repro.compiler.program import (
    ARTIFACT_VERSION,
    ArtifactError,
    CompiledProgram,
)
from repro.compiler.pipeline import (
    CompileOptions,
    CompilerPass,
    PassContext,
    Pipeline,
    default_pipeline,
)
from repro.compiler.cache import CacheStats, CompilationCache
from repro.compiler.session import (
    CompilerSession,
    get_default_session,
    set_default_session,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "CompiledProgram",
    "CompileOptions",
    "CompilerPass",
    "PassContext",
    "Pipeline",
    "default_pipeline",
    "CacheStats",
    "CompilationCache",
    "CompilerSession",
    "get_default_session",
    "set_default_session",
    "ParenTree",
    "enumerate_trees",
    "iter_trees",
    "left_to_right_tree",
    "right_to_left_tree",
    "fanning_out_tree",
    "linearize",
    "rotations",
    "Variant",
    "build_variant",
    "all_variants",
    "fanning_out_variants",
    "essential_set",
    "left_to_right_variant",
    "optimal_cost",
    "penalty",
    "expand_set",
    "AveragePenalty",
    "MaxPenalty",
    "Dispatcher",
    "execute_variant",
    "random_instance_arrays",
    "dp_optimal_cost",
    "dp_optimal_plan",
    "dp_optimal_tree",
    "dp_plan_variants",
    "dp_seed_trees",
    "AUTO_EXHAUSTIVE_MAX_N",
    "DPSeededSpace",
    "ExhaustiveSpace",
    "VariantSpace",
    "make_space",
    "resolve_space",
    "MemoryPlan",
    "peak_workspace_bytes",
    "plan_memory",
    "VariantVerificationError",
    "verify_or_report",
    "verify_variant",
]
