"""Code emission: the generated-code artifacts of Fig. 1.

The paper's code generator outputs C++ functions (one per variant, each
paired with a cost function) plus a dispatch function.  This subpackage
emits exactly that as C++ source text (:mod:`repro.codegen.cpp_emitter`),
while the executable in-process equivalent is provided by
:class:`repro.runtime.Dispatcher`.
"""

from repro.codegen.cpp_emitter import emit_cpp, emit_kernels_header
from repro.codegen.python_emitter import emit_python
from repro.codegen import serialize

__all__ = ["emit_cpp", "emit_kernels_header", "emit_python", "serialize"]
