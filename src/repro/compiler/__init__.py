"""Lowering of assembled ISA programs to fused closures (§III).

The compiled backend executes the *same assembled programs* the cycle
engine runs (the §III kernels, Listing 1's staggered ISSR CsrMV among
them) without simulating them. Lowering is one step:
:func:`~repro.compiler.templates.lower` normalizes a program's
instruction stream and matches it exactly against the canonical op
templates (the kernel builders' own output); the match's
:class:`~repro.compiler.templates.CompiledKernel` replays rows through
the vectorized primitives of :mod:`repro.compiler.vectorize`.

Lowered kernels are cached in the shared
:data:`~repro.kernels.common.PROGRAM_CACHE` keyed by the normalized
stream, so each distinct program lowers once per process, and each
match's identity is kept on disk (:mod:`repro.compiler.diskcache`) as
a hint for the next process. A program that matches no template
raises :class:`~repro.errors.LoweringError`: the compiled backend only
executes programs it can prove are a canonical kernel.
"""

from repro.compiler import diskcache
from repro.compiler.templates import CompiledKernel, lower
from repro.errors import LoweringError

__all__ = [
    "CompiledKernel",
    "LoweringError",
    "diskcache",
    "lower",
]
