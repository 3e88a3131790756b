"""Lowering pipeline from assembled ISA programs to fused closures.

The compiled backend executes the *same assembled programs* the cycle
engine runs, without simulating them. The pipeline has three passes:

1. :mod:`repro.compiler.decode` — abstract interpretation of the
   instruction stream (constants, argument registers, streamer config
   writes) yielding a :class:`~repro.compiler.decode.DecodedProgram`;
2. :mod:`repro.compiler.structure` — recovery of the loop/stream
   structure (variant class, index width, accumulator count, lanes)
   from the decoded SSR/ISSR/intersect register configuration;
3. :mod:`repro.compiler.templates` — matching against the canonical
   op templates (the kernel builders' own output, normalized), whose
   match replays rows through the vectorized primitives of
   :mod:`repro.compiler.vectorize`.

:func:`lower` runs all three and returns a
:class:`~repro.compiler.templates.CompiledKernel`; results are cached
in the shared :data:`~repro.kernels.common.PROGRAM_CACHE` keyed by the
program's structural fingerprint, so each distinct program lowers
once per process. Programs whose structure matches no template raise
:class:`~repro.errors.LoweringError` — the compiled backend only
executes programs it can prove it understands.
"""

from repro.compiler import diskcache
from repro.compiler.decode import DecodedProgram, decode_program
from repro.compiler.structure import ProgramStructure, recover_structure
from repro.compiler.templates import CompiledKernel, lower
from repro.errors import LoweringError

__all__ = [
    "CompiledKernel",
    "DecodedProgram",
    "LoweringError",
    "ProgramStructure",
    "decode_program",
    "diskcache",
    "lower",
    "recover_structure",
]
