"""Program introspection: the normalized instruction stream.

The compiler (:mod:`repro.compiler`) identifies an assembled program by
comparing *normalized instruction streams* — the builder resolves
labels to absolute PCs at build time, so two programs built by the same
builder are equal instruction-for-instruction and the normalized form
is a sound identity. The normalized stream doubles as the
compiled-kernel cache key in the shared
:data:`~repro.kernels.common.PROGRAM_CACHE`.
"""


def normalize_instr(ins):
    """One instruction as a flat comparable tuple.

    FREP ``aux`` (stagger count, mask) is part of the identity; every
    other field is already a resolved integer after
    :meth:`~repro.isa.program.ProgramBuilder.build`.
    """
    return (ins.op, ins.rd, ins.rs1, ins.rs2, ins.rs3, ins.imm, ins.aux)


def normalize_program(program):
    """The whole instruction stream as a tuple of normalized tuples.

    Labels are deliberately excluded: branch targets are absolute PCs
    after build, so label *names* are cosmetic and two streams that
    execute identically normalize identically.
    """
    return tuple(normalize_instr(ins) for ins in program.instrs)
