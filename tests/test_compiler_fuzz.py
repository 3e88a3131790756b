"""Property-based fuzzing of the compiler's lowering pipeline.

The compiled backend's safety contract is *exact recognition*: it may
only execute instruction streams it can prove are a canonical kernel
template (`repro.compiler.templates._match` compares whole normalized
streams). These tests mutate canonical programs at random — opcode
swaps, register/immediate perturbations, instruction deletion,
duplication, and reordering — and assert the pipeline either rejects
the stream loudly (:class:`LoweringError`, or :class:`ConfigError`
for streamer-config writes decoded to invalid addresses) or recovers
an identity whose canonical stream is *equal* to the mutant — in
which case executing it is bit-identical by construction. A silently
wrong lowering (accepting a mutant as some template it does not
equal) fails the property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import LoweringError, lower
from repro.compiler.decode import _eval_alu, _eval_alu_imm
from repro.errors import ConfigError
from repro.isa.introspect import normalize_program
from repro.isa.isa import ALL_OPS, Instr
from repro.isa.program import Program
from repro.kernels.common import VARIANTS


def _template_families():
    from repro.compiler.templates import _template_families as families

    return families()


def _valid_identities():
    """Every (family, variant, index_bits) the builders can produce."""
    identities = []
    for family, build in _template_families().items():
        for variant in VARIANTS:
            for bits in (16, 32):
                try:
                    build(variant, bits)
                except Exception:
                    continue  # combo not offered by this builder
                identities.append((family, variant, bits))
    return identities


IDENTITIES = _valid_identities()
OPS = sorted(ALL_OPS)

MUTATIONS = ("op", "imm", "reg", "swap", "delete", "duplicate")


def _copy_instr(ins, **changes):
    fields = {"rd": ins.rd, "rs1": ins.rs1, "rs2": ins.rs2,
              "rs3": ins.rs3, "imm": ins.imm, "aux": ins.aux}
    op = changes.pop("op", ins.op)
    fields.update(changes)
    return Instr(op, **fields)


def mutate(program, kind, position, value, delta):
    """One random single-site mutation of an assembled program."""
    instrs = list(program.instrs)
    i = position % len(instrs)
    if kind == "op":
        new_op = OPS[value % len(OPS)]
        if new_op == instrs[i].op:
            new_op = OPS[(value + 1) % len(OPS)]
        instrs[i] = _copy_instr(instrs[i], op=new_op)
    elif kind == "imm":
        instrs[i] = _copy_instr(instrs[i], imm=instrs[i].imm + delta)
    elif kind == "reg":
        field = ("rd", "rs1", "rs2")[value % 3]
        old = getattr(instrs[i], field)
        new = (old + 1 + value) % 32
        instrs[i] = _copy_instr(instrs[i], **{field: new})
    elif kind == "swap":
        j = (i + 1) % len(instrs)
        instrs[i], instrs[j] = instrs[j], instrs[i]
    elif kind == "delete":
        del instrs[i]
    elif kind == "duplicate":
        instrs.insert(i, instrs[i])
    return Program(instrs, dict(program.labels),
                   name=program.name + "-mut")


def assert_never_silently_wrong(program, family):
    """The fuzz oracle: loud rejection, or an exact-identity match."""
    try:
        kernel = lower(program, family_hint=family)
    except (LoweringError, ConfigError):
        return  # rejected loudly: the compiled backend refuses to run it
    canonical, _meta = _template_families()[kernel.family](
        kernel.variant, kernel.index_bits)
    assert normalize_program(program) == normalize_program(canonical), (
        f"lowering accepted a mutant of {program.name} as "
        f"{kernel!r} without stream equality — this would execute "
        f"silently wrong code")


@given(
    identity=st.sampled_from(IDENTITIES),
    kind=st.sampled_from(MUTATIONS),
    position=st.integers(min_value=0, max_value=4095),
    value=st.integers(min_value=0, max_value=4095),
    delta=st.integers(min_value=-64, max_value=64).filter(lambda d: d != 0),
)
@settings(max_examples=120, deadline=None)
def test_single_mutations_never_lower_silently_wrong(
        identity, kind, position, value, delta):
    family, variant, bits = identity
    program, _meta = _template_families()[family](variant, bits)
    mutant = mutate(program, kind, position, value, delta)
    assert_never_silently_wrong(mutant, family)


@given(
    identity=st.sampled_from(IDENTITIES),
    moves=st.lists(
        st.tuples(st.sampled_from(MUTATIONS),
                  st.integers(min_value=0, max_value=4095),
                  st.integers(min_value=0, max_value=4095),
                  st.integers(min_value=1, max_value=64)),
        min_size=2, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_stacked_mutations_never_lower_silently_wrong(identity, moves):
    family, variant, bits = identity
    program, _meta = _template_families()[family](variant, bits)
    for kind, position, value, delta in moves:
        program = mutate(program, kind, position, value, delta)
        if not program.instrs:
            return  # degenerate: everything deleted
    assert_never_silently_wrong(program, family)


@pytest.mark.parametrize("identity", IDENTITIES,
                         ids=lambda i: f"{i[0]}-{i[1]}-{i[2]}")
def test_canonical_programs_round_trip_to_their_own_identity(identity):
    """The fixed point the fuzzer perturbs around: every unmutated
    builder output lowers back to exactly its own identity."""
    family, variant, bits = identity
    program, _meta = _template_families()[family](variant, bits)
    kernel = lower(program, family_hint=family)
    assert (kernel.family, kernel.variant, kernel.index_bits) == identity


def test_truncated_program_is_rejected():
    program, _meta = _template_families()["csrmv"]("issr", 32)
    truncated = Program(list(program.instrs[: len(program.instrs) // 2]),
                        dict(program.labels), name="csrmv-truncated")
    with pytest.raises((LoweringError, ConfigError)):
        lower(truncated, family_hint="csrmv")


def test_empty_program_is_rejected():
    with pytest.raises((LoweringError, ConfigError)):
        lower(Program([], {}, name="empty"))



@pytest.mark.parametrize("op", ["slli", "srli"])
def test_negative_shift_mutant_is_rejected(op):
    """A shift by a negative amount is no constant: lowering rejects the
    program loudly instead of failing inside the constant folder."""
    program, _meta = _template_families()["csrmm"]("issr", 16)
    instrs = list(program.instrs)
    i = next(i for i, ins in enumerate(instrs) if ins.op == "slli")
    instrs[i] = _copy_instr(instrs[i], op=op, imm=-1)
    mutant = Program(instrs, dict(program.labels), name="negative-shift")
    with pytest.raises((LoweringError, ConfigError)):
        lower(mutant, family_hint="csrmm")
    assert _eval_alu_imm(op, 3, -1) is None
    assert _eval_alu(op[:-1], 3, -1) is None  # the register form
