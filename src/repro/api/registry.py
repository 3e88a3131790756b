"""The declarative kernel registry behind the dispatch surface.

Every kernel the backends can execute is described once, as data, by a
:class:`KernelSpec`: its name, the operand schema (positional order and
names), the result type, the cycle-tolerance family it validates
against, and whether it is a cluster-level kernel. Backends implement
capabilities as ``_exec_<name>`` methods and the base
:meth:`~repro.backends.base.Backend.run` resolves every call through
this registry, so experiments, the CLI, and tests all see one uniform
surface — and unsupported (backend, kernel) pairs fail with a single
well-typed :class:`~repro.errors.UnsupportedKernelError`.

The registry deliberately lives below :mod:`repro.backends` (its
imports, :mod:`repro.errors`, :mod:`repro.formats` and
:mod:`repro.kernels.common`, import no dispatch layer), so both the
backends and the :mod:`repro.api` facade can import it without cycles.
"""

import numpy as np

from repro.errors import ConfigError, FormatError
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber
from repro.kernels.common import check_index_bits, check_variant

#: Result kinds a kernel can produce (second element of the
#: ``(stats, result)`` pair every backend returns).
RESULT_KINDS = ("scalar", "vector", "dense", "csr", "tensor")


#: The format of each sparse operand name, and the rank of each dense one.
SPARSE_FORMATS = {"matrix": CsrMatrix, "a": CsrMatrix, "b": CsrMatrix,
                  "fiber": SparseFiber, "fiber_a": SparseFiber,
                  "fiber_b": SparseFiber, "x_fiber": SparseFiber,
                  "tensor": CsfTensor}
DENSE_NDIM = {"x": 1, "vector": 1, "dense": 2}


def _index_array(operand):
    """``(indices, bound)`` a kernel streams from ``operand``.

    Each format's constructor guarantees every index is below
    ``bound``; an operand without indices gives ``(None, 0)``.
    """
    if isinstance(operand, CsrMatrix):
        return operand.idcs, operand.ncols
    if isinstance(operand, SparseFiber):
        return operand.indices, operand.dim
    if isinstance(operand, CsfTensor):
        return operand.idcs[-1], operand.shape[-1]
    return None, 0


def check_index_width(spec, operands, index_bits):
    """Raise :class:`FormatError` if a sparse index overflows the width.

    Every index the kernel streams through the ISSR must fit in
    ``index_bits`` (the paper's 16/32-bit axis) — the same check, with
    the same message, that :func:`repro.utils.bits.pack_indices`
    applies when the cycle backend packs the operands. Only an operand
    whose index bound exceeds the width is scanned.
    """
    limit = 1 << index_bits
    for name in spec.operands:
        idcs, bound = _index_array(operands[name])
        if bound > limit and len(idcs) and idcs.max() >= limit:
            first = int(idcs[(idcs >= limit).argmax()])
            raise FormatError(
                f"index {first} does not fit in {index_bits} bits")


class KernelSpec:
    """One registered kernel: name, operand schema, and contracts."""

    __slots__ = ("name", "operands", "result", "tolerance_key",
                 "cluster_capable", "has_variant", "extra_kwargs", "doc")

    def __init__(self, name, operands, result, tolerance_key,
                 cluster_capable=False, has_variant=True,
                 extra_kwargs=(), doc=""):
        if result not in RESULT_KINDS:
            raise ConfigError(
                f"kernel {name!r}: unknown result kind {result!r}")
        self.name = name
        #: Operand names in the canonical positional order.
        self.operands = tuple(operands)
        self.result = result
        #: Key into the backends' CYCLE_TOLERANCE table.
        self.tolerance_key = tolerance_key
        #: True for kernels executed by a whole cluster (multi-core).
        self.cluster_capable = cluster_capable
        #: False for kernels without a BASE/SSR/ISSR variant axis.
        self.has_variant = has_variant
        #: Optional keyword arguments forwarded to the implementation
        #: (backend-specific knobs like ``cluster=`` or ``pattern=``).
        self.extra_kwargs = tuple(extra_kwargs)
        self.doc = doc

    def check_call(self, names, variant=None, index_bits=32):
        """Operand names, index width and variant (:class:`ConfigError`);
        a bad name lists the schema, so it reads the same on every path."""
        missing = [o for o in self.operands if o not in names]
        unknown = [o for o in names
                   if o not in self.operands and o not in self.extra_kwargs]
        if missing or unknown:
            problems = "; ".join(f"{what} {which}" for what, which in (
                ("missing", missing), ("unknown", unknown)) if which)
            raise ConfigError(
                f"kernel {self.name!r} operands {problems}; "
                f"schema is ({', '.join(self.operands)})")
        check_index_bits(index_bits)
        if self.has_variant and variant is not None:
            check_variant(variant)

    def check_values(self, operands):
        """Enforce :meth:`operand_rules` (:class:`FormatError`); returns
        a copy with the dense operands as float64 arrays."""
        checked = dict(operands)
        first = self.operands[0]  # sparse: checked before dense ones
        for name in self.operands:
            value, fmt = operands[name], SPARSE_FORMATS.get(name)
            if fmt is not None:
                if not isinstance(value, fmt):
                    self._reject(f"{name} must be a {fmt.__name__}, got "
                                 f"{type(value).__name__}")
                continue
            value = checked[name] = np.asarray(value, dtype=np.float64)
            if value.ndim != DENSE_NDIM[name]:
                self._reject(f"{name} must be {DENSE_NDIM[name]}-D, got "
                             f"shape {value.shape}")
            if len(value) < _index_array(operands[first])[1]:
                self._reject(f"{name} of length {len(value)} is shorter "
                             f"than the index range of {first}")
            k = value.shape[-1]
            if value.ndim == 2 and k & (k - 1):
                self._reject(f"dense column count {k} must be a power of two")
        a, b = operands.get("a"), operands.get("b")
        if self.name == "spgemm" and a.ncols != b.nrows:
            self._reject(f"shape mismatch {a.shape} @ {b.shape}")
        return checked

    def _reject(self, problem):
        raise FormatError(f"kernel {self.name!r}: {problem}")

    def operand_rules(self):
        """What :meth:`check_values` requires, one line per rule.

        A dense operand's first axis covers the first operand's index
        bound, so no streamed index reads past it.
        """
        rules = []
        for name in self.operands:
            if name in SPARSE_FORMATS:
                rules.append(f"`{name}` is a {SPARSE_FORMATS[name].__name__}")
                continue
            ndim = DENSE_NDIM[name]
            rules.append(f"`{name}` is {ndim}-D and covers "
                         f"`{self.operands[0]}`"
                         + (", with power-of-two columns" if ndim == 2
                            else ""))
        if self.name == "spgemm":
            rules.append("`a.ncols == b.nrows`")
        return rules

    def validate_operands(self, operands, variant=None, index_bits=32):
        """The one operand-legality check, shared by every path that
        runs a kernel: :meth:`check_call`, :meth:`check_values`, then
        :func:`check_index_width`. Returns the checked operands."""
        self.check_call(operands, variant, index_bits)
        checked = self.check_values(operands)
        check_index_width(self, checked, index_bits)
        return checked

    def __repr__(self):
        return (f"KernelSpec({self.name}, operands={self.operands}, "
                f"result={self.result!r}, tol={self.tolerance_key!r})")


#: The kernel registry, in the order the docs/CLI list them. The
#: tolerance keys must stay in sync with
#: :data:`repro.backends.model.KERNEL_TOLERANCE` (asserted by
#: ``tests/test_api.py``).
KERNELS = {spec.name: spec for spec in (
    KernelSpec("spvv", ("fiber", "x"), "scalar", "single",
               doc="sparse-dense dot product (§III-B)"),
    KernelSpec("csrmv", ("matrix", "x"), "vector", "single",
               doc="CSR matrix-vector product (§III-B)"),
    KernelSpec("csrmm", ("matrix", "dense"), "dense", "single",
               doc="CSR matrix-matrix product (column-looped CsrMV)"),
    KernelSpec("ttv", ("tensor", "vector"), "tensor", "single",
               has_variant=False,
               doc="CSF tensor-times-vector over the leaf mode"),
    KernelSpec("masked_spvv", ("fiber_a", "fiber_b"), "scalar", "masked",
               doc="sparse-sparse masked dot product (intersection)"),
    KernelSpec("masked_csrmv", ("matrix", "x_fiber"), "vector", "masked",
               doc="CSR times sparse vector, dense output"),
    KernelSpec("spgemm", ("a", "b"), "csr", "spgemm",
               extra_kwargs=("pattern",),
               doc="Gustavson CSR x CSR product (numeric phase)"),
    KernelSpec("cluster_csrmv", ("matrix", "x"), "vector", "cluster",
               cluster_capable=True,
               extra_kwargs=("cluster", "max_cycles", "tile_rows",
                             "n_workers", "watchdog"),
               doc="double-buffered 8-core cluster CsrMV (§IV-B)"),
)}


def get_kernel(name):
    """Resolve a kernel name to its :class:`KernelSpec`."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(KERNELS)}") from None


def list_kernels():
    """Registered kernel names, in registry order."""
    return list(KERNELS)
