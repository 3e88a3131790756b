"""The execution-backend interface and its dispatch surface.

A backend decouples *what a kernel computes* (the §III-B kernels and
the §IV-B cluster runtime) from *how it is executed*. Kernels are
described declaratively in :mod:`repro.api.registry`; a backend
implements a capability by defining an ``_exec_<kernel>`` method with
the registry's operand schema, and every call — from experiments, the
CLI, or tests — resolves through :meth:`Backend.run`:

- :class:`~repro.backends.cycle.CycleBackend` pushes every instruction
  through the cycle-stepped engine — exact, slow;
- :class:`~repro.backends.compiled.CompiledBackend` lowers the *same
  assembled programs* the cycle engine runs through
  :mod:`repro.compiler` into fused vectorized closures — fast,
  bit-identical, cycles from the analytic models.

Every kernel returns the same ``(stats, result)`` pair, where
``stats`` is a :class:`~repro.sim.counters.RunStats` (or
:class:`~repro.cluster.runtime.ClusterStats`) and ``result`` the
numerical output. Experiments accept ``backend=`` (a name or an
instance) and resolve it with :func:`repro.backends.get_backend`.
"""

from repro.api.registry import KERNELS, get_kernel
from repro.errors import UnsupportedKernelError
from repro.telemetry import metrics as _metrics


class Backend:
    """Abstract kernel-execution backend.

    Subclasses implement kernels as ``_exec_<name>`` methods matching
    the :mod:`repro.api.registry` operand schema and are invoked
    uniformly through :meth:`run`.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def run(self, kernel, *, variant=None, index_bits=32, check=True,
            **operands):
        """Execute a registered kernel; returns ``(stats, result)``.

        ``kernel`` is a name from :data:`repro.api.registry.KERNELS`
        (or a :class:`~repro.api.registry.KernelSpec`). Operands are
        keyword-only and pass the registry's legality check
        (:meth:`~repro.api.registry.KernelSpec.validate_operands`);
        ``variant``/``index_bits``/``check`` follow the kernel entry
        points' conventions (``variant`` defaults to ISSR; kernels
        without a variant axis ignore it). Raises
        :class:`~repro.errors.UnsupportedKernelError` when this
        backend has no implementation.
        """
        spec = kernel if hasattr(kernel, "operands") else get_kernel(kernel)
        impl = getattr(self, f"_exec_{spec.name}", None)
        if impl is None:
            raise UnsupportedKernelError(self.name, spec.name,
                                         supported=self.kernels())
        operands = spec.validate_operands(operands, variant, index_bits)
        if spec.has_variant:
            operands["variant"] = "issr" if variant is None else variant
        out = impl(index_bits=index_bits, check=check, **operands)
        if _metrics.ENABLED:
            _metrics.record_kernel_run(spec.name, self.name, out[0])
        return out

    def supports(self, kernel):
        """True when this backend implements ``kernel``."""
        name = kernel.name if hasattr(kernel, "name") else kernel
        return hasattr(self, f"_exec_{name}")

    def kernels(self):
        """Registered kernel names this backend implements."""
        return [name for name in KERNELS if self.supports(name)]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"
