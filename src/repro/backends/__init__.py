"""Pluggable kernel-execution backends (see :mod:`repro.backends.base`).

Both backends execute the paper's §III kernels and the §IV-B cluster
runtime through the same registry dispatch surface
(:meth:`~repro.backends.base.Backend.run`): ``cycle`` measures, and
``compiled`` lowers the assembled programs through
:mod:`repro.compiler` and replays them (bit-identical results, cycles
within :data:`CYCLE_TOLERANCE`). ``fast`` is an accepted alias of
``compiled``.

>>> from repro.backends import get_backend
>>> backend = get_backend("compiled")
>>> stats, y = backend.run("csrmv", variant="issr", index_bits=16,
...                        matrix=matrix, x=x)   # doctest: +SKIP
"""

from repro.backends.base import Backend
from repro.backends.compiled import CompiledBackend
from repro.backends.cycle import CycleBackend
from repro.backends.model import (
    CYCLE_SLACK,
    CYCLE_TOLERANCE,
    KERNEL_TOLERANCE,
    cycle_error,
    cycle_tolerance,
    cycles_within_tolerance,
)
from repro.errors import ConfigError

#: Registered backend classes by name.
BACKENDS = {
    CycleBackend.name: CycleBackend,
    CompiledBackend.name: CompiledBackend,
}

#: Accepted spellings that resolve to a registered backend name.
ALIASES = {"fast": CompiledBackend.name}

DEFAULT_BACKEND = CycleBackend.name


def canonical_backend(name):
    """The registered backend name ``name`` resolves to.

    Aliases (:data:`ALIASES`) map to their target, so ``"fast"`` and
    ``"compiled"`` give the same name — and hence the same serve batch
    class and cache key. Unknown names raise :class:`ConfigError`.
    """
    if isinstance(name, str):
        name = ALIASES.get(name, name)
        if name in BACKENDS:
            return name
    raise ConfigError(
        f"unknown backend {name!r}; expected one of "
        f"{sorted(BACKENDS) + sorted(ALIASES)}")


def get_backend(spec=None):
    """Resolve ``spec`` into a :class:`Backend` instance.

    ``spec`` may be a backend name or alias (``"cycle"``,
    ``"compiled"``, ``"fast"``), an existing instance (returned
    unchanged), or None for the default.
    """
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, Backend):
        return spec
    return BACKENDS[canonical_backend(spec)]()


__all__ = [
    "ALIASES",
    "BACKENDS",
    "Backend",
    "CYCLE_SLACK",
    "CYCLE_TOLERANCE",
    "CompiledBackend",
    "CycleBackend",
    "KERNEL_TOLERANCE",
    "canonical_backend",
    "cycle_error",
    "cycle_tolerance",
    "cycles_within_tolerance",
    "DEFAULT_BACKEND",
    "get_backend",
]
