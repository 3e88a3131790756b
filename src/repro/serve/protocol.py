"""The serve request/response schema, derived from the kernel registry.

A request names a kernel from :data:`repro.api.KERNELS` and supplies
one *workload spec* per registered operand — a JSON-able description
of a seeded generator call from :mod:`repro.workloads` — so a request
is fully reproducible from its text form: the worker rebuilds the
exact operand arrays and dispatches through :func:`repro.api.run`,
which is what makes served results bit-identical to a direct run and
the request itself a valid point-cache key. In-process clients may
instead pass pre-built ``operands`` (NumPy/CSR objects), which never
cross the JSON boundary.

:func:`validate_request` normalizes a raw payload against the
registry (unknown kernels, missing/unknown operands, bad priorities
all raise :class:`~repro.errors.RequestError` before anything is
queued); :func:`request_fields` enumerates the schema per kernel for
the generated docs table; the ``encode_result``/``decode_result``
pair round-trips results over JSON bit-exactly (CPython's ``json``
serializes floats via ``repr``, which round-trips IEEE-754 doubles).
"""

import hashlib
import json

import numpy as np

from repro.api.registry import KERNELS, get_kernel
from repro.errors import ConfigError, FormatError, RequestError

#: Request fields shared by every kernel (operand specs ride beside
#: these under ``"workload"``). ``priority`` 0 is most urgent.
REQUEST_FIELDS = (
    "kernel", "backend", "variant", "index_bits", "workload", "tenant",
    "priority", "timeout", "profile", "check",
)

#: Whitelisted workload generators a JSON request may name. Every
#: entry is a seeded, deterministic constructor from
#: :mod:`repro.workloads`; requests cannot reach arbitrary callables.
GENERATORS = (
    "random_csr",
    "random_dense_matrix",
    "random_dense_vector",
    "random_sparse_vector",
    "random_fiber_pair",
    "random_spd_csr",
    "random_stochastic_csr",
)

_DEFAULTS = {
    "backend": "compiled",
    "variant": None,
    "index_bits": 32,
    "tenant": "anon",
    "priority": 1,
    "timeout": None,
    "profile": False,
    "check": True,
}


def request_fields(spec=None):
    """The request-schema field names, optionally for one kernel.

    With a :class:`~repro.api.registry.KernelSpec` (or name), the
    returned tuple appends the kernel's operand names — the keys its
    ``workload`` mapping must carry. This is the source of the
    request-schema column in the generated kernel-registry docs table.
    """
    if spec is None:
        return REQUEST_FIELDS
    if isinstance(spec, str):
        spec = get_kernel(spec)
    return REQUEST_FIELDS + tuple(f"workload.{op}" for op in spec.operands)


def validate_request(payload):
    """Normalize one raw request dict against the kernel registry.

    Returns a new dict carrying every field in :data:`REQUEST_FIELDS`
    (defaults filled) plus ``operands`` when pre-built operands were
    passed in-process. Raises :class:`RequestError` on anything
    malformed, naming the offending field — nothing invalid reaches
    the scheduler.
    """
    if not isinstance(payload, dict):
        raise RequestError(f"request must be a mapping, got "
                           f"{type(payload).__name__}")
    known = set(REQUEST_FIELDS) | {"operands", "inject"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestError(f"unknown request fields {unknown}; schema is "
                           f"({', '.join(REQUEST_FIELDS)})")
    if "kernel" not in payload:
        raise RequestError("request is missing 'kernel'")
    try:
        spec = get_kernel(payload["kernel"])
    except ConfigError as exc:
        raise RequestError(str(exc)) from None

    req = dict(_DEFAULTS)
    req["kernel"] = spec.name
    for field in _DEFAULTS:
        if field in payload and payload[field] is not None:
            req[field] = payload[field]
    # Normalize the variant axis so semantically identical requests
    # derive identical cache keys (None == the documented default).
    if spec.has_variant:
        if req["variant"] is None:
            req["variant"] = "issr"
    else:
        req["variant"] = None

    from repro.backends import canonical_backend

    # Aliases resolve at admission, so "fast" and "compiled" requests
    # share one batch class and one cache key.
    try:
        req["backend"] = canonical_backend(req["backend"])
    except ConfigError as exc:
        raise RequestError(str(exc)) from None
    if not isinstance(req["priority"], int) or req["priority"] < 0:
        raise RequestError(
            f"priority must be an int >= 0 (0 is most urgent), got "
            f"{req['priority']!r}")
    if req["timeout"] is not None and not (
            isinstance(req["timeout"], (int, float)) and req["timeout"] > 0):
        raise RequestError(f"timeout must be a positive number of seconds, "
                           f"got {req['timeout']!r}")
    if not isinstance(req["tenant"], str) or not req["tenant"]:
        raise RequestError(f"tenant must be a non-empty string, got "
                           f"{req['tenant']!r}")

    workload = payload.get("workload")
    operands = payload.get("operands")
    if (workload is None) == (operands is None):
        raise RequestError(
            "request needs exactly one of 'workload' (JSON generator "
            "specs) or 'operands' (in-process objects)")
    source = workload if workload is not None else operands
    if not isinstance(source, dict):
        raise RequestError("workload/operands must map operand names to "
                           "specs/objects")
    # the registry's check, in full on operands request_key will hash
    try:
        if operands is None:
            spec.check_call(workload, req["variant"], req["index_bits"])
        else:
            operands = spec.validate_operands(operands, req["variant"],
                                              req["index_bits"])
    except (ConfigError, FormatError) as exc:
        raise RequestError(str(exc)) from None
    knobs = sorted(set(source) & set(spec.extra_kwargs))
    if knobs:
        raise RequestError(f"keyword arguments {knobs} cannot ride a request")
    if workload is not None:
        for op, gen_spec in workload.items():
            _validate_generator_spec(spec.name, op, gen_spec)
        req["workload"] = {op: dict(workload[op]) for op in spec.operands}
        req["operands"] = None
    else:
        req["workload"] = None
        req["operands"] = {op: operands[op] for op in spec.operands}
    req["inject"] = payload.get("inject")
    return req


def request_point(params):
    """Key anchor for serve cache entries (never executed).

    Exists so :func:`request_key` can derive keys through
    :func:`repro.eval.parallel.point_key` with a stable fully-qualified
    point-function identity — the same KEY_SCHEMA machinery, the same
    cache, as the batch sweeps.
    """
    raise NotImplementedError(
        "request_point anchors serve cache keys; the service executes "
        "requests through the worker pool, not this function")


def cache_params(request):
    """The semantic subset of a request that determines its response.

    Tenant, priority, and timeout never change the computed ``(stats,
    result)`` pair, so they are excluded — two tenants asking the same
    question share one cache entry and one in-flight execution. A set
    ``profile`` flag is included: a profiled response carries a
    registry snapshot a plain one lacks, so the two must never
    coalesce onto each other. An unset flag leaves the key as it was.
    """
    params = {
        "kernel": request["kernel"],
        "backend": request["backend"],
        "variant": request["variant"],
        "index_bits": request["index_bits"],
        "check": request["check"],
        "workload": request["workload"],
        "operands": request["operands"],
    }
    if request["profile"]:
        params["profile"] = True
    return params


def request_key(request):
    """The point-cache key (dedupe identity) of a validated request."""
    from repro.eval.parallel import point_key

    return point_key(request_point, cache_params(request))


def _validate_generator_spec(kernel, operand, gen_spec):
    if isinstance(gen_spec, dict) and "matrix_ref" in gen_spec:
        _validate_matrix_ref(operand, gen_spec)
        return
    if not isinstance(gen_spec, dict) or "gen" not in gen_spec:
        raise RequestError(
            f"workload.{operand} for kernel {kernel!r} must be a mapping "
            f"with a 'gen' field naming one of {GENERATORS}, or a "
            "'matrix_ref' naming an on-disk CSR cache")
    if gen_spec["gen"] not in GENERATORS:
        raise RequestError(
            f"workload.{operand}: unknown generator {gen_spec['gen']!r}; "
            f"whitelisted generators: {', '.join(GENERATORS)}")
    select = gen_spec.get("select")
    if select is not None and select not in (0, 1):
        raise RequestError(
            f"workload.{operand}: 'select' must be 0 or 1 (tuple element "
            f"of a pair generator), got {select!r}")


def _validate_matrix_ref(operand, gen_spec):
    """Check a ``matrix_ref`` operand spec (on-disk CSR cache).

    The spec stays a pure JSON description — the path is only opened
    inside the worker at build time, so a request referencing a
    missing or corrupt cache fails that one execution, not admission.
    """
    from repro.formats.external import CACHE_SUFFIX

    unknown = sorted(set(gen_spec) - {"matrix_ref", "rows"})
    if unknown:
        raise RequestError(
            f"workload.{operand}: unknown matrix_ref fields {unknown}; "
            "schema is (matrix_ref, rows)")
    ref = gen_spec["matrix_ref"]
    if not isinstance(ref, str) or not ref.endswith(CACHE_SUFFIX):
        raise RequestError(
            f"workload.{operand}: matrix_ref must be a path string ending "
            f"in {CACHE_SUFFIX!r}, got {ref!r}")
    rows = gen_spec.get("rows")
    if rows is not None:
        ok = (isinstance(rows, (list, tuple)) and len(rows) == 2
              and all(isinstance(r, int) and not isinstance(r, bool)
                      for r in rows)
              and 0 <= rows[0] < rows[1])
        if not ok:
            raise RequestError(
                f"workload.{operand}: 'rows' must be [r0, r1] with "
                f"0 <= r0 < r1, got {rows!r}")


def build_operands(request):
    """Materialize a request's operand arrays inside a worker.

    ``operands`` passes through untouched; a ``workload`` mapping is
    resolved through the :data:`GENERATORS` whitelist. Generators
    returning tuples (``random_fiber_pair``) are indexed by the spec's
    ``select`` field. Deterministic: the same request always yields
    bit-identical arrays (all generators are seeded).
    """
    if request.get("operands") is not None:
        return dict(request["operands"])
    import repro.workloads as workloads

    built = {}
    for operand, gen_spec in request["workload"].items():
        if "matrix_ref" in gen_spec:
            built[operand] = _open_matrix_ref(operand, gen_spec)
            continue
        kwargs = {k: v for k, v in gen_spec.items()
                  if k not in ("gen", "select")}
        try:
            value = getattr(workloads, gen_spec["gen"])(**kwargs)
        except TypeError as exc:
            raise RequestError(
                f"workload.{operand}: {gen_spec['gen']} rejected its "
                f"parameters: {exc}") from None
        if isinstance(value, tuple):
            value = value[gen_spec.get("select", 0)]
        built[operand] = value
    return built


def _open_matrix_ref(operand, gen_spec):
    """Open a ``matrix_ref`` spec as an mmap-backed operand.

    The optional ``rows`` window slices a zero-copy row block — a
    served request can address one tile of a matrix that never fits
    in a worker's memory. Open/format failures surface as
    :class:`RequestError` so the scheduler records a clean rejection
    for this execution instead of a worker crash.
    """
    from repro.errors import FormatError
    from repro.formats.external import open_csr_cache

    try:
        matrix = open_csr_cache(gen_spec["matrix_ref"])
        rows = gen_spec.get("rows")
        if rows is not None:
            matrix = matrix.row_block(int(rows[0]), int(rows[1]))
    except (OSError, FormatError) as exc:
        raise RequestError(
            f"workload.{operand}: matrix_ref "
            f"{gen_spec['matrix_ref']!r} unusable: {exc}") from None
    return matrix


# -- result / stats codecs ---------------------------------------------------

def stats_dict(stats):
    """A JSON-serializable counter dict from a RunStats-like object."""
    out = {}
    for name in ("cycles", "retired", "fpu_compute_ops", "fpu_mac_ops",
                 "mem_reads", "mem_writes", "tcdm_conflicts",
                 "icache_misses", "dma_words", "dma_busy_cycles"):
        value = getattr(stats, name, 0)
        out[name] = int(value)
    return out


def _result_arrays(kind, result):
    """The canonical array tuple a result is defined by, per kind."""
    if kind == "scalar":
        return (np.asarray(result, dtype=np.float64),)
    if kind in ("vector", "dense", "tensor"):
        if hasattr(result, "to_dense"):
            result = result.to_dense()
        return (np.asarray(result, dtype=np.float64),)
    if kind == "csr":
        return (np.asarray(result.ptr), np.asarray(result.idcs),
                np.asarray(result.vals), np.asarray(result.shape))
    raise RequestError(f"unknown result kind {kind!r}")


def result_digest(kind, result):
    """SHA-256 hex digest of a result's canonical bytes.

    The bit-identity oracle: two results are identical iff their
    digests match, regardless of which side of the socket computed
    them.
    """
    h = hashlib.sha256()
    for arr in _result_arrays(kind, result):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def encode_result(kind, result):
    """A JSON-able payload for a kernel result (bit-exact floats)."""
    if kind == "scalar":
        return float(np.asarray(result, dtype=np.float64))
    if kind in ("vector", "dense", "tensor"):
        if hasattr(result, "to_dense"):
            result = result.to_dense()
        arr = np.asarray(result, dtype=np.float64)
        return {"shape": list(arr.shape), "values": arr.ravel().tolist()}
    if kind == "csr":
        return {"shape": list(result.shape),
                "ptr": np.asarray(result.ptr).tolist(),
                "idcs": np.asarray(result.idcs).tolist(),
                "vals": np.asarray(result.vals).tolist()}
    raise RequestError(f"unknown result kind {kind!r}")


def decode_result(kind, payload):
    """Invert :func:`encode_result` (CSR comes back as a CsrMatrix)."""
    if kind == "scalar":
        return np.float64(payload)
    if kind in ("vector", "dense", "tensor"):
        arr = np.asarray(payload["values"], dtype=np.float64)
        return arr.reshape(payload["shape"])
    if kind == "csr":
        from repro.formats.csr import CsrMatrix

        return CsrMatrix(np.asarray(payload["ptr"], dtype=np.int64),
                         np.asarray(payload["idcs"], dtype=np.int64),
                         np.asarray(payload["vals"], dtype=np.float64),
                         tuple(payload["shape"]))
    raise RequestError(f"unknown result kind {kind!r}")


def result_kind(kernel):
    """The registry result kind for ``kernel`` (see RESULT_KINDS)."""
    return KERNELS[kernel].result


# -- wire framing ------------------------------------------------------------

def encode_message(message):
    """One newline-delimited JSON frame (bytes, trailing newline)."""
    return (json.dumps(message, separators=(",", ":"),
                       allow_nan=False) + "\n").encode()


def decode_message(line):
    """Parse one frame; raises :class:`RequestError` on bad JSON."""
    try:
        return json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError(f"undecodable frame: {exc}") from None
