"""Parallel experiment-point execution with on-disk result caching.

The fig4* drivers decompose their sweeps into *points* — picklable
parameter dicts mapped through a module-level point function. A
:class:`ParallelRunner` fans those points out over a
``multiprocessing`` pool and memoizes each result on disk, keyed by
(point function, parameters, backend, code version via git-describe),
so re-running an experiment after an interruption — or sharing a sweep
between the CLI and the benchmarks — only computes missing points.

Kernel programs are rebuilt inside each worker process (the shared
:class:`~repro.kernels.common.ProgramCache` is per-process); nothing
built crosses a process boundary.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import subprocess

import numpy as np

from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.formats.fiber import SparseFiber

#: Default cache directory (overridable via the environment).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cache-key schema version. Bump whenever the key derivation (or the
#: meaning of a point's parameters) changes so stale entries can never
#: be served — e.g. v2 added the canonical parameter encoding when the
#: multi-cluster sweeps introduced cluster-count / partitioner / HBM
#: parameters that must distinguish otherwise-identical points; v3
#: accompanies the sparse-sparse (E12) point family, whose parameters
#: (match density, pair distribution, check kind) and two-backend
#: cross-check results must never collide with older entries; v4
#: accompanies the solver/pipeline (E13) point family (solver name,
#: cluster count, iteration budget, pipeline coordination constants);
#: v5 keys in-process sparse operands by their index/value arrays
#: instead of a ``repr`` that held only shape and nnz.
KEY_SCHEMA = 5

#: Sparse operand types keyed by content (see :func:`canonical_params`).
_SPARSE_TYPES = (CsrMatrix, SparseFiber, CsfTensor)

_code_version = None


def code_version():
    """The repo's ``git describe`` (cached); part of every cache key.

    Falls back to ``REPRO_VERSION`` or ``"unknown"`` outside a git
    checkout, so caching still works for installed copies (at the cost
    of manual invalidation).
    """
    global _code_version
    if _code_version is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10, cwd=cwd,
            )
            _code_version = out.stdout.strip() if out.returncode == 0 else ""
            if _code_version.endswith("-dirty"):
                # a dirty tree keeps the same describe string across
                # edits; key on the uncommitted diff content as well
                diff = subprocess.run(
                    ["git", "diff", "HEAD"],
                    capture_output=True, timeout=30, cwd=cwd,
                )
                _code_version += "-" + hashlib.sha256(
                    diff.stdout).hexdigest()[:12]
        except (OSError, subprocess.SubprocessError):
            _code_version = ""
        if not _code_version:
            _code_version = os.environ.get("REPRO_VERSION", "unknown")
    return _code_version


def map_points(fn, params, runner=None):
    """Run ``fn`` over point-parameter dicts, serially or via a runner.

    The shared dispatch used by every fig4* driver: ``runner=None``
    computes inline; otherwise the points fan out (and cache) through
    :meth:`ParallelRunner.map`.
    """
    if runner is not None:
        return runner.map(fn, params)
    return [fn(p) for p in params]


def canonical_params(value):
    """Deterministic, collision-safe text encoding of point parameters.

    Every parameter that changes a point's result must change its
    encoding: dicts are sorted, dataclasses (e.g.
    :class:`~repro.workloads.MatrixSpec`,
    :class:`~repro.multicluster.hbm.HbmConfig`) expand to their typed
    field values, sparse operands (CSR, fiber, CSF) expand to their
    index/value arrays, ndarrays hash their full buffer, and objects
    whose ``repr`` embeds a memory address (``... at 0x...``) fall back
    to a hash of their pickled state so two distinct runs of the same
    sweep agree on the key.
    """
    if isinstance(value, dict):
        inner = ",".join(
            f"{canonical_params(k)}:{canonical_params(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) \
            else value
        return "[" + ",".join(canonical_params(v) for v in items) + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        return (f"{type(value).__module__}.{type(value).__qualname__}"
                + canonical_params(fields))
    for cls in _SPARSE_TYPES:
        if isinstance(value, cls):
            # repr() holds only shape and nnz; the arrays go through
            # the ndarray branch below
            fields = {name: getattr(value, name) for name in cls.__slots__}
            return cls.__qualname__ + canonical_params(fields)
    if isinstance(value, np.ndarray):
        # repr() truncates large arrays ('...'), which would collide;
        # hash the full buffer instead.
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return (f"ndarray({value.dtype},{value.shape},"
                f"{digest.hexdigest()[:16]})")
    text = repr(value)
    if " at 0x" in text:  # default object repr: address-dependent
        try:
            digest = hashlib.sha256(pickle.dumps(value)).hexdigest()[:16]
        except Exception:
            raise TypeError(
                f"point parameter {type(value).__name__} has no stable "
                "repr and cannot be pickled; pass primitives, "
                "dataclasses, or objects with value-based reprs"
            ) from None
        return f"{type(value).__module__}.{type(value).__qualname__}#{digest}"
    return text


def point_key(fn, params):
    """Stable cache key for one (point function, params) pair.

    Keyed by the fully-qualified point function, the canonical
    parameter encoding (see :func:`canonical_params` — this is what
    keeps multi-cluster points with differing ``n_clusters`` /
    ``partitioner`` / HBM settings from ever colliding with
    single-cluster ones), the code version, and :data:`KEY_SCHEMA`.
    """
    ident = (
        f"schema{KEY_SCHEMA}\n"
        f"{fn.__module__}.{fn.__qualname__}\n"
        f"{canonical_params(params)}\n"
        f"{code_version()}"
    )
    return hashlib.sha256(ident.encode()).hexdigest()


class PointCache:
    """The on-disk point-result store shared by every cached consumer.

    One entry per :func:`point_key`, pickled atomically under
    ``cache_dir/<key[:2]>/<key>.pkl``. Both the
    :class:`ParallelRunner` (batch sweeps) and :mod:`repro.serve` (the
    online request scheduler) memoize through this class, so a point
    computed by either is a cache hit for the other — the cache, its
    key derivation, and its corruption handling live in exactly one
    place. Loads tolerate missing or corrupt entries (a torn write, a
    truncated pickle) by reporting a miss; stores are best-effort and
    never fail the computation.
    """

    def __init__(self, cache_dir=None, use_cache=True):
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        #: Hit/miss counters (surfaced by the metrics registry as
        #: ``repro_point_cache_*`` and by the serve stats endpoint).
        self.hits = 0
        self.misses = 0
        from repro.telemetry import metrics as _metrics

        if _metrics.ENABLED:
            _metrics.DEFAULT.track("point_cache", self)

    def path(self, key):
        """Filesystem path holding ``key``'s entry (existing or not)."""
        return os.path.join(self.cache_dir, key[:2], key + ".pkl")

    def load(self, key):
        """The stored ``{"params", "result"}`` entry, or None on miss.

        Unreadable entries (corrupt pickle, torn write, wrong type)
        count as misses: the caller recomputes and overwrites.
        """
        if not self.use_cache:
            return None
        try:
            with open(self.path(key), "rb") as fh:
                entry = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not isinstance(entry, dict) or "result" not in entry:
            return None  # corrupt-but-unpicklable garbage: treat as miss
        return entry

    def store(self, key, params, result):
        """Persist one point result (atomic rename; best-effort)."""
        if not self.use_cache:
            return
        path = self.path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                pickle.dump({"params": params, "result": result}, fh)
            os.replace(tmp, path)
        except OSError:
            pass  # caching is best-effort; never fail the experiment

    def __repr__(self):
        return (f"PointCache(cache_dir={self.cache_dir!r}, "
                f"use_cache={self.use_cache})")


class ParallelRunner:
    """Map point functions over parameter dicts, in parallel, cached.

    ``processes`` bounds the worker pool (1 runs inline, no pool);
    ``use_cache=False`` disables the on-disk memo entirely.
    """

    def __init__(self, processes=None, cache_dir=None, use_cache=True,
                 mp_context=None):
        if processes is not None and processes < 1:
            from repro.errors import ConfigError

            raise ConfigError(
                f"ParallelRunner needs processes >= 1 (or None for all "
                f"CPUs), got {processes}"
            )
        self.processes = processes or os.cpu_count() or 1
        self.cache = PointCache(cache_dir=cache_dir, use_cache=use_cache)
        self._mp_context = mp_context

    @property
    def cache_dir(self):
        """The underlying :class:`PointCache` directory."""
        return self.cache.cache_dir

    @property
    def use_cache(self):
        """Whether the on-disk memo is consulted at all."""
        return self.cache.use_cache

    @property
    def cache_hits(self):
        """Point-cache hits of this runner's cache."""
        return self.cache.hits

    @property
    def cache_misses(self):
        """Point-cache misses of this runner's cache."""
        return self.cache.misses

    # -- execution -----------------------------------------------------------

    def map(self, fn, param_list):
        """Run ``fn(params)`` for every dict in ``param_list``.

        Returns results in input order. Cached points are loaded from
        disk; the misses are distributed over the process pool.
        """
        param_list = list(param_list)
        keys = [point_key(fn, p) for p in param_list]
        results = [None] * len(param_list)
        misses = []
        for i, key in enumerate(keys):
            hit = self.cache.load(key)
            if hit is not None:
                results[i] = hit["result"]
                self.cache.hits += 1
            else:
                misses.append(i)
                self.cache.misses += 1

        if misses:
            work = [param_list[i] for i in misses]
            if self.processes > 1 and len(work) > 1:
                ctx = multiprocessing.get_context(self._mp_context)
                with ctx.Pool(min(self.processes, len(work))) as pool:
                    outs = pool.map(fn, work)
            else:
                outs = [fn(p) for p in work]
            for i, out in zip(misses, outs):
                results[i] = out
                self.cache.store(keys[i], param_list[i], out)
        return results

    def __repr__(self):
        return (f"ParallelRunner(processes={self.processes}, "
                f"cache_dir={self.cache_dir!r}, use_cache={self.use_cache})")
