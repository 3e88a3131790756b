"""Persistent cross-process hints for lowering the §III kernel programs.

:func:`repro.compiler.lower` memoizes lowered programs in the shared
in-process :data:`~repro.kernels.common.PROGRAM_CACHE`, so each
distinct program lowers once *per process* — but a freshly forked or
respawned serve worker starts with that cache empty and walks the
template set again. This module spills each successful match's
*identity* — ``(family, variant, index_bits)`` keyed by the program's
normalized instruction stream (its ``fingerprint`` here) — to disk, so
a cold process can rebuild the exact candidate, verify it by
normalized-stream comparison, and skip the walk.

Soundness is unchanged: a disk entry is only ever a *hint*. The hinted
candidate is rebuilt canonically and compared by normalized
instruction stream exactly like any walked candidate; a stale or
corrupt entry simply falls through to the walk. Entries are
versioned by ``git describe`` (:func:`repro.eval.parallel.code_version`)
and written atomically (temp file + ``os.replace``, the ``.csrbin``
discipline), so torn writes and cross-version reuse are impossible.

The cache directory defaults to ``<point-cache-dir>/kernels`` (shared
with the :class:`~repro.eval.parallel.PointCache` tree); set
``REPRO_KERNEL_CACHE_DIR`` to relocate it or ``REPRO_KERNEL_CACHE=0``
to disable persistence entirely.
"""

import hashlib
import json
import os

#: Entry schema version (bump on layout changes).
SCHEMA = 1

#: Environment switches.
DIR_ENV = "REPRO_KERNEL_CACHE_DIR"
DISABLE_ENV = "REPRO_KERNEL_CACHE"


def enabled():
    """False when persistence is switched off via ``REPRO_KERNEL_CACHE=0``."""
    return os.environ.get(DISABLE_ENV, "1") != "0"


def cache_dir(base=None):
    """The kernel-cache directory (not created until first store)."""
    if base is not None:
        return base
    override = os.environ.get(DIR_ENV)
    if override:
        return override
    from repro.eval.parallel import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

    root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
    return os.path.join(root, "kernels")


def _entry_path(fingerprint, base=None):
    digest = hashlib.sha256(str(fingerprint).encode()).hexdigest()[:32]
    return os.path.join(cache_dir(base), f"{digest}.json")


def load(fingerprint, base=None):
    """The stored identity hint for ``fingerprint``, or None.

    Returns ``(family, variant, index_bits)`` when a valid entry for
    the current code version exists. Unreadable, mistyped, or
    version-mismatched entries are misses — never errors.
    """
    if not enabled():
        return None
    from repro.eval.parallel import code_version

    try:
        with open(_entry_path(fingerprint, base)) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("schema") != SCHEMA:
        return None
    if entry.get("version") != code_version():
        return None
    if entry.get("fingerprint") != str(fingerprint):
        return None
    try:
        family = entry["family"]
        variant = entry["variant"]
        index_bits = int(entry["index_bits"])
    except (KeyError, TypeError, ValueError):
        return None
    return (family, variant, index_bits)


def store(fingerprint, family, variant, index_bits, base=None):
    """Persist one match identity (atomic temp+rename; best-effort)."""
    if not enabled():
        return False
    from repro.eval.parallel import code_version

    path = _entry_path(fingerprint, base)
    entry = {
        "schema": SCHEMA,
        "version": code_version(),
        "fingerprint": str(fingerprint),
        "family": family,
        "variant": variant,
        "index_bits": int(index_bits),
    }
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except OSError:
        return False  # persistence is best-effort; never fail a lowering
    return True


def entries(base=None):
    """Every valid entry identity on disk, for warm starts.

    Yields ``(family, variant, index_bits)`` tuples for the current
    code version; invalid files are skipped silently.
    """
    if not enabled():
        return
    from repro.eval.parallel import code_version

    version = code_version()
    try:
        names = sorted(os.listdir(cache_dir(base)))
    except OSError:
        return
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(cache_dir(base), name)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            continue
        if (isinstance(entry, dict) and entry.get("schema") == SCHEMA
                and entry.get("version") == version):
            try:
                yield (entry["family"], entry["variant"],
                       int(entry["index_bits"]))
            except (KeyError, TypeError, ValueError):
                continue


def warm(base=None):
    """Pre-lower every cached kernel identity in this process.

    A respawned serve worker calls this at startup so every program
    the service has lowered before is warm before the first batch
    arrives. Returns the number of kernels lowered. Unknown families
    or stale identities are skipped — warm-start can only add cache
    entries, never fail.
    """
    from repro.compiler.templates import _template_families, lower
    from repro.kernels.common import VARIANTS

    families = _template_families()
    warmed = 0
    for family, variant, index_bits in entries(base):
        build = families.get(family)
        if build is None or variant not in VARIANTS or \
                index_bits not in (16, 32):
            continue
        try:
            program, _meta = build(variant, index_bits)
            lower(program, family_hint=family)
        except Exception:  # noqa: BLE001 - warm is additive, never fatal
            continue
        warmed += 1
    return warmed
