"""Assemble the MkDocs staging tree and build the site strictly.

The committed markdown is written for GitHub browsing: pages under
``docs/`` reach the root pages with ``../README.md``-style links, and
the root README links back with ``docs/ARCHITECTURE.md``. MkDocs wants
every page under one ``docs_dir``. This script reconciles the two by
*staging*: it copies ``docs/*.md`` and the root pages into
``build/docs-src/`` (the ``docs_dir`` of ``mkdocs.yml``), rewrites the
repo-relative links to flat in-site links, drops the CI badge (a
repo-escaping GitHub URL), and runs ``mkdocs build --strict`` so any
remaining broken link fails the build — the CI docs job runs exactly
this script.

Two tables are *generated*, not hand-maintained: the
experiments-catalog block in ``docs/experiments.md`` (between the
``experiments-registry`` markers, rendered from
``repro.eval.experiments.experiment_registry()`` — the same source as
``python -m repro.eval --list-experiments --json``) and the
kernel-dispatch block in ``docs/kernels.md`` (between the
``kernel-registry`` markers, rendered from ``repro.api.KERNELS`` with
per-backend support probed through ``Backend.supports``). Both are
refreshed at staging time, and ``--sync-registry`` writes the fresh
tables back into the committed pages.

Usage:  python docs/build_site.py [--no-build] [--sync-registry]
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STAGING = REPO / "build" / "docs-src"

#: Root-level pages pulled into the site next to the docs/ pages.
ROOT_PAGES = ("README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md",
              "PAPERS.md")

_BADGE = re.compile(r"^.*\.\./\.\./actions/.*$", re.MULTILINE)
_REGISTRY_BLOCK = re.compile(
    r"<!-- experiments-registry:begin -->.*"
    r"<!-- experiments-registry:end -->",
    re.DOTALL)
_KERNEL_BLOCK = re.compile(
    r"<!-- kernel-registry:begin -->.*"
    r"<!-- kernel-registry:end -->",
    re.DOTALL)


def _import_repro(path):
    """Import a repro attribute with ``src/`` temporarily on the path."""
    sys.path.insert(0, str(REPO / "src"))
    try:
        module_name, attr = path.rsplit(".", 1)
        module = __import__(module_name, fromlist=[attr])
        return getattr(module, attr)
    finally:
        sys.path.pop(0)


def registry_table():
    """Render the experiments-registry markdown table.

    Sourced from the same emitter as
    ``python -m repro.eval --list-experiments --json``.
    """
    experiment_registry = _import_repro(
        "repro.eval.experiments.experiment_registry")
    lines = ["| id | experiment | output | claims |",
             "| --- | --- | --- | --- |"]
    for entry in experiment_registry():
        out = f"`{entry['output']}`" if entry["output"] else "—"
        lines.append(f"| `{entry['id']}` | {entry['name']} | {out} "
                     f"| {entry['claim_count']} |")
    return "\n".join(lines)


def kernel_table():
    """Render the kernel-dispatch registry markdown table.

    One row per :class:`repro.api.KernelSpec`; backend support is
    probed live through ``Backend.supports`` so the table can never
    disagree with what ``repro.api.run`` actually dispatches.
    """
    kernels = _import_repro("repro.api.KERNELS")
    list_backends = _import_repro("repro.api.list_backends")
    get_backend = _import_repro("repro.backends.get_backend")
    request_fields = _import_repro("repro.serve.protocol.request_fields")
    backends = {name: get_backend(name) for name in list_backends()}
    lines = ["| kernel | operands | result | variants | backends "
             "| serve request | operand rules |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for spec in kernels.values():
        operands = ", ".join(f"`{name}`" for name in spec.operands)
        support = " · ".join(name for name, backend in backends.items()
                             if backend.supports(spec.name))
        variants = "base · ssr · issr" if spec.has_variant else "—"
        # the per-kernel serve request schema is the shared fields plus
        # one workload.<operand> generator spec per operand
        workload = ", ".join(f"`{f}`" for f in request_fields(spec)
                             if f.startswith("workload."))
        rules = "; ".join(spec.operand_rules())
        lines.append(f"| `{spec.name}` | {operands} | {spec.result} "
                     f"| {variants} | {support} | {workload} | {rules} |")
    return "\n".join(lines)


def inject_registry(text):
    """Replace the marker block in experiments.md with a fresh table."""
    block = ("<!-- experiments-registry:begin -->\n"
             + registry_table()
             + "\n<!-- experiments-registry:end -->")
    if not _REGISTRY_BLOCK.search(text):
        raise SystemExit(
            "docs/experiments.md lost its experiments-registry markers")
    return _REGISTRY_BLOCK.sub(block, text)


def inject_kernels(text):
    """Replace the marker block in kernels.md with a fresh table."""
    block = ("<!-- kernel-registry:begin -->\n"
             + kernel_table()
             + "\n<!-- kernel-registry:end -->")
    if not _KERNEL_BLOCK.search(text):
        raise SystemExit(
            "docs/kernels.md lost its kernel-registry markers")
    return _KERNEL_BLOCK.sub(block, text)


def sync_registry():
    """Rewrite the committed generated blocks; returns the pages."""
    pages = []
    page = REPO / "docs" / "experiments.md"
    page.write_text(inject_registry(page.read_text()))
    pages.append(page)
    page = REPO / "docs" / "kernels.md"
    page.write_text(inject_kernels(page.read_text()))
    pages.append(page)
    return pages


def _rewrite(text):
    """Flatten repo-relative links for the single-directory site."""
    text = _BADGE.sub("", text)          # CI badge: escapes the repo
    text = text.replace("](../", "](")   # docs/ page -> root page
    text = text.replace("](docs/", "](")  # root page -> docs/ page
    return text


def stage():
    """Populate the staging docs_dir; returns its path."""
    if STAGING.exists():
        shutil.rmtree(STAGING)
    STAGING.mkdir(parents=True)
    for md in sorted((REPO / "docs").glob("*.md")):
        text = md.read_text()
        if md.name == "experiments.md":
            text = inject_registry(text)
        elif md.name == "kernels.md":
            text = inject_kernels(text)
        (STAGING / md.name).write_text(_rewrite(text))
    for name in ROOT_PAGES:
        (STAGING / name).write_text(_rewrite((REPO / name).read_text()))
    return STAGING


def build():
    """Run ``mkdocs build --strict`` against the staged tree."""
    subprocess.run(
        [sys.executable, "-m", "mkdocs", "build", "--strict"],
        cwd=REPO, check=True)
    return REPO / "build" / "site"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--sync-registry" in argv:
        for page in sync_registry():
            print(f"registry table refreshed in {page}")
        return 0
    stage()
    if "--no-build" in argv:
        print(f"staged {STAGING}")
        return 0
    site = build()
    print(f"site built at {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
