"""MkDocs site health: coverage of the reference pages + strict build.

The coverage tests run everywhere (no extra tools); the actual
``mkdocs build --strict`` is exercised when mkdocs is installed —
locally optional, mandatory in the CI docs job (which installs it).
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _load_build_site():
    spec = importlib.util.spec_from_file_location(
        "build_site", DOCS / "build_site.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_reference_covers_all_exported_kernels():
    """Acceptance: every `repro.kernels.__all__` entry is documented."""
    import repro.kernels as kernels

    page = (DOCS / "kernels.md").read_text()
    missing = [name for name in kernels.__all__ if name not in page]
    assert not missing, f"kernels.md misses {missing}"


def test_experiments_catalog_covers_the_registry():
    from repro.eval.experiments import EXPERIMENTS

    page = (DOCS / "experiments.md").read_text()
    missing = [eid for eid in EXPERIMENTS if eid not in page]
    assert not missing, f"experiments.md misses {missing}"


def test_committed_registry_table_is_fresh():
    """The experiments.md registry block matches the live registry.

    Regenerate with ``python docs/build_site.py --sync-registry``.
    """
    build_site = _load_build_site()
    page = (DOCS / "experiments.md").read_text()
    assert build_site.inject_registry(page) == page, \
        "docs/experiments.md registry table is stale — run " \
        "`python docs/build_site.py --sync-registry`"


def test_committed_kernel_table_is_fresh():
    """The kernels.md dispatch block matches the live kernel registry.

    Regenerate with ``python docs/build_site.py --sync-registry``.
    """
    build_site = _load_build_site()
    page = (DOCS / "kernels.md").read_text()
    assert build_site.inject_kernels(page) == page, \
        "docs/kernels.md kernel table is stale — run " \
        "`python docs/build_site.py --sync-registry`"


def test_registry_table_matches_cli_json():
    """One emitter behind both the docs table and the CLI JSON."""
    from repro.eval.experiments import experiment_registry

    build_site = _load_build_site()
    table = build_site.registry_table()
    for entry in experiment_registry():
        assert f"`{entry['id']}`" in table
        if entry["output"]:
            assert entry["output"] in table


def test_mkdocs_nav_files_exist_after_staging():
    """Every nav entry of mkdocs.yml resolves in the staged tree."""
    build_site = _load_build_site()
    staging = build_site.stage()
    try:
        config = (REPO / "mkdocs.yml").read_text()
        for line in config.splitlines():
            line = line.strip()
            if line.startswith("- ") and ".md" in line:
                page = line.split(":")[-1].strip()
                assert (staging / page).exists(), f"nav page {page} missing"
        # the staged copies must not retain repo-relative escapes, and
        # every internal markdown link must resolve in the flat tree —
        # the local approximation of `mkdocs build --strict`
        import re

        link = re.compile(r"\]\(([^)\s]+)\)")
        for md in staging.glob("*.md"):
            text = md.read_text()
            assert "](../" not in text, f"{md.name} keeps ../ links"
            assert "](docs/" not in text, f"{md.name} keeps docs/ links"
            for target in link.findall(text):
                if target.startswith(("http://", "https://", "mailto:",
                                      "#")):
                    continue
                target = target.split("#", 1)[0]
                if target.endswith(".md"):
                    assert (staging / target).exists(), \
                        f"{md.name}: broken staged link {target}"
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@pytest.mark.skipif(importlib.util.find_spec("mkdocs") is None,
                    reason="mkdocs not installed (CI docs job installs it)")
def test_mkdocs_build_strict():
    """The full strict build: any broken in-site link fails."""
    build_site = _load_build_site()
    build_site.stage()
    site = build_site.build()
    assert (site / "index.html").exists()
    assert (site / "kernels" / "index.html").exists()


def test_build_site_is_runnable_as_script():
    """CI invokes `python docs/build_site.py`; keep it import-clean."""
    module = _load_build_site()
    assert callable(module.main)
    assert sys.executable  # the script shells out through sys.executable
