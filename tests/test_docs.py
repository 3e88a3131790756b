"""Documentation health: links resolve, docstring coverage holds.

The local half of the CI docs job: `tests/test_docs.py` runs in every
environment (no extra tools), while CI additionally lints
`repro.backends` / `repro.multicluster` with ruff's pydocstyle rules.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
DOC_FILES = sorted(
    list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md"))
)

#: Packages whose docstring coverage is enforced (satellite of ISSUE 2).
DOCUMENTED_PACKAGES = ("repro.backends", "repro.cluster", "repro.compiler",
                       "repro.formats", "repro.multicluster")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(md_path):
    for target in _LINK.findall(md_path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("md", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(md):
    missing = []
    for target in _relative_links(md):
        resolved = (md.parent / target).resolve()
        if not resolved.is_relative_to(REPO):
            continue  # repo-escaping GitHub URLs (e.g. the CI badge)
        if not resolved.exists():
            missing.append(target)
    assert not missing, f"{md.name}: broken relative links {missing}"


#: A Markdown path as ``src/`` names one (``docs/serve.md``, ``PAPERS.md``).
_MD_PATH = re.compile(r"[\w./-]+\.md\b")


def test_markdown_paths_named_in_src_exist():
    """Every ``*.md`` path a ``src/`` file names, in a docstring, comment
    or string, is a file of the repo, so a reader sent there finds it."""
    missing = [f"{py.relative_to(REPO)}: {name}"
               for py in sorted((REPO / "src").rglob("*.py"))
               for name in _MD_PATH.findall(py.read_text())
               if not (REPO / name).is_file()]
    assert not missing, f"named but missing: {missing}"


def test_architecture_doc_exists_and_linked():
    arch = REPO / "docs" / "ARCHITECTURE.md"
    assert arch.exists()
    readme = (REPO / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme


def test_readme_tier1_command_matches_pyproject():
    """The documented verify command must match the pytest config."""
    readme = (REPO / "README.md").read_text()
    assert "python -m pytest -x -q" in readme
    pyproject = (REPO / "pyproject.toml").read_text()
    assert 'testpaths = ["tests"]' in pyproject


def _walk_modules():
    for pkg_name in DOCUMENTED_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg_name, pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            name = f"{pkg_name}.{info.name}"
            yield name, importlib.import_module(name)


def test_module_docstrings_reference_the_paper():
    """Every module docstring exists and anchors to the paper (§/Fig)."""
    for name, module in _walk_modules():
        doc = module.__doc__
        assert doc and doc.strip(), f"{name} has no module docstring"
        assert "§" in doc or "Fig" in doc, \
            f"{name} docstring lacks a paper-section (§/Fig) reference"


def test_public_api_docstrings():
    """Public classes/functions/methods in the documented packages."""
    undocumented = []
    for name, module in _walk_modules():
        for attr_name, attr in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if not (inspect.isclass(attr) or inspect.isfunction(attr)):
                continue
            if getattr(attr, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their source
            if not (attr.__doc__ or "").strip():
                undocumented.append(f"{name}.{attr_name}")
            if inspect.isclass(attr):
                for m_name, member in vars(attr).items():
                    if m_name.startswith("_"):
                        continue
                    if not callable(member) and not isinstance(member, property):
                        continue
                    func = member.fget if isinstance(member, property) else member
                    if not (getattr(func, "__doc__", "") or "").strip():
                        undocumented.append(f"{name}.{attr_name}.{m_name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_root_package_declares_api():
    import repro

    assert "run_multicluster" in repro.__all__
    assert "get_backend" in repro.__all__
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)
