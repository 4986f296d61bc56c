"""Documentation health: links, code blocks, docstrings, help strings.

Keeps the ``docs/`` tree honest from inside the tier-1 suite (the same
checks run standalone via ``tools/check_docs.py`` in the CI docs job):
broken intra-repo links and unparseable example code fail tests, every
public module states its role in a module docstring, and the CLI help
mentions the knob-composition rules the docs promise it does.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


class TestDocsTree:
    def test_expected_docs_exist(self):
        for name in ("architecture.md", "engines.md", "scenarios.md",
                     "campaigns.md", "observability.md"):
            assert (REPO_ROOT / "docs" / name).is_file(), name
        assert (REPO_ROOT / "README.md").is_file()

    @pytest.mark.parametrize(
        "path", check_docs.doc_files(), ids=lambda p: p.name
    )
    def test_links_resolve(self, path):
        assert check_docs.check_links(path) == []

    @pytest.mark.parametrize(
        "path", check_docs.doc_files(), ids=lambda p: p.name
    )
    def test_code_blocks_parse(self, path):
        assert check_docs.check_code_blocks(path) == []

    def test_checker_cli_passes_on_this_repo(self, capsys):
        assert check_docs.main() == 0
        assert "docs OK" in capsys.readouterr().out

    def test_checker_flags_broken_link_and_bad_block(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text(
            "[gone](missing.md)\n\n```python\ndef broken(:\n```\n"
            "\n```bash\nif then fi\n```\n"
        )
        # check_links reports relative to the repo root, so the fixture
        # file must live under it for the relative_to call to work.
        bad_in_repo = REPO_ROOT / "docs" / "_pytest_tmp_bad.md"
        bad_in_repo.write_text(bad.read_text())
        try:
            links = check_docs.check_links(bad_in_repo)
            blocks = check_docs.check_code_blocks(bad_in_repo)
        finally:
            bad_in_repo.unlink()
        assert len(links) == 1 and "broken link" in links[0]
        assert len(blocks) == 2


class TestModuleDocstrings:
    """Docstring audit: every public module states its role (satellite)."""

    PACKAGES = (
        "adversaries", "core", "sim", "campaign", "ratio", "search", "obs"
    )

    def modules(self):
        for package in self.PACKAGES:
            for path in sorted(
                (REPO_ROOT / "src" / "repro" / package).glob("*.py")
            ):
                yield path

    def test_every_module_has_a_meaningful_docstring(self):
        missing = []
        for path in self.modules():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstring = ast.get_docstring(tree)
            if not docstring or len(docstring.strip()) < 30:
                missing.append(str(path.relative_to(REPO_ROOT)))
        assert missing == [], f"modules without a real docstring: {missing}"

    def test_package_docstrings_state_invariants(self):
        for package in (
            "adversaries", "sim", "campaign", "ratio", "search", "obs"
        ):
            source = (
                REPO_ROOT / "src" / "repro" / package / "__init__.py"
            ).read_text(encoding="utf-8")
            docstring = ast.get_docstring(ast.parse(source)) or ""
            assert "nvariant" in docstring, (
                f"repro.{package} docstring should state its invariants"
            )


class TestCLIHelp:
    """The --help audit: knob composition rules are spelled out."""

    def test_campaign_subcommand_registered(self):
        from repro.cli import build_parser

        help_text = build_parser().format_help()
        assert "campaign" in help_text

    def test_sweep_help_mentions_composition(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "batched" not in help_text  # the flag is retired
        assert "--block-size" not in help_text  # retired too
        assert "--workers" in help_text
        assert "each sweep cell" in help_text  # composition rule wording
        assert "{reference,vectorized}" in help_text

    def test_campaign_run_help_mentions_resume_and_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "run", "--help"])
        help_text = capsys.readouterr().out
        assert "resume" in help_text or "resumed" in help_text
        assert "engine-invariant" in help_text

    def test_cli_module_docstring_documents_composition(self):
        import repro.cli

        assert "Knob composition" in repro.cli.__doc__
        assert "campaign" in repro.cli.__doc__
