"""The docs checker itself, plus the repo's docs passing it.

``scripts/check_docs.py`` backs the CI docs lane: fenced ``>>>``
examples in README.md and docs/*.md must run under doctest,
intra-repo links and backticked ``repro.…`` paths must resolve, and
source docstrings may only name markdown files that exist. These tests
pin the checker's behaviour on synthetic inputs and run the real
documentation through it so a drifted example fails tier-1 locally,
not just in CI.
"""

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


class TestCheckerMechanics:
    def test_fenced_block_extraction(self):
        text = "intro\n```pycon\n>>> 1 + 1\n2\n```\ntail\n"
        blocks = check_docs.fenced_blocks(text)
        assert len(blocks) == 1
        assert ">>> 1 + 1" in blocks[0][1]

    def test_passing_doctest(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text("```pycon\n>>> 2 * 21\n42\n```\n")
        assert check_docs.run_doctests(doc) == []

    def test_failing_doctest_reported(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("```pycon\n>>> 2 * 21\n41\n```\n")
        failures = check_docs.run_doctests(doc)
        assert failures
        assert any("doctest failure" in f for f in failures)

    def test_blocks_share_a_namespace(self, tmp_path):
        doc = tmp_path / "shared.md"
        doc.write_text(
            "```pycon\n>>> x = 5\n```\nprose\n```pycon\n>>> x + 1\n6\n```\n"
        )
        assert check_docs.run_doctests(doc) == []

    def test_broken_link_detected(self, tmp_path):
        doc = tmp_path / "links.md"
        doc.write_text("[gone](missing.md) and [ok](https://example.com)\n")
        problems = check_docs.check_links(doc)
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_titled_link_still_checked(self, tmp_path):
        doc = tmp_path / "titled.md"
        doc.write_text('[gone](missing.md "a title")\n')
        problems = check_docs.check_links(doc)
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_docstring_citing_missing_file_detected(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "HERE.md").write_text("# here\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            '"""See docs/HERE.md and HERE.md."""\n\n'
            'def f():\n    """Rationale in GONE.md."""\n'
        )
        problems = check_docs.check_docstring_citations(src, tmp_path)
        assert len(problems) == 1
        assert "GONE.md" in problems[0]

    def test_unresolved_reference_detected(self, tmp_path):
        if str(REPO_ROOT / "src") not in sys.path:
            sys.path.insert(0, str(REPO_ROOT / "src"))
        doc = tmp_path / "refs.md"
        doc.write_text(
            "Real: `repro.GPUTx`, `repro.gpu.spec.C1060` and\n"
            "`repro.cluster.elastic.COOLDOWN_BULKS`; gone:\n"
            "`repro.gpu.C1060`.\n\n"
            "* `repro.core.GPUTx` -> `repro.GPUTx` (a migration bullet)\n"
            "* a plain bullet naming `repro.core.TxnResult`\n\n"
            "Migration: `repro.core.ResultColumns` went.\n\n"
            "```\n`repro.core.Fenced`\n```\n"
        )
        assert check_docs.check_references(doc) == [
            f"{doc}:3: unresolved reference repro.gpu.C1060",
            f"{doc}:6: unresolved reference repro.core.TxnResult",
        ]

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.md"
        good.write_text("```pycon\n>>> 1\n1\n```\n")
        assert check_docs.main([str(good)]) == 0
        bad = tmp_path / "bad.md"
        bad.write_text("[x](nope.md)\n")
        assert check_docs.main([str(bad)]) == 1
        capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    ["README.md", "docs/ARCHITECTURE.md", "docs/BENCHMARKS.md"],
)
def test_repo_documentation_passes(doc, capsys):
    """The committed docs are executable and link-clean."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    assert check_docs.main([str(REPO_ROOT / doc)]) == 0
    capsys.readouterr()


def test_repo_docstrings_cite_existing_files():
    assert check_docs.check_docstring_citations(
        REPO_ROOT / "src" / "repro", REPO_ROOT
    ) == []
