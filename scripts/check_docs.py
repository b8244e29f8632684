#!/usr/bin/env python
"""Keep the documentation executable and internally consistent.

Three checks over ``README.md`` and ``docs/*.md``, and one over the
docstrings of ``src/repro``:

1. **Doctests** -- every fenced code block containing ``>>>`` examples
   is run through :mod:`doctest` (ELLIPSIS and NORMALIZE_WHITESPACE
   enabled; blocks of one file share a namespace, so a later block can
   reuse an earlier block's variables). Examples in the docs are
   therefore guaranteed to run against the current API.
2. **Intra-repo links** -- every relative markdown link target must
   exist on disk (http(s)/mailto/anchor links are skipped), so a
   renamed file breaks CI instead of leaving dead links.
3. **Dotted references** -- every backticked ``repro.…`` path must
   resolve: its longest importable prefix is imported and the rest is
   looked up with ``getattr``, so a doc cannot name a path that is
   gone. A migration note is exempt, since naming the old path is its
   point: a paragraph starting ``Migration:`` or a bullet containing
   ``->``. Fenced code blocks are left to the doctests.
4. **Docstring citations** (default run only, not with explicit
   ``files``) -- every ``*.md`` file a docstring under ``src/repro``
   names must exist in the repo, so source comments cannot keep
   pointing at a document that was never written or was deleted.

Usage::

    PYTHONPATH=src python scripts/check_docs.py [files...]

Exit status 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import ast
import doctest
import glob
import importlib
import re
import sys
from pathlib import Path
from typing import List, Tuple

_FENCE = re.compile(r"^```")
#: Markdown link target, with or without an optional "title" part.
_LINK = re.compile(r"\[[^\]\[]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
_OPTIONFLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
#: A markdown file named in prose, with or without a directory part.
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
#: A backticked dotted path into the package.
_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)")
#: The first line of a list item.
_BULLET = re.compile(r"^\s*(?:[-*+]|\d+\.)\s")


def fenced_blocks(text: str) -> List[Tuple[int, str]]:
    """(first line number, body) of every fenced code block."""
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if _FENCE.match(lines[i]):
            start = i + 1
            i += 1
            body: List[str] = []
            while i < len(lines) and not _FENCE.match(lines[i]):
                body.append(lines[i])
                i += 1
            blocks.append((start + 1, "\n".join(body)))
        i += 1
    return blocks


def run_doctests(path: Path) -> List[str]:
    """Run every ``>>>`` block of ``path``; return failure messages."""
    failures: List[str] = []
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(
        optionflags=_OPTIONFLAGS, verbose=False
    )
    globs: dict = {}
    for lineno, body in fenced_blocks(path.read_text(encoding="utf-8")):
        if ">>>" not in body:
            continue
        test = parser.get_doctest(
            body, globs, name=f"{path}:{lineno}", filename=str(path),
            lineno=lineno,
        )
        result = runner.run(test, out=failures.append, clear_globs=False)
        if result.failed:
            failures.append(
                f"{path}:{lineno}: {result.failed} doctest failure(s)"
            )
        globs = test.globs  # share state with later blocks of the file
    return failures


def check_links(path: Path) -> List[str]:
    """Relative link targets of ``path`` that do not exist on disk."""
    problems = []
    for match in _LINK.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path}: broken link -> {target}")
    return problems


def prose_units(text: str) -> List[Tuple[int, str]]:
    """(first line number, text) of every paragraph and list item
    outside fenced code blocks; a list item runs to the next item or
    blank line."""
    units: List[Tuple[int, str]] = []
    current: List[str] = []
    start = 0
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        fence = bool(_FENCE.match(line))
        in_fence ^= fence
        prose = not (fence or in_fence or not line.strip())
        if not prose or _BULLET.match(line):
            if current:
                units.append((start, "\n".join(current)))
            current = []
        if not prose:
            continue
        if not current:
            start = lineno
        current.append(line)
    if current:
        units.append((start, "\n".join(current)))
    return units


def resolves(reference: str) -> bool:
    """Whether a dotted ``repro.…`` path names something that exists."""
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def check_references(path: Path) -> List[str]:
    """Backticked ``repro.…`` paths of ``path`` that do not resolve,
    outside migration notes."""
    problems = []
    for lineno, unit in prose_units(path.read_text(encoding="utf-8")):
        if unit.lstrip().startswith("Migration:") or (
            _BULLET.match(unit) and "->" in unit
        ):
            continue
        for match in _REFERENCE.finditer(unit):
            if not resolves(match.group(1)):
                line = lineno + unit.count("\n", 0, match.start())
                problems.append(
                    f"{path}:{line}: unresolved reference {match.group(1)}"
                )
    return problems


def check_docstring_citations(src_root: Path, repo_root: Path) -> List[str]:
    """``*.md`` names in docstrings under ``src_root`` that match no
    markdown file of the repo (by trailing path components)."""
    known = [
        "/" + rel.as_posix()
        for rel in (p.relative_to(repo_root) for p in repo_root.rglob("*.md"))
        if not rel.parts[0].startswith(".")  # .git, tool caches
    ]
    problems = []
    for source in sorted(src_root.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef,
                 ast.AsyncFunctionDef),
            ):
                continue
            for name in _MD_NAME.findall(ast.get_docstring(node) or ""):
                wanted = "/" + name.lstrip("./")
                if not any(path.endswith(wanted) for path in known):
                    problems.append(
                        f"{source}: docstring cites missing file {name}"
                    )
    return problems


def main(argv: List[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    problems: List[str] = []
    if argv:
        files = [Path(a) for a in argv]
    else:
        problems.extend(
            check_docstring_citations(repo_root / "src" / "repro", repo_root)
        )
        files = [repo_root / "README.md"] + sorted(
            Path(p) for p in glob.glob(str(repo_root / "docs" / "*.md"))
        )
    checked_examples = 0
    for path in files:
        if not path.exists():
            problems.append(f"{path}: file not found")
            continue
        failures = run_doctests(path)
        problems.extend(failures)
        checked_examples += sum(
            1 for _ln, body in fenced_blocks(path.read_text()) if ">>>" in body
        )
        problems.extend(check_links(path))
        problems.extend(check_references(path))
    for problem in problems:
        print(problem)
    print(
        f"checked {len(files)} file(s), {checked_examples} doctest "
        f"block(s): {'FAIL' if problems else 'ok'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
