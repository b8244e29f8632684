"""No write-only state: every attribute ``src/repro`` stores is read.

An attribute that the program assigns but never reads is bookkeeping
nobody uses: it costs work on the path that writes it and memory for
as long as it lives, and it reads like a promise that something
depends on it. The scan below fails on any attribute name that is
stored anywhere under ``src/repro`` but never loaded in ``src/repro``,
``benchmarks/``, ``scripts/`` or ``examples/``. Tests do not count as
readers: state that only a test reads is not state the program uses.

What counts as a read of a name:

* an attribute load (``x.name``) anywhere in the scanned trees;
* a string constant equal to the name (``getattr(x, "name")``, a
  ``__slots__`` entry, a metric tag);
* a keyword argument of that name (``replace(x, name=...)``).

Blind spots, by construction of a name-level scan:

* a name that collides with a read elsewhere counts as read: the scan
  does not know which class an attribute belongs to, so a write-only
  ``sync_seconds`` on one class hides behind a read of
  ``result.sync_seconds`` on another;
* a container the code only appends to counts as read, because the
  ``append`` call loads it;
* a dataclass field written only through its constructor is not an
  attribute store and is not scanned.

Those cases were checked by hand when this guard went in (a write-only
``history_lsns`` list, ``wal_sync_seconds``, ``promotions``,
``sync_seconds``, the backends' ``options`` and the insert/delete
journal's sets all went with it).
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[2]

#: Trees whose stores are checked.
WRITERS = ("src/repro",)
#: Trees whose loads count as reads.
READERS = ("src/repro", "benchmarks", "scripts", "examples")

#: Names stored on purpose without a read in the scanned trees, each
#: with its reason.
ALLOWED = {
    # NumPy's read-only flag: ``array.flags.writeable = False`` is read
    # by NumPy itself, on every later write to the array.
    "writeable",
}


def stored_names(source: str) -> Set[str]:
    """Attribute names ``source`` assigns (``x.name = ...``,
    ``x.name += ...``, ``del`` excluded)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }


def read_names(source: str) -> Set[str]:
    """Names ``source`` reads: attribute loads, string constants and
    keyword argument names."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def python_files(trees) -> List[Path]:
    return [
        path for tree in trees for path in sorted((ROOT / tree).rglob("*.py"))
    ]


def write_only(
    writers: Dict[str, str], readers: Dict[str, str]
) -> Dict[str, List[str]]:
    """Stored-but-never-read names -> the files that store them, given
    ``{path: source}`` maps of the writing and reading trees."""
    read: Set[str] = set()
    for source in readers.values():
        read |= read_names(source)
    out: Dict[str, List[str]] = {}
    for path, source in writers.items():
        for name in stored_names(source) - read:
            out.setdefault(name, []).append(path)
    return out


def test_every_stored_attribute_is_read():
    writers = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in python_files(WRITERS)
    }
    readers = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in python_files(READERS)
    }
    offenders = {
        name: paths
        for name, paths in write_only(writers, readers).items()
        if name not in ALLOWED
    }
    assert offenders == {}


def test_every_allowlist_entry_is_still_stored():
    """An entry whose store is gone is dead weight: drop it."""
    stored: Set[str] = set()
    for path in python_files(WRITERS):
        stored |= stored_names(path.read_text(encoding="utf-8"))
    assert ALLOWED <= stored


def test_the_scan_sees_write_only_state():
    """The scan is not vacuous: a counter that is only bumped is
    caught, and each kind of read clears a name."""
    writer = (
        "class Shard:\n"
        "    def __init__(self):\n"
        "        self.bumps = 0\n"
        "        self.size = 0\n"
        "        self.label = ''\n"
        "        self.kind = ''\n"
        "        self.state = None\n"
        "    def bump(self):\n"
        "        self.bumps += 1\n"
    )
    reader = (
        "def show(shard):\n"
        "    print(shard.size, getattr(shard, 'label'))\n"
        "    return dict(kind=1)\n"
    )
    assert write_only({"w.py": writer}, {"r.py": reader}) == {
        "bumps": ["w.py"],
        "state": ["w.py"],
    }
    # The writing file is a reader too: a load there clears the name.
    both = writer + "    def get(self):\n        return self.state\n"
    assert write_only({"w.py": both}, {"w.py": both, "r.py": reader}) == {
        "bumps": ["w.py"],
    }
