"""Reference package-tree walk that builds and stats a ``Path`` per file.

It is the oracle for ``staticslim.analyzer``'s string-based walk: both must
list the same source files and shell scripts in the same order. The code is
the walk the analyzer used before it joined, filtered and sorted names as
strings.
"""

from __future__ import annotations

import os
from pathlib import Path

SOURCE_SUFFIXES = (".js", ".mjs", ".cjs")


def walk_files(top: Path, include_dependencies: bool = False) -> list[Path]:
    """Every file below ``top`` in ``Path`` order.

    Installed ``node_modules`` trees are not entered unless
    ``include_dependencies`` is set. Broken symlinks are dropped.
    """
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        if not include_dependencies and "node_modules" in dirnames:
            dirnames.remove("node_modules")
        found.extend(Path(dirpath, name) for name in filenames)
    return sorted(path for path in found if path.is_file())


def source_files(pkg_dir: Path) -> list[Path]:
    return [path for path in walk_files(pkg_dir) if path.suffix in SOURCE_SUFFIXES]


def shell_scripts(project_dir: Path, include_dependencies: bool = False) -> list[Path]:
    return [
        path
        for path in walk_files(Path(project_dir), include_dependencies)
        if path.name.endswith(".sh")
    ]
