"""Command token extraction from a project and its installed dependencies.

Walks the installed dependency tree, reads each source file once, lexes
only files that textually contain an exec-family call (resolution is
intra-module, so no other file can contribute), and resolves the first
argument of each sink call through the module scanner to its constant
values. The one result is a command token list (CTL, defined in ``ctl``):
the words of those values, each with its sink call as origin, the sink
calls that yield no constant, and the words of the shell scripts.
Everything runs offline against the files on disk.
"""

from __future__ import annotations

import json
import logging
import os
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import jsmodule
from .ctl import PROVENANCE_ENTRYPOINT, PROVENANCE_EXEC, PROVENANCE_SHELL, CommandTokenList
from .errors import AnalysisError
from .shellwords import tokenize_script

log = logging.getLogger(__name__)

DEFAULT_SINKS = frozenset(
    {"exec", "execSync", "execFile", "execFileSync", "spawn", "spawnSync"}
)

_SOURCE_SUFFIXES = (".js", ".mjs", ".cjs")


@dataclass
class PackageRef:
    name: str
    version: str
    root_dir: Path
    source_files: list[Path] = field(default_factory=list)


def _read_manifest(pkg_dir: Path) -> dict:
    manifest = pkg_dir / "package.json"
    if not manifest.is_file():
        raise AnalysisError(f"no package manifest at {manifest}")
    try:
        data = json.loads(manifest.read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text, or not JSON
        raise AnalysisError(f"cannot read {manifest}: {exc}") from exc
    if not isinstance(data, dict):
        raise AnalysisError(f"{manifest}: not a JSON object")
    return data


def _dependency_names(pkg_dir: Path, manifest: dict, *fields: str) -> set[str]:
    """The package names under ``fields`` of a manifest read from ``pkg_dir``."""
    names: set[str] = set()
    for key in fields:
        deps = manifest.get(key) or {}
        if not isinstance(deps, dict):
            raise AnalysisError(f"{pkg_dir / 'package.json'}: {key!r} is not a JSON object")
        names.update(deps)
    return names


def _walk_files(
    top: Path, keep: Callable[[str], bool], include_dependencies: bool = False
) -> list[Path]:
    """Every file below ``top`` whose name passes ``keep``, in ``Path`` order.

    Installed ``node_modules`` trees are not entered unless
    ``include_dependencies`` is set. Broken symlinks are dropped. Paths are
    joined and sorted as strings; splitting on "/" gives the parts ``Path``
    compares, and only the files kept become ``Path`` objects.
    """
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        if not include_dependencies and "node_modules" in dirnames:
            dirnames.remove("node_modules")
        prefix = os.path.join(dirpath, "")
        found.extend(prefix + name for name in filenames if keep(name))
    found = [path for path in found if os.path.isfile(path)]
    found.sort(key=lambda path: path.split("/"))
    return [Path(path) for path in found]


def _is_source_name(name: str) -> bool:
    # ``Path.suffix`` of a name that is only a suffix, such as ".js", is "".
    return name.endswith(_SOURCE_SUFFIXES) and name not in _SOURCE_SUFFIXES


def _source_files(pkg_dir: Path) -> list[Path]:
    return _walk_files(pkg_dir, _is_source_name)


def _find_installed(name: str, start_dir: Path, project_dir: Path) -> Path | None:
    """Resolve an installed dependency like the module loader would.

    Only a package name is looked up: ``name`` or ``@scope/name``, with no
    part empty, ``.`` or ``..``, so the lookup stays inside a
    ``node_modules`` directory. Any other name, like a name that no
    ``node_modules`` holds, is warned about and gives None."""
    parts = name.removeprefix("@").split("/")
    if len(parts) != 1 + name.startswith("@") or any(p in ("", ".", "..") for p in parts):
        log.warning("dependency %r of %s is not a package name; skipped", name, start_dir)
        return None
    current = start_dir
    while True:
        candidate = current / "node_modules" / name
        if (candidate / "package.json").is_file():
            return candidate
        if current == project_dir or current == current.parent:
            log.warning("dependency %r of %s is not installed; skipped", name, start_dir)
            return None
        current = current.parent


def enumerate_dependency_chain(project_dir) -> list[PackageRef]:
    """The project plus every transitively installed package, each once."""
    project_dir = Path(project_dir).resolve()
    manifest = _read_manifest(project_dir)

    root = PackageRef(
        name=manifest.get("name") or project_dir.name,
        version=manifest.get("version") or "0.0.0",
        root_dir=project_dir,
        source_files=_source_files(project_dir),
    )
    deps = _dependency_names(project_dir, manifest, "dependencies", "devDependencies")
    if deps and not (project_dir / "node_modules").is_dir():
        raise AnalysisError(
            f"{project_dir} declares dependencies but has no node_modules; "
            "install the project before analyzing it"
        )

    packages = [root]
    seen_dirs = {project_dir}
    queue = deque((name, project_dir) for name in sorted(deps))
    while queue:
        name, wanted_by = queue.popleft()
        found = _find_installed(name, wanted_by, project_dir)
        if found is None:
            continue
        found = found.resolve()
        if found in seen_dirs:
            continue
        seen_dirs.add(found)
        pkg_manifest = _read_manifest(found)
        packages.append(
            PackageRef(
                name=pkg_manifest.get("name") or name,
                version=pkg_manifest.get("version") or "0.0.0",
                root_dir=found,
                source_files=_source_files(found),
            )
        )
        for dep in sorted(_dependency_names(found, pkg_manifest, "dependencies")):
            queue.append((dep, found))
    return packages


# Whitespace and comments may part a callee from its "(". Each alternative
# matches a given gap one way only, so a bare sink name followed by many
# comments cannot make the search backtrack exponentially.
_CALL_GAP = r"(?:\s|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|//[^\n]*\n)*"


def exec_call_pattern(sink_names=DEFAULT_SINKS) -> re.Pattern:
    """Text the module scanner may lex as a sink call: a sink name not glued to
    a preceding ASCII identifier or number character (``\\b`` would miss
    ``½exec(``, which the scanner lexes as a call), a gap, then ``(``.

    This pattern alone decides which files get lexed; ``sink_gate`` tries it
    only where a sink name occurs. The lookbehind that opens it keeps ``re``
    from scanning for a literal prefix, so a search would try every position
    of the text. An empty sink set matches nothing.
    """
    alternatives = "|".join(re.escape(s) for s in sorted(sink_names)) or "(?!)"
    return re.compile(rf"(?<![A-Za-z0-9_$])(?:{alternatives}){_CALL_GAP}\(")


def sink_gate(sink_names=DEFAULT_SINKS) -> Callable[[str], bool]:
    """Whether ``exec_call_pattern(sink_names)`` matches a text, tested cheaply.

    The pattern is tried only where a sink name can start: at each
    occurrence of a sink literal, found by a substring scan, less the offset
    of that literal in a sink name. The literals are the sink names that
    contain no other sink name (``exec`` and ``spawn`` for
    ``DEFAULT_SINKS``, each at offset 0). The test is exact, not a
    heuristic: every match of the pattern starts with a sink name, every
    sink name holds a literal at one of those offsets, and the lookbehind
    that opens the pattern reads the text before the position it is tried
    at, as a search would.
    """
    literals = [s for s in sink_names if not any(o != s and o in s for o in sink_names)]
    starts = sorted({(lit, k) for lit in literals for s in sink_names
                     for k in range(len(s)) if s.startswith(lit, k)})
    match = exec_call_pattern(sink_names).match

    def gate(text: str) -> bool:
        for literal, offset in starts:
            found = text.find(literal, offset)
            while found >= 0:
                if match(text, found - offset):
                    return True
                found = text.find(literal, found + 1)
        return False

    return gate


def _sink_values(path: str, text: str, sinks: frozenset[str]) -> list[tuple[str, list[str]]]:
    """One ``(path:line, values)`` pair per sink call of a module, in call order."""
    index = jsmodule.scan_module(path, text, sinks)
    pairs = []
    for call in index.calls:
        if call.callee not in sinks:
            continue
        values = []
        if call.args:
            enclosing = index.enclosing_function(call.token_index)
            variants = jsmodule.resolve_expr(call.args[0], index, enclosing)
            values = jsmodule.constant_fragments(variants)
        pairs.append((f"{path}:{call.line}", values))
    return pairs


def _resolve_sources(
    files: list[Path], sinks: frozenset[str]
) -> tuple[list[tuple[str, list[str]]], int]:
    """The constant values of every sink call in ``files``, and how many files
    were lexed.

    Each sink call gives one ``(file:line, values)`` pair, in file and call
    order: the constant strings its first argument resolves to (none when it
    has no argument or resolves to nothing constant). Each file is read
    once. Only files that match ``exec_call_pattern`` are lexed: resolution
    never looks beyond the file's own module index, so any other file cannot
    add a pair. The test is ``sink_gate``. A file that fails to scan or
    resolve adds no pair; its index, which holds its tokens, is gone before
    the next file is read.
    """
    gate = sink_gate(sinks)
    resolved: list[tuple[str, list[str]]] = []
    lexed = 0
    for src in files:
        try:
            text = src.read_text(errors="replace")
        except OSError as exc:
            log.warning("cannot read %s: %s; skipped", src, exc)
            continue
        if not gate(text):
            continue
        lexed += 1
        try:
            resolved.extend(_sink_values(str(src), text, sinks))
        except Exception as exc:  # a broken source must never abort the run
            log.warning("cannot parse %s: %s; skipped", src, exc)
    return resolved, lexed


def find_shell_scripts(project_dir, include_dependencies: bool = False) -> list[Path]:
    """Every ``.sh`` file below the project folder, in path order.

    Scripts inside installed ``node_modules`` trees are included only with
    ``include_dependencies``.
    """
    return _walk_files(Path(project_dir), lambda name: name.endswith(".sh"), include_dependencies)


# Deletes the quote characters of a string (str.translate).
_NO_QUOTES = str.maketrans("", "", "'\"")


def extract_command_tokens(
    resolved: list[tuple[str, list[str]]], shell_files: list[Path]
) -> CommandTokenList:
    """Split resolved constants and shell script words into the token list.

    ``resolved`` holds one ``(sink location, values)`` pair per sink call;
    a sink with no value is listed in ``unresolved_sinks``. Quote characters
    are shell syntax, not part of a command, so they are taken out of each
    value before it is split on whitespace.
    """
    ctl = CommandTokenList()
    for sink_location, values in resolved:
        for value in values:
            for word in value.translate(_NO_QUOTES).split():
                ctl.add(word, PROVENANCE_EXEC, sink_location)
        if not values:
            ctl.unresolved_sinks.append(sink_location)

    for shell_file in shell_files:
        shell_file = Path(shell_file)
        provenance = (
            PROVENANCE_ENTRYPOINT
            if shell_file.name == "docker-entrypoint.sh"
            else PROVENANCE_SHELL
        )
        try:
            text = shell_file.read_text(errors="replace")
        except OSError as exc:
            log.warning("cannot read %s: %s; skipped", shell_file, exc)
            continue
        words = tokenize_script(text)
        for word, line in words.tokens:
            ctl.add(word, provenance, f"{shell_file}:{line}")
    return ctl


def analyze_project(
    project_dir,
    sink_names=DEFAULT_SINKS,
    include_dependency_scripts: bool = False,
) -> CommandTokenList:
    """Full step-one pipeline: dependency chain, gated resolve, tokenize."""
    packages = enumerate_dependency_chain(project_dir)
    sources = [src for pkg in packages for src in pkg.source_files]
    resolved, lexed = _resolve_sources(sources, frozenset(sink_names))
    log.info("lexed %d of %d source files", lexed, len(sources))
    shell_files = find_shell_scripts(project_dir, include_dependency_scripts)
    return extract_command_tokens(resolved, shell_files)
