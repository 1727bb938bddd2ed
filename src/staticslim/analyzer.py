"""Command token extraction from a project and its installed dependencies.

Walks the installed dependency tree, prefilters packages with a textual
exec-call pattern, resolves exec-family call arguments through the module
scanner, and tokenizes shell scripts. Everything runs offline against the
files on disk.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import jsmodule
from .errors import AnalysisError
from .shellwords import tokenize_script

log = logging.getLogger(__name__)

DEFAULT_SINKS = frozenset(
    {"exec", "execSync", "execFile", "execFileSync", "spawn", "spawnSync"}
)

_SOURCE_SUFFIXES = (".js", ".mjs", ".cjs")

PROVENANCE_EXEC = "exec-argument"
PROVENANCE_SHELL = "shell-script"
PROVENANCE_ENTRYPOINT = "entrypoint-script"


@dataclass
class PackageRef:
    name: str
    version: str
    root_dir: Path
    source_files: list[Path] = field(default_factory=list)
    is_root: bool = False


@dataclass
class TaintPath:
    """One resolved flow from a definition site into an exec-family argument.

    ``source_kind`` names where the resolved text originated: a variable
    declarator, a plain assignment, or a call expression (literal arguments
    and call-site parameter bindings both count as the latter).
    """

    source_kind: str  # variable-declarator | assignment | call-result
    source_location: str  # file:line
    steps: list[str]  # intermediate definition sites, source to sink
    sink_location: str  # file:line
    resolved_values: list[str]


@dataclass
class CommandToken:
    token: str
    provenance: str
    origin: str  # file:line

    def __post_init__(self):
        if not self.token or any(ch.isspace() for ch in self.token):
            raise ValueError(f"command token must be non-empty and whitespace-free: {self.token!r}")


@dataclass
class CommandTokenList:
    tokens: list[CommandToken] = field(default_factory=list)
    unresolved_sinks: list[str] = field(default_factory=list)

    def token_texts(self) -> list[str]:
        return [t.token for t in self.tokens]

    def add(self, token: str, provenance: str, origin: str) -> None:
        if any(t.token == token for t in self.tokens):
            return
        self.tokens.append(CommandToken(token=token, provenance=provenance, origin=origin))

    def write_text(self, path) -> None:
        Path(path).write_text("".join(t.token + "\n" for t in self.tokens))

    @staticmethod
    def read_text(path) -> "CommandTokenList":
        ctl = CommandTokenList()
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            word = line.strip()
            if word and not word.startswith("#"):
                ctl.add(word, PROVENANCE_EXEC, f"{path}:{lineno}")
        return ctl

    def report(self) -> dict:
        return {
            "tokens": [
                {"token": t.token, "provenance": t.provenance, "origin": t.origin}
                for t in self.tokens
            ],
            "unresolved_sinks": list(self.unresolved_sinks),
        }


def _read_manifest(pkg_dir: Path) -> dict:
    manifest = pkg_dir / "package.json"
    if not manifest.is_file():
        raise AnalysisError(f"no package manifest at {manifest}")
    try:
        return json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read {manifest}: {exc}") from exc


def _source_files(pkg_dir: Path) -> list[Path]:
    out = []
    for path in sorted(pkg_dir.rglob("*")):
        if "node_modules" in path.parts[len(pkg_dir.parts):]:
            continue
        if path.is_file() and path.suffix in _SOURCE_SUFFIXES:
            out.append(path)
    return out


def _find_installed(name: str, start_dir: Path, project_dir: Path) -> Path | None:
    """Resolve an installed dependency like the module loader would."""
    current = start_dir
    while True:
        candidate = current / "node_modules" / name
        if (candidate / "package.json").is_file():
            return candidate
        if current == project_dir or current == current.parent:
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
        is_root=True,
    )
    deps = dict(manifest.get("dependencies") or {})
    deps.update(manifest.get("devDependencies") or {})
    if deps and not (project_dir / "node_modules").is_dir():
        raise AnalysisError(
            f"{project_dir} declares dependencies but has no node_modules; "
            "install the project before analyzing it"
        )

    packages = [root]
    seen_dirs = {project_dir}
    queue: list[tuple[str, Path]] = [(name, project_dir) for name in sorted(deps)]
    while queue:
        name, wanted_by = queue.pop(0)
        found = _find_installed(name, wanted_by, project_dir)
        if found is None:
            log.warning("dependency %r of %s is not installed; skipped", name, wanted_by)
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
        for dep in sorted(pkg_manifest.get("dependencies") or {}):
            queue.append((dep, found))
    return packages


def exec_call_pattern(sink_names=DEFAULT_SINKS) -> re.Pattern:
    alternatives = "|".join(re.escape(s) for s in sorted(sink_names))
    return re.compile(rf"\b(?:{alternatives})\s*\(")


def filter_packages(packages: list[PackageRef], sink_names=DEFAULT_SINKS) -> list[PackageRef]:
    """Keep only packages whose sources textually mention an exec-family call.

    The pattern is a superset of the analyzer's sink grammar, so this filter
    never drops a package the analyzer could extract from. The project itself
    always survives.
    """
    pattern = exec_call_pattern(sink_names)
    kept = []
    for pkg in packages:
        if pkg.is_root:
            kept.append(pkg)
            continue
        for src in pkg.source_files:
            try:
                text = src.read_text(errors="replace")
            except OSError as exc:
                log.warning("cannot read %s: %s; skipped", src, exc)
                continue
            if pattern.search(text):
                kept.append(pkg)
                break
    return kept


def analyze_data_dependencies(package: PackageRef, sink_names=DEFAULT_SINKS) -> list[TaintPath]:
    """Resolve the command argument of every exec-family call in the package."""
    paths: list[TaintPath] = []
    sinks = frozenset(sink_names)
    for src in package.source_files:
        try:
            text = src.read_text(errors="replace")
        except OSError as exc:
            log.warning("cannot read %s: %s; skipped", src, exc)
            continue
        try:
            index = jsmodule.scan_module(str(src), text, sinks)
        except Exception as exc:  # a broken source must never abort the run
            log.warning("cannot parse %s: %s; skipped", src, exc)
            continue
        for call in index.calls:
            if call.callee not in sinks:
                continue
            sink_location = f"{src}:{call.line}"
            if not call.args:
                paths.append(
                    TaintPath(
                        source_kind="call-result",
                        source_location=sink_location,
                        steps=[],
                        sink_location=sink_location,
                        resolved_values=[],
                    )
                )
                continue
            enclosing = index.enclosing_function(call.token_index)
            res = jsmodule.resolve_expr(call.args[0], index, enclosing)
            values, _ = jsmodule.constant_fragments(res)
            if res.used_defs:
                first = res.used_defs[0]
                kind = "variable-declarator" if first.kind == "decl" else "assignment"
                source_location = f"{src}:{first.line}"
                steps = []
                for d in res.used_defs:
                    site = f"{src}:{d.line}"
                    if site not in steps:
                        steps.append(site)
            else:
                kind = "call-result"
                source_location = sink_location
                steps = []
            paths.append(
                TaintPath(
                    source_kind=kind,
                    source_location=source_location,
                    steps=steps,
                    sink_location=sink_location,
                    resolved_values=values,
                )
            )
    return paths


def find_shell_scripts(project_dir, include_dependencies: bool = False) -> list[Path]:
    """Shell scripts in the project folder plus any docker-entrypoint.sh."""
    project_dir = Path(project_dir)
    out = []
    for path in sorted(project_dir.rglob("*.sh")):
        inside_deps = "node_modules" in path.parts[len(project_dir.parts):]
        if inside_deps and not include_dependencies:
            continue
        out.append(path)
    return out


def extract_command_tokens(paths: list[TaintPath], shell_files: list[Path]) -> CommandTokenList:
    """Split resolved constants and shell script words into the token list."""
    ctl = CommandTokenList()
    for taint in paths:
        for value in taint.resolved_values:
            for word in value.split():
                ctl.add(word, PROVENANCE_EXEC, taint.sink_location)
        if not taint.resolved_values:
            ctl.unresolved_sinks.append(taint.sink_location)

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
    """Full step-one pipeline: dependency chain, filter, resolve, tokenize."""
    packages = enumerate_dependency_chain(project_dir)
    candidates = filter_packages(packages, sink_names)
    log.info(
        "analyzing %d of %d packages with exec-family calls",
        len(candidates),
        len(packages),
    )
    taint_paths: list[TaintPath] = []
    for pkg in candidates:
        taint_paths.extend(analyze_data_dependencies(pkg, sink_names))
    shell_files = find_shell_scripts(project_dir, include_dependency_scripts)
    return extract_command_tokens(taint_paths, shell_files)
