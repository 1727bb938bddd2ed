"""Command-line entry points: analyze, slim, inspect.

The options are parsed with the standard library's ``argparse``, so the
CLI has no dependency outside it. ``main`` holds each command's options
and function and builds the parser when it is called, not at import.

Each command loads only the stages it runs: it imports them in its own
body, so ``analyze`` never loads the image codec, the ELF parser or
hashlib, and ``inspect`` never loads the JavaScript analysis. ``slim``
loads the analysis only to analyze ``--project``: with ``--ctl`` it reads
the file through the CTL module (``ctl``) alone. A command
looks its stage functions up on their modules when it runs, so a function
patched on its module is the one called.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import stat
import sys
from pathlib import Path

from .errors import AnalysisError, PruneConsistencyError, SlimError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_ANALYSIS = 4
EXIT_PRUNE = 5


class Command:
    """One subcommand: the function it runs and its options, each the
    arguments of one ``ArgumentParser.add_argument`` call."""

    def __init__(self, callback, options: tuple[tuple[tuple, dict], ...]):
        self.callback = callback
        self.help = callback.__doc__
        self.options = options


class Group:
    """The ``staticslim`` command line: ``-v`` and one of ``commands``."""

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, Command] = {}

    def command(self, *options: tuple[tuple, dict]):
        """Register the decorated function as the command of its name."""
        def register(callback):
            self.commands[callback.__name__] = Command(callback, options)
            return callback
        return register

    def _parser(self, prog_name: str | None) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(prog=prog_name, description=self.description, allow_abbrev=False)
        parser.add_argument("-v", "--verbose", action="store_true", help="Enable debug logging.")
        commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for name, command in self.commands.items():
            sub = commands.add_parser(name, help=command.help, description=command.help,
                                      allow_abbrev=False)
            for flags, kwargs in command.options:
                sub.add_argument(*flags, **kwargs)
        return parser

    def main(self, args=None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
        """Parse ``args`` (``sys.argv[1:]`` when None) and run the command
        they name; a usage error exits 2. With ``standalone_mode`` every run
        ends in ``sys.exit``: 0 on success, 1 on an interrupt or a closed
        standard output. Without it a success returns and a failure raises
        ``SystemExit``."""
        options = vars(self._parser(prog_name).parse_args(args))
        callback = self.commands[options.pop("command")].callback
        logging.basicConfig(
            level=logging.DEBUG if options.pop("verbose") else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        if not standalone_mode:
            callback(**options)
            return
        try:
            callback(**options)
            sys.stdout.flush()  # a reader that went away shows here, not at exit
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)
        except BrokenPipeError:
            # Point the descriptor at /dev/null so that the flush at exit
            # cannot fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        sys.exit(EXIT_OK)

    __call__ = main


def option(*flags: str, **kwargs) -> tuple[tuple, dict]:
    """One option of a command, as ``ArgumentParser.add_argument`` takes it."""
    return flags, kwargs


def _path(kind: str, must_exist: bool):
    """An argparse type for the path of a ``kind`` ("file" or "directory"):
    the path as given, refused when it does not exist (if it must) and when
    it is of the other kind."""
    other, is_other = ("directory", stat.S_ISDIR) if kind == "file" else ("file", stat.S_ISREG)

    def check(value: str) -> str:
        try:
            mode = os.stat(value).st_mode
        except OSError:
            if must_exist:
                raise argparse.ArgumentTypeError(f"{kind} {value!r} does not exist") from None
            return value
        if is_other(mode):
            raise argparse.ArgumentTypeError(f"{kind} {value!r} is a {other}")
        return value
    return check


_DIRECTORY = _path("directory", must_exist=True)
_INPUT_FILE = _path("file", must_exist=True)
_OUTPUT_FILE = _path("file", must_exist=False)

main = Group("Slim container images from what the project source actually runs.")


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _parse_list(value: str | None, default) -> tuple:
    if not value:
        return tuple(default)
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _check_output_dirs(*outputs: tuple[str, str | None]) -> None:
    """Exit 4 when the directory of a named output does not exist."""
    for name, path in outputs:
        if path and not Path(path).parent.is_dir():
            _fail(EXIT_ANALYSIS, f"{name}: no such directory: {Path(path).parent}")


def _report_unresolved(ctl, strict: bool) -> None:
    """Warn of each unresolved exec argument of ``ctl``; with ``strict``,
    exit 4 when there is one."""
    for sink in ctl.unresolved_sinks:
        print(f"warning: unresolved exec argument at {sink}", file=sys.stderr)
    if strict and ctl.unresolved_sinks:
        _fail(EXIT_ANALYSIS, f"{len(ctl.unresolved_sinks)} unresolved exec argument(s): "
              + ", ".join(ctl.unresolved_sinks))


@main.command(
    option("--project", required=True, type=_DIRECTORY),
    option("--output", "-o", type=_OUTPUT_FILE, help="Write the CTL here (one token per line)."),
    option("--report", type=_OUTPUT_FILE, help="Write the JSON analysis report here."),
    option("--sinks", help="Comma-separated exec-family sink names."),
    option("--include-dep-scripts", action="store_true",
           help="Also tokenize shell scripts inside installed dependencies."),
    option("--strict", action="store_true", help="Fail when any exec argument stays unresolved."),
)
def analyze(project, output, report, sinks, include_dep_scripts, strict) -> None:
    """Extract the command token list from a project directory."""
    from . import analyzer

    _check_output_dirs(("--output", output), ("--report", report))
    sink_names = frozenset(_parse_list(sinks, analyzer.DEFAULT_SINKS))
    try:
        ctl = analyzer.analyze_project(
            project, sink_names, include_dependency_scripts=include_dep_scripts
        )
    except AnalysisError as exc:
        _fail(EXIT_ANALYSIS, str(exc))
        return

    if output:
        ctl.write_text(output)
    if report:
        Path(report).write_text(json.dumps(ctl.report(), indent=2, sort_keys=True))

    if not ctl.tokens:
        print("warning: no command tokens extracted", file=sys.stderr)
    else:
        print(f"{len(ctl.tokens)} tokens extracted", file=sys.stderr)
    _report_unresolved(ctl, strict)
    if not output:
        for token in ctl.token_texts():
            print(token)


@main.command(
    option("--input", dest="input_path", required=True, type=_INPUT_FILE),
    option("--output", dest="output_path", required=True, type=_OUTPUT_FILE),
    option("--project", type=_DIRECTORY, help="Project to analyze for the CTL."),
    option("--ctl", dest="ctl_path", type=_INPUT_FILE, help="Use a prebuilt CTL file instead of analyzing."),
    option("--strict", dest="mode", action="store_const", const="strict",
           help="Abort on unresolved exec arguments."),
    option("--conservative", dest="mode", action="store_const", const="conservative",
           help="Keep the full rootfs (no pruning)."),
    option("--format", dest="layout", choices=("oci", "docker"), default="oci",
           help="Layout of the slim image (default: %(default)s)."),
    option("--gzip", dest="gzip_layer", action="store_true", help="Gzip the rootfs layer (OCI output only)."),
    option("--report", type=_OUTPUT_FILE, help="Write the JSON prune report here."),
    option("--search-dirs", help="Comma-separated command search directories."),
    option("--sinks", help="Comma-separated exec-family sink names."),
    option("--dump-cll", type=_OUTPUT_FILE, help="Write the command linked list debug dump here."),
    option("--dump-retain", type=_OUTPUT_FILE, help="Write the retain list here (one path per line)."),
)
def slim(input_path, output_path, project, ctl_path, mode, layout, gzip_layer,
         report, search_dirs, sinks, dump_cll, dump_retain) -> None:
    """Slim an image archive end to end."""
    from . import pruner
    from .ctl import CommandTokenList
    from .rootfs import DEFAULT_SEARCH_DIRS

    if not project and not ctl_path:
        _fail(EXIT_ANALYSIS, "provide --project or --ctl (an empty CTL still needs a file)")
    if Path(input_path).resolve() == Path(output_path).resolve():
        _fail(EXIT_ANALYSIS, "--input and --output must differ")
    _check_output_dirs(("--output", output_path), ("--report", report),
                       ("--dump-cll", dump_cll), ("--dump-retain", dump_retain))

    dirs = _parse_list(search_dirs, DEFAULT_SEARCH_DIRS)

    try:
        if ctl_path:
            ctl = CommandTokenList.read_text(ctl_path)
        else:
            from . import analyzer

            sink_names = frozenset(_parse_list(sinks, analyzer.DEFAULT_SINKS))
            ctl = analyzer.analyze_project(project, sink_names)
    except AnalysisError as exc:
        _fail(EXIT_ANALYSIS, str(exc) if ctl_path else f"analyze: {exc}")
        return
    _report_unresolved(ctl, mode == "strict")

    try:
        # --output is written through a temporary file beside it and
        # renamed over it once the image is whole.
        result = pruner.slim_image(
            input_path,
            ctl,
            output_path,
            search_dirs=dirs,
            conservative=mode == "conservative",
            layout=layout,
            gzip_layer=gzip_layer,
        )
    except PruneConsistencyError as exc:
        _fail(EXIT_PRUNE, f"prune: {exc}")
        return
    except SlimError as exc:
        _fail(EXIT_FORMAT, str(exc))
        return

    if dump_cll:
        Path(dump_cll).write_text(result.cll.dump())
    if dump_retain:
        Path(dump_retain).write_text("".join(p + "\n" for p in sorted(result.retain.paths)))
    if report:
        Path(report).write_text(result.report.to_json())
    print(result.report.table())


@main.command(
    option("--input", dest="input_path", required=True, type=_INPUT_FILE),
    option("--search-dirs", help="Comma-separated command search directories."),
)
def inspect(input_path, search_dirs) -> None:
    """Print metadata, supported-command count, and size summary of an image."""
    from . import imageio, rootfs

    dirs = _parse_list(search_dirs, rootfs.DEFAULT_SEARCH_DIRS)
    try:
        metadata, stack = imageio.load_image_archive(input_path)
        with stack:
            flat = imageio.flatten_layers(stack)
    except SlimError as exc:
        _fail(EXIT_FORMAT, str(exc))
        return

    def show(label, value):
        print(f"{label}: {value}")

    show("image", metadata.reference or "(untagged)")
    show("architecture", metadata.architecture)
    show("os", metadata.os)
    show("exposed ports", ", ".join(sorted(metadata.exposed_ports)) or "none")
    show("entrypoint", " ".join(metadata.entrypoint) if metadata.entrypoint is not None else "none")
    show("cmd", " ".join(metadata.cmd) if metadata.cmd is not None else "none")
    show("working dir", metadata.working_dir or "none")
    show("env vars", len(metadata.env_vars))
    show("layers", len(stack.layers))
    show("entries", len(flat.entries))
    show("rootfs size", flat.total_size)
    show("commands supported", len(rootfs.collect_system_commands(flat, dirs)))


if __name__ == "__main__":
    main()
