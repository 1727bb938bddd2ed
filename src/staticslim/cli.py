"""Command-line entry points: analyze, slim, inspect.

Each command loads only the stages it runs: it imports them in its own
body, so ``analyze`` never loads the image codec, the ELF parser or
hashlib, and ``inspect`` never loads the JavaScript analysis. ``slim``
loads the analysis only to analyze ``--project``: with ``--ctl`` it reads
the file through the CTL module (``ctl``) alone. A command
looks its stage functions up on their modules when it runs, so a function
patched on its module is the one called.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .errors import AnalysisError, PruneConsistencyError, SlimError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_ANALYSIS = 4
EXIT_PRUNE = 5


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_list(value: str | None, default) -> tuple:
    if not value:
        return tuple(default)
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _check_output_dirs(*outputs: tuple[str, str | None]) -> None:
    """Exit 4 when the directory of a named output does not exist."""
    for option, path in outputs:
        if path and not Path(path).parent.is_dir():
            _fail(EXIT_ANALYSIS, f"{option}: no such directory: {Path(path).parent}")


def _report_unresolved(ctl, strict: bool) -> None:
    """Warn of each unresolved exec argument of ``ctl``; with ``strict``,
    exit 4 when there is one."""
    for sink in ctl.unresolved_sinks:
        click.echo(f"warning: unresolved exec argument at {sink}", err=True)
    if strict and ctl.unresolved_sinks:
        _fail(EXIT_ANALYSIS, f"{len(ctl.unresolved_sinks)} unresolved exec argument(s): "
              + ", ".join(ctl.unresolved_sinks))


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Slim container images from what the project source actually runs."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command()
@click.option("--project", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--output", "-o", type=click.Path(dir_okay=False), help="Write the CTL here (one token per line).")
@click.option("--report", type=click.Path(dir_okay=False), help="Write the JSON analysis report here.")
@click.option("--sinks", help="Comma-separated exec-family sink names.")
@click.option("--include-dep-scripts", is_flag=True, help="Also tokenize shell scripts inside installed dependencies.")
@click.option("--strict", is_flag=True, help="Fail when any exec argument stays unresolved.")
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
        click.echo("warning: no command tokens extracted", err=True)
    else:
        click.echo(f"{len(ctl.tokens)} tokens extracted", err=True)
    _report_unresolved(ctl, strict)
    if not output:
        for token in ctl.token_texts():
            click.echo(token)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "output_path", required=True, type=click.Path(dir_okay=False))
@click.option("--project", type=click.Path(exists=True, file_okay=False), help="Project to analyze for the CTL.")
@click.option("--ctl", "ctl_path", type=click.Path(exists=True, dir_okay=False), help="Use a prebuilt CTL file instead of analyzing.")
@click.option("--strict", "mode", flag_value="strict", help="Abort on unresolved exec arguments.")
@click.option("--conservative", "mode", flag_value="conservative", help="Keep the full rootfs (no pruning).")
@click.option("--format", "layout", type=click.Choice(["oci", "docker"]), default="oci", show_default=True)
@click.option("--gzip", "gzip_layer", is_flag=True, help="Gzip the rootfs layer (OCI output only).")
@click.option("--report", type=click.Path(dir_okay=False), help="Write the JSON prune report here.")
@click.option("--search-dirs", help="Comma-separated command search directories.")
@click.option("--sinks", help="Comma-separated exec-family sink names.")
@click.option("--dump-cll", type=click.Path(dir_okay=False), help="Write the command linked list debug dump here.")
@click.option("--dump-retain", type=click.Path(dir_okay=False), help="Write the retain list here (one path per line).")
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
    click.echo(result.report.table())


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--search-dirs", help="Comma-separated command search directories.")
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
        click.echo(f"{label}: {value}")

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
