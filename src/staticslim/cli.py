"""Command-line entry points: analyze, slim, inspect."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from . import analyzer as analyzer_mod
from . import pruner as pruner_mod
from .analyzer import DEFAULT_SINKS, CommandTokenList
from .errors import AnalysisError, PruneConsistencyError, SlimError
from .imageio import flatten_layers, load_image_archive
from .rootfs import DEFAULT_SEARCH_DIRS, collect_system_commands, command_heads

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
    sink_names = frozenset(_parse_list(sinks, DEFAULT_SINKS))
    try:
        ctl = analyzer_mod.analyze_project(
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
    if ctl.unresolved_sinks:
        for sink in ctl.unresolved_sinks:
            click.echo(f"warning: unresolved exec argument at {sink}", err=True)
        if strict:
            _fail(
                EXIT_ANALYSIS,
                f"{len(ctl.unresolved_sinks)} unresolved exec argument(s): "
                + ", ".join(ctl.unresolved_sinks),
            )
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
    if not project and not ctl_path:
        _fail(EXIT_ANALYSIS, "provide --project or --ctl (an empty CTL still needs a file)")
    if Path(input_path).resolve() == Path(output_path).resolve():
        _fail(EXIT_ANALYSIS, "--input and --output must differ")
    for option, path in (("--output", output_path), ("--report", report),
                         ("--dump-cll", dump_cll), ("--dump-retain", dump_retain)):
        if path and not Path(path).parent.is_dir():
            _fail(EXIT_ANALYSIS, f"{option}: no such directory: {Path(path).parent}")

    dirs = _parse_list(search_dirs, DEFAULT_SEARCH_DIRS)
    sink_names = frozenset(_parse_list(sinks, DEFAULT_SINKS))

    try:
        if ctl_path:
            ctl = CommandTokenList.read_text(ctl_path)
        else:
            ctl = analyzer_mod.analyze_project(project, sink_names)
    except AnalysisError as exc:
        _fail(EXIT_ANALYSIS, str(exc) if ctl_path else f"analyze: {exc}")
        return
    if ctl.unresolved_sinks:
        for sink in ctl.unresolved_sinks:
            click.echo(f"warning: unresolved exec argument at {sink}", err=True)
        if mode == "strict":
            _fail(EXIT_ANALYSIS, f"strict mode: unresolved exec arguments at {', '.join(ctl.unresolved_sinks)}")

    try:
        # --output is written through a temporary file beside it and
        # renamed over it once the image is whole.
        result = pruner_mod.slim_image(
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
    dirs = _parse_list(search_dirs, DEFAULT_SEARCH_DIRS)
    try:
        metadata, stack = load_image_archive(input_path)
        with stack:
            rootfs = flatten_layers(stack)
    except SlimError as exc:
        _fail(EXIT_FORMAT, str(exc))
        return

    heads = command_heads(collect_system_commands(rootfs, dirs), rootfs, dirs)

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
    show("entries", len(rootfs.entries))
    show("rootfs size", rootfs.total_size)
    show("commands supported", len(heads))


if __name__ == "__main__":
    main()
