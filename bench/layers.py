"""Per-layer metrics derived from the spans of one traced invocation.

A layer is a staticslim module. A span's self time is its duration minus
the time its direct child spans cover and minus the tracer's own
bookkeeping inside it; a layer time sums the self times of the spans named
for it. Spans of ``cli.slim`` carry a phase: ``main`` until the slim image
is built, ``report`` afterwards, when ``cli.slim`` reloads, reflattens,
rescans and rebuilds the command linked list only to count the commands
that survive. That re-read is reported as ``cli.report_reread_s`` and kept
out of the ``imageio`` and ``rootfs`` layer times.

``METRICS`` lists every per-layer metric with its unit and, in ``moves``,
the end-to-end metric and workload it should move when its layer changes.
"""

from __future__ import annotations

MB = 1e6

# name: (unit, moves)
METRICS: dict[str, tuple[str, str]] = {
    "imageio.load_s": ("s", "wall_s, peak_rss_mb on layered-data-image; small on elf-command-image"),
    "imageio.load_mb": ("MB", "peak_rss_mb on layered-data-image"),
    "imageio.layers": ("count", "wall_s on layered-data-image"),
    "imageio.flatten_s": ("s", "wall_s, peak_rss_mb on layered-data-image; small on elf-command-image"),
    "imageio.flatten_members": ("count", "wall_s on layered-data-image"),
    "imageio.flatten_entries": ("count", "wall_s on layered-data-image"),
    "imageio.content_mb": ("MB", "peak_rss_mb on layered-data-image"),
    "imageio.build_s": ("s", "wall_s, peak_rss_mb on layered-data-image"),
    "imageio.build_mb": ("MB", "peak_rss_mb on layered-data-image"),
    "rootfs.scan_s": ("s", "wall_s on elf-command-image"),
    "rootfs.commands_s": ("s", "wall_s on elf-command-image"),
    "rootfs.cll_build_s": ("s", "wall_s on elf-command-image"),
    "rootfs.cll_expand_s": ("s", "wall_s on elf-command-image"),
    "rootfs.cll_nodes": ("count", "wall_s on elf-command-image"),
    "rootfs.cll_heads": ("count", "wall_s on elf-command-image"),
    "rootfs.alias_nodes": ("count", "wall_s on elf-command-image"),
    "elf.closure_s": ("s", "wall_s on elf-command-image; near zero on layered-data-image"),
    "elf.closure_calls": ("count", "wall_s on elf-command-image"),
    "elf.dynamic_parses": ("count", "wall_s on elf-command-image"),
    "elf.parse_reuse": ("ratio", "wall_s on elf-command-image (1.0 once every object is parsed once)"),
    "elf.missing_libraries": ("count", "none: a correctness count"),
    "pruner.match_s": ("s", "wall_s on elf-command-image"),
    "pruner.match_ratio": ("ratio", "none: matched / CTL tokens"),
    "pruner.retain_s": ("s", "wall_s on elf-command-image"),
    "pruner.retained_entries": ("count", "wall_s, peak_rss_mb on layered-data-image"),
    "pruner.removed_entries": ("count", "none: slimming result"),
    "pruner.emit_s": ("s", "wall_s, peak_rss_mb on layered-data-image"),
    "pruner.emit_mb": ("MB", "peak_rss_mb on layered-data-image"),
    "pruner.report_s": ("s", "wall_s on both image workloads (small)"),
    "pruner.app_entries_removed": ("count", "none: application entries missing from the slim image"),
    "cli.report_reread_s": ("s", "wall_s, peak_rss_mb on both image workloads"),
    "cli.self_s": ("s", "wall_s on every workload (click, CTL and output file I/O)"),
    "analyzer.walk_s": ("s", "wall_s on node-deps-project"),
    "analyzer.packages": ("count", "wall_s on node-deps-project"),
    "analyzer.source_files": ("count", "wall_s on node-deps-project"),
    "analyzer.prefilter_s": ("s", "wall_s on node-deps-project"),
    "analyzer.packages_kept": ("count", "wall_s on node-deps-project"),
    "analyzer.resolve_s": ("s", "wall_s on node-deps-project and exec-dense-project"),
    "analyzer.tokenize_s": ("s", "wall_s on node-deps-project (small)"),
    "analyzer.ctl_tokens": ("count", "none: analysis result"),
    "analyzer.unresolved_sinks": ("count", "none: analysis result"),
    "jsmodule.scan_s": ("s", "wall_s on node-deps-project"),
    "jsmodule.tokenize_s": ("s", "wall_s on node-deps-project"),
    "jsmodule.resolve_s": ("s", "wall_s on exec-dense-project"),
    "jsmodule.files_scanned": ("count", "wall_s on node-deps-project"),
    "jsmodule.bytes_scanned": ("count", "wall_s on node-deps-project"),
    "jsmodule.sink_file_ratio": ("ratio", "wall_s on node-deps-project (files with a sink / files scanned)"),
    "shellwords.tokenize_s": ("s", "wall_s on both project workloads (small)"),
    "shellwords.scripts": ("count", "wall_s on both project workloads (small)"),
    "trace.wall_s": ("s", "none: in-process wall time of the traced invocation"),
    "trace.overhead_ratio": ("ratio", "none: traced / untraced in-process wall time"),
}

# Layer times that are plain sums of self times: metric -> (span names, phase).
_SELF_TIMES = {
    "imageio.load_s": (("imageio.load_image_archive",), "main"),
    "imageio.flatten_s": (("imageio.flatten_layers",), "main"),
    "imageio.build_s": (("imageio.build_slim_image",), None),
    "rootfs.scan_s": (("rootfs.scan_rootfs",), "main"),
    "rootfs.commands_s": (("rootfs.collect_system_commands",), "main"),
    "rootfs.cll_build_s": (("rootfs.build_command_linked_list",), "main"),
    "rootfs.cll_expand_s": (("rootfs.expand_command_linked_list",), "main"),
    "elf.closure_s": (("elf.resolve_elf_dependencies",), None),
    "pruner.match_s": (("pruner.match_tokens",), None),
    "pruner.retain_s": (("pruner.build_retain_list",), None),
    "pruner.emit_s": (("pruner.emit_slim_rootfs",), None),
    "pruner.report_s": (("pruner.compute_report",), None),
    "cli.self_s": (("cli.slim", "cli.analyze"), None),
    "analyzer.walk_s": (("analyzer.enumerate_dependency_chain", "analyzer.find_shell_scripts"), None),
    "analyzer.prefilter_s": (("analyzer.filter_packages",), None),
    "analyzer.resolve_s": (("analyzer.analyze_data_dependencies", "analyzer.analyze_project"), None),
    "analyzer.tokenize_s": (("analyzer.extract_command_tokens",), None),
    "jsmodule.scan_s": (("jsmodule.scan_module",), None),
    "jsmodule.tokenize_s": (("jsmodule.tokenize",), None),
    "jsmodule.resolve_s": (("jsmodule.resolve_expr",), None),
    "shellwords.tokenize_s": (("shellwords.tokenize_script",), None),
}


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: duration minus children and bookkeeping."""
    out = [s["end"] - s["start"] - s["hook_s"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict, untraced_wall: float) -> dict[str, float]:
    """Every metric of ``METRICS`` from one traced invocation's result."""
    spans = result["spans"]
    selfs = self_times(spans)
    out = {name: 0.0 for name in METRICS}

    def pick(name: str, phase: str | None = None):
        return [s for s in spans if s["name"] == name and (phase is None or s["phase"] == phase)]

    def total(name: str, attr: str, phase: str | None = None) -> float:
        return float(sum(s["attrs"].get(attr, 0) for s in pick(name, phase)))

    for metric, (names, phase) in _SELF_TIMES.items():
        out[metric] = sum(
            t for s, t in zip(spans, selfs)
            if s["name"] in names and (phase is None or s["phase"] == phase)
        )

    out["imageio.load_mb"] = total("imageio.load_image_archive", "bytes", "main") / MB
    out["imageio.layers"] = total("imageio.load_image_archive", "layers", "main")
    out["imageio.flatten_members"] = total("imageio.flatten_layers", "tar_members", "main")
    out["imageio.flatten_entries"] = total("imageio.flatten_layers", "entries", "main")
    out["imageio.content_mb"] = total("imageio.flatten_layers", "content_bytes", "main") / MB
    out["imageio.build_mb"] = total("imageio.build_slim_image", "bytes") / MB

    out["rootfs.cll_heads"] = total("rootfs.build_command_linked_list", "heads", "main")
    nodes = total("rootfs.expand_command_linked_list", "nodes", "main")
    out["rootfs.cll_nodes"] = nodes
    out["rootfs.alias_nodes"] = nodes - total("rootfs.expand_command_linked_list", "nodes_before", "main")

    parses = result["counters"].get("elf.read_dynamic_info", 0)
    out["elf.closure_calls"] = float(len(pick("elf.resolve_elf_dependencies")))
    out["elf.dynamic_parses"] = float(parses)
    out["elf.parse_reuse"] = _ratio(result["distinct_parsed"], parses)
    out["elf.missing_libraries"] = total("pruner.build_retain_list", "missing_libraries")

    out["pruner.match_ratio"] = _ratio(total("pruner.match_tokens", "matched"),
                                       total("pruner.match_tokens", "tokens"))
    retained = total("pruner.build_retain_list", "retained")
    out["pruner.retained_entries"] = retained
    out["pruner.removed_entries"] = total("pruner.build_retain_list", "entries") - retained
    out["pruner.emit_mb"] = total("pruner.emit_slim_rootfs", "bytes") / MB
    out["pruner.app_entries_removed"] = total("pruner.build_retain_list", "app_removed")

    slim = {i for i, s in enumerate(spans) if s["name"] == "cli.slim"}
    out["cli.report_reread_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["parent"] in slim and s["phase"] == "report" and s["name"] != "pruner.compute_report"
    )

    out["analyzer.packages"] = total("analyzer.enumerate_dependency_chain", "packages")
    out["analyzer.source_files"] = total("analyzer.enumerate_dependency_chain", "source_files")
    out["analyzer.packages_kept"] = total("analyzer.filter_packages", "kept")
    out["analyzer.ctl_tokens"] = total("analyzer.analyze_project", "tokens")
    out["analyzer.unresolved_sinks"] = total("analyzer.analyze_project", "unresolved")

    scans = pick("jsmodule.scan_module")
    out["jsmodule.files_scanned"] = float(len(scans))
    out["jsmodule.bytes_scanned"] = total("jsmodule.scan_module", "bytes")
    out["jsmodule.sink_file_ratio"] = _ratio(sum(1 for s in scans if s["attrs"]["has_sink"]), len(scans))
    out["shellwords.scripts"] = float(len(pick("shellwords.tokenize_script")))

    out["trace.wall_s"] = result["wall_s"]
    out["trace.overhead_ratio"] = _ratio(result["wall_s"], untraced_wall)
    return out
