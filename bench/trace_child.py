"""Run one staticslim CLI invocation in-process, with or without spans.

Usage::

    python3 -I bench/trace_child.py SRC_DIR RESULT_JSON RUN_ID TRACE -- CLI_ARGS...

The CLI entry (``staticslim.cli:main``) is called in this interpreter. With
``TRACE`` set to 1 the public stage functions of every module are wrapped
before the call, patched in each module namespace where a caller looks them
up, so ``cli.slim`` calling ``flatten_layers`` and ``pruner`` calling
``resolve_elf_dependencies`` both go through a wrapper. A wrapper records a
span (name, start, end, parent, run id, phase) plus counts read from the
call's arguments and result; counts are taken after the span has ended and
their cost is kept out of every span's self time. Spans stay in memory and
are written to ``RESULT_JSON`` when the invocation ends, together with the
in-process wall time and the exit code. With ``TRACE`` 0 only the wall time
and exit code are written, which gives the untraced reference for the
tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    """Spans of one CLI invocation, kept in memory until it ends."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.phase = "main"
        self.counters: dict[str, int] = {}
        self.parsed: set[int] = set()
        self.working_dir = ""

    def _charge(self, seconds: float) -> None:
        """Keep bookkeeping time out of the enclosing span's self time."""
        if self.stack:
            self.spans[self.stack[-1]]["hook_s"] += seconds

    @staticmethod
    def _hook(attrs: dict, hook, *args) -> None:
        """Run a counting hook; a call shape it does not know only loses counts."""
        try:
            hook(attrs, *args)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            attrs["hook_error"] = repr(exc)

    def span(self, name, fn, before=None, after=None, reentrant=True):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not reentrant and tracer.stack and tracer.spans[tracer.stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            h0 = perf()
            attrs: dict = {}
            if before is not None:
                tracer._hook(attrs, before, args, kwargs)
            span = {"name": name, "run": tracer.run_id, "phase": tracer.phase,
                    "parent": tracer.stack[-1] if tracer.stack else None,
                    "start": 0.0, "end": 0.0, "hook_s": 0.0, "attrs": attrs}
            tracer.spans.append(span)
            tracer._charge(perf() - h0)
            tracer.stack.append(len(tracer.spans) - 1)
            span["start"] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf()
                tracer.stack.pop()
            if after is not None:
                tracer._hook(attrs, after, args, kwargs, result)
            tracer._charge(perf() - span["end"])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn, after):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            h0 = perf()
            tracer.counters[name] = tracer.counters.get(name, 0) + 1
            tracer._hook({}, after, args, kwargs, result)
            tracer._charge(perf() - h0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap the public stage functions wherever staticslim looks them up."""
    import tarfile

    from staticslim import analyzer, cli, elf, imageio, jsmodule, pruner, rootfs, shellwords

    def loaded(attrs, args, kwargs, result):
        metadata, stack = result
        attrs["layers"] = len(stack.layers)
        attrs["bytes"] = sum(len(layer.data) for layer in stack.layers)
        if tracer.phase == "main":
            tracer.working_dir = metadata.working_dir or ""

    def flattened(attrs, args, kwargs, result):
        attrs["entries"] = len(result.entries)
        attrs["content_bytes"] = sum(len(v) for v in result.content.values())

    def built(attrs, args, kwargs, result):
        attrs["bytes"] = len(result)
        tracer.phase = "report"

    def slim_started(attrs, args, kwargs):
        tracer.phase = "main"

    def cll_built(attrs, args, kwargs, result):
        attrs["nodes"] = len(result.nodes)
        attrs["heads"] = len(result.heads)

    def expand_started(attrs, args, kwargs):
        attrs["nodes_before"] = len(_arg(args, kwargs, 0, "cll").nodes)

    def expanded(attrs, args, kwargs, result):
        attrs["nodes"] = len(result.nodes)

    def matched(attrs, args, kwargs, result):
        attrs["matched"] = len(result.matched)
        attrs["tokens"] = len(_arg(args, kwargs, 0, "ctl").tokens)

    def retained(attrs, args, kwargs, result):
        rootfs_ = _arg(args, kwargs, 3, "rootfs")
        workdir = tracer.working_dir.rstrip("/")
        attrs["retained"] = len(result.paths)
        attrs["entries"] = len(rootfs_.entries)
        attrs["missing_libraries"] = len(result.missing_libraries)
        attrs["app_removed"] = sum(
            1 for p in rootfs_.entries
            if p not in result.paths
            and ((workdir and p.startswith(workdir + "/")) or "/node_modules/" in p + "/")
        )

    def emitted(attrs, args, kwargs, result):
        attrs["bytes"] = len(result)

    def walked(attrs, args, kwargs, result):
        attrs["packages"] = len(result)
        attrs["source_files"] = sum(len(p.source_files) for p in result)

    def kept(attrs, args, kwargs, result):
        attrs["kept"] = len(result)

    def analyzed(attrs, args, kwargs, result):
        attrs["tokens"] = len(result.tokens)
        attrs["unresolved"] = len(result.unresolved_sinks)

    def scanned(attrs, args, kwargs, result):
        sinks = _arg(args, kwargs, 2, "sink_names")
        attrs["bytes"] = len(_arg(args, kwargs, 1, "source"))
        attrs["has_sink"] = any(call.callee in sinks for call in result.calls)

    def parsed(attrs, args, kwargs, result):
        tracer.parsed.add(id(_arg(args, kwargs, 0, "data")))

    original_getmembers = tarfile.TarFile.getmembers

    def getmembers(self):
        members = original_getmembers(self)
        if tracer.stack:
            attrs = tracer.spans[tracer.stack[-1]]["attrs"]
            attrs["tar_members"] = attrs.get("tar_members", 0) + len(members)
        return members

    tarfile.TarFile.getmembers = getmembers

    plan = [
        (imageio, "load_image_archive", dict(after=loaded)),
        (imageio, "flatten_layers", dict(after=flattened)),
        (imageio, "build_slim_image", dict(after=built)),
        (rootfs, "scan_rootfs", {}),
        (rootfs, "collect_system_commands", {}),
        (rootfs, "build_command_linked_list", dict(after=cll_built)),
        (rootfs, "expand_command_linked_list", dict(before=expand_started, after=expanded)),
        (elf, "resolve_elf_dependencies", {}),
        (pruner, "match_tokens", dict(after=matched)),
        (pruner, "build_retain_list", dict(after=retained)),
        (pruner, "emit_slim_rootfs", dict(after=emitted)),
        (pruner, "compute_report", {}),
        (cli, "load_image_archive_layers", {}),
        (analyzer, "analyze_project", dict(after=analyzed)),
        (analyzer, "enumerate_dependency_chain", dict(after=walked)),
        (analyzer, "filter_packages", dict(after=kept)),
        (analyzer, "analyze_data_dependencies", {}),
        (analyzer, "find_shell_scripts", {}),
        (analyzer, "extract_command_tokens", {}),
        (jsmodule, "scan_module", dict(after=scanned)),
        (jsmodule, "tokenize", {}),
        (jsmodule, "resolve_expr", dict(reentrant=False)),
        (shellwords, "tokenize_script", {}),
    ]
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "staticslim" or name.startswith("staticslim."))]

    def patch(original, wrapper) -> None:
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    # A stage a later version no longer has is skipped; its metrics read 0.
    for module, attr, hooks in plan:
        original = getattr(module, attr, None)
        if original is None:
            continue
        short = module.__name__.rsplit(".", 1)[1]
        patch(original, tracer.span(f"{short}.{attr}", original, **hooks))
    patch(elf.read_dynamic_info, tracer.count("elf.read_dynamic_info", elf.read_dynamic_info, parsed))
    for command, hooks in (("slim", dict(before=slim_started)), ("analyze", {})):
        cmd = cli.main.commands[command]
        cmd.callback = tracer.span(f"cli.{command}", cmd.callback, **hooks)


def main() -> int:
    src, result_path, run_id, trace = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: trace_child.py SRC RESULT RUN_ID TRACE -- CLI_ARGS...")
    sys.path.insert(0, src)
    from staticslim import cli

    tracer = Tracer(int(run_id))
    if trace == "1":
        install(tracer)
    code = 0
    start = time.perf_counter()
    try:
        cli.main.main(sys.argv[6:], prog_name="staticslim", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "exit": code, "spans": tracer.spans, "counters": tracer.counters,
              "distinct_parsed": len(tracer.parsed)}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
