"""End-to-end benchmark of the staticslim CLI on four seeded workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload elf-command-image --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 [--baseline]

Each run generates its inputs from the seed under ``.bench_work/`` (removed
again at the end), then:

* ``--trace 0`` times fresh ``staticslim`` processes, one after another,
  for ``--seconds`` seconds. Wall time, CPU time and peak RSS come from the
  child's own rusage (``os.wait4``), not from the harness. ``setup_s`` is
  the median time of fresh interpreters that only import ``staticslim.cli``,
  which builds the click group, scaled by a fixed start-up probe measured
  next to it (see ``STARTUP_PROBE``); the raw medians are printed alongside.
* ``--trace 1`` alternates untraced and traced in-process invocations
  (``trace_child.py``) and derives the per-layer metrics of ``layers.py``
  from the traced spans.

Every output is checked against the generator's ground truth
(``check.py``): the first output of each kind in full, every later one by
sha256, which must not change between repeats of the same code. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs the four workloads in
turn from this one process (never more than one child at a time) and
``--baseline`` also records the results in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen_image  # noqa: E402
import gen_project  # noqa: E402
import layers  # noqa: E402

MIN_PROBE_SAMPLES = 12  # setup and probe samples per run, however slow the invocations
# A fresh interpreter's start-up time drifts by 15-25% over minutes on a
# shared host, more than the import work setup_s is meant to watch. Each run
# therefore also times STARTUP_PROBE, a fresh interpreter importing a fixed
# set of standard-library modules (no staticslim), next to every setup_s
# sample, and reports setup_s scaled by STARTUP_NOMINAL_S / median(probe):
# seconds on a host where the probe takes STARTUP_NOMINAL_S. The raw median
# is printed too. Invocation timings are reported as measured.
STARTUP_PROBE = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, gzip, http.client, json, "
    "logging, pathlib, tarfile, unittest, xml.etree.ElementTree, zipfile"
)
STARTUP_NOMINAL_S = 0.15
# A child still running after this long is killed and counted as failed, so
# a run always ends well within its time limit.
CHILD_TIMEOUT_S = 60.0
BOOT = "import sys; sys.path.insert(0, sys.argv.pop(1)); from staticslim.cli import main; main(prog_name='staticslim')"
IMPORT_ONLY = "import sys; sys.path.insert(0, sys.argv[1]); import staticslim.cli"
LAUNCH = """\
import json, os, sys, time
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # slim | analyze
    generate: Callable[..., dict]
    flags: tuple[str, ...]
    unit: str  # what units_per_s counts
    params: str  # sizes, recorded in baseline.json; BENCHMARK.json says why each workload exists


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "layered-data-image", "slim", gen_image.gen_layered_data_image,
            ("--format", "oci", "--gzip"), "rootfs entries",
            "4 gzip layers, ~10k entries, ~16 MB of file content, 300 ELF commands, 30 libraries, "
            "app with node_modules lib/ trees at WorkingDir; CTL of 9 tokens",
        ),
        Workload(
            "elf-command-image", "slim", gen_image.gen_elf_command_image,
            ("--format", "docker"), "rootfs entries",
            "5 uncompressed layers, ~6.8k entries, 1.5k libraries in a 5-tier DT_NEEDED DAG, 1.7k commands "
            "plus ~1.2k chain links and hardlinks; CTL of ~540 tokens incl. 30 absent and 10 /bin spellings",
        ),
        Workload(
            "node-deps-project", "analyze", gen_project.gen_node_deps_project,
            (), ".js files",
            "129 packages (110 hoisted, 18 nested duplicates), 1287 .js files, 40% of packages mention a "
            "sink, 2% of files call one; 3 shell scripts at the root",
        ),
        Workload(
            "exec-dense-project", "analyze", gen_project.gen_exec_dense_project,
            (), ".js files",
            "5 packages, 120 .js files with 8-14 sink calls each: branchy declarator chains, 1-3 deep "
            "parameter bindings, templates, assignments, 4% dynamic",
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "units_per_s": "units/s", "setup_s": "s",
}


class Failure(Exception):
    """An invocation exited non-zero or its output failed the check."""


def _src(root: Path) -> Path:
    src = root / "src"
    if not (src / "staticslim" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/staticslim/cli.py not found; run from the root of a staticslim checkout")
    return src


def _sha(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    """Generates one workload and runs, times and checks its invocations."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.w = workload
        self.root = root
        self.src = _src(root)
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        t0 = time.perf_counter()
        self.truth = workload.generate(self.work, seed)
        self.gen_s = time.perf_counter() - t0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        self.samples: dict[str, list[float]] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    def outputs(self, tag: str) -> dict[str, Path]:
        if self.w.command == "slim":
            return {"archive": self.work / f"slim-{tag}.tar", "report": self.work / f"report-{tag}.json"}
        return {"ctl": self.work / f"out-{tag}.ctl", "report": self.work / f"report-{tag}.json"}

    def cli_args(self, out: dict[str, Path]) -> list[str]:
        if self.w.command == "slim":
            return ["slim", "--input", str(self.work / "input.tar"), "--ctl", str(self.work / "input.ctl"),
                    "--output", str(out["archive"]), "--report", str(out["report"]), *self.w.flags]
        return ["analyze", "--project", str(self.work / "project"), "--output", str(out["ctl"]),
                "--report", str(out["report"]), *self.w.flags]

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Run one child to completion: its wall time, CPU time, peak RSS and exit code.

        The child is started by LAUNCH, a small interpreter of its own, because
        Linux counts the peak RSS of the address space a child execs from into
        the child's maximum; started from here it would inherit this harness's
        peak. The launcher times the child and reads the child's own rusage.
        """
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-I", "-c", LAUNCH, *argv], cwd=self.root,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                    start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    return 0.0, 0.0, 0.0, -signal.SIGKILL
                raise
        if proc.returncode != 0:
            return 0.0, 0.0, 0.0, proc.returncode
        wall, cpu, maxrss_kb, code = json.loads(out)
        return wall, cpu, maxrss_kb * 1024 / layers.MB, code

    def verify(self, out: dict[str, Path], code: int) -> bool:
        """Check one invocation's outputs; failures are counted, never skipped."""
        self.attempted += 1
        try:
            if code != 0:
                tail = (self.work / "stderr.txt").read_bytes()[-400:].decode(errors="replace")
                raise Failure(f"exit code {code}: {tail}")
            digest = _sha([out["archive"]] if self.w.command == "slim" else [out["ctl"], out["report"]])
            if self.digest is None:
                check.check_outputs(out, self.truth)
                self.digest = digest
            elif digest != self.digest:
                raise Failure("output differs from the first output of this run")
            return True
        except (Failure, check.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return False

    def end_to_end(self, seconds: float) -> dict:
        out = self.outputs("cli")
        boot = [sys.executable, "-I", "-c", BOOT, str(self.src)]
        probes = {
            "setup_s": [sys.executable, "-I", "-c", IMPORT_ONLY, str(self.src)],
            "startup_probe_s": [sys.executable, "-I", "-c", STARTUP_PROBE],
        }
        self.spawn(probes["setup_s"])  # compiles the bytecode once; not a sample
        samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
        samples.update((name, []) for name in probes)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(samples["setup_s"]) < MIN_PROBE_SAMPLES:
            if time.perf_counter() - start < seconds:
                wall, cpu, peak, code = self.spawn(boot + self.cli_args(out))
                if self.verify(out, code):
                    samples["wall_s"].append(wall)
                    samples["cpu_s"].append(cpu)
                    samples["peak_rss_mb"].append(peak)
            for name, argv in probes.items():
                wall, _, _, code = self.spawn(argv)
                if code != 0:
                    self.attempted += 1
                    self.failed += 1
                    self.errors.append(f"{name} probe exited with {code}")
                    return {}
                samples[name].append(wall)
        self.samples = samples
        if not samples["wall_s"]:
            return {}
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["setup_s"] *= STARTUP_NOMINAL_S / metrics.pop("startup_probe_s")
        metrics["units_per_s"] = self.truth["units"] / metrics["wall_s"]
        return metrics

    def traced(self, seconds: float) -> dict:
        plain_walls, results = [], []
        start = time.perf_counter()
        run = 0
        while run < 2 or time.perf_counter() - start < seconds:
            trace = (run + run // 2) % 2  # untraced, traced, traced, untraced, ...
            out = self.outputs("traced" if trace else "plain")
            result_path = self.work / f"trace-{run}.json"
            argv = [sys.executable, "-I", str(BENCH / "trace_child.py"), str(self.src), str(result_path),
                    str(run), str(trace), "--", *self.cli_args(out)]
            code = self.spawn(argv)[3]
            result = {}
            if code == 0 and result_path.is_file():
                result = json.loads(result_path.read_text())
                code = result["exit"]
                result_path.unlink()
            elif code == 0:
                code = -1
            if self.verify(out, code):
                (results if trace else plain_walls).append(result if trace else result["wall_s"])
            run += 1
        if not results or not plain_walls:
            return {}
        untraced = statistics.median(plain_walls)
        per_run = [layers.layer_metrics(r, untraced) for r in results]
        self.samples = {"untraced_wall_s": plain_walls, "traced_wall_s": [r["wall_s"] for r in results]}
        return {name: statistics.median(m[name] for m in per_run) for name in layers.METRICS}


def run_one(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    runner = Runner(workload, seed, root)
    try:
        values = runner.traced(seconds) if trace else runner.end_to_end(seconds)
    finally:
        runner.close()
    units = {name: unit for name, (unit, _) in layers.METRICS.items()} if trace else END_TO_END_UNITS
    print(f"# {workload.name} ({workload.command}, {runner.truth['units']} {workload.unit}, "
          f"seed {seed}, generated in {runner.gen_s:.2f} s)")
    for name, samples in runner.samples.items():
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        print(f"#   raw {name}: n={len(samples)} median={statistics.median(samples):.4f} "
              f"q1={q[0]:.4f} q3={q[2]:.4f} min={min(samples):.4f} max={max(samples):.4f}")
    for name, value in values.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    share = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{workload.name} failed_share {share:.6g} ratio ({runner.failed}/{runner.attempted})")
    for err in runner.errors[:5]:
        print(f"# FAILED: {err}")
    correct = runner.failed == 0 and bool(values)
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    raw = {name: statistics.median(v) for name, v in runner.samples.items() if v}
    return result, raw


def _shares(metrics: dict) -> list[list]:
    """[layer time, share of the traced wall time] pairs, largest first."""
    wall = metrics["trace.wall_s"]["value"]
    shares = [[name, m["value"] / wall] for name, m in metrics.items()
              if m["unit"] == "s" and not name.startswith("trace.") and m["value"] > 0]
    return sorted(shares, key=lambda pair: -pair[1])


def _baseline(results: dict, raw: dict, seed: int, seconds: float) -> dict:
    return {
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "seed": seed,
        "seconds": seconds,
        "workloads": {
            name: {"command": w.command, "flags": list(w.flags), "units": w.unit, "params": w.params,
                   "generator": f"{w.generate.__module__}.{w.generate.__name__}"}
            for name, w in WORKLOADS.items()
        },
        "per_layer_moves": {name: moves for name, (_, moves) in layers.METRICS.items()},
        "results": results,
        "raw_sample_medians": raw,
        "startup_nominal_s": STARTUP_NOMINAL_S,
        "traced_time_shares": {name: _shares(per["per_layer"]["metrics"]) for name, per in results.items()
                               if "per_layer" in per and per["per_layer"]["metrics"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="with --workload all: record both kinds of run in bench/baseline.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    _src(root)

    if args.workload != "all":
        result, _ = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
        print(json.dumps(result))
        return 0

    results: dict = {}
    raw: dict = {}
    traces = (0, 1) if args.baseline else (args.trace,)
    for name, workload in WORKLOADS.items():
        for trace in traces:
            kind = "per_layer" if trace else "end_to_end"
            results.setdefault(name, {})[kind], raw.setdefault(name, {})[kind] = run_one(
                workload, args.seed, args.seconds, bool(trace), root)
    if args.baseline:
        (BENCH / "baseline.json").write_text(
            json.dumps(_baseline(results, raw, args.seed, args.seconds), indent=1, sort_keys=True) + "\n")
    flat = [r for per in results.values() for r in per.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in flat),
        "attempted": sum(r["attempted"] for r in flat),
        "failed": sum(r["failed"] for r in flat),
        "metrics": {f"{name}/{kind}/{metric}": v for name, per in results.items()
                    for kind, r in per.items() for metric, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
