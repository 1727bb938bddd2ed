"""Tests of the benchmark itself: generators, checker and tracer.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen_image  # noqa: E402
import gen_project  # noqa: E402
import layers  # noqa: E402

SMALL = {
    "layered-data-image": (gen_image.gen_layered_data_image, 0.05),
    "elf-command-image": (gen_image.gen_elf_command_image, 0.05),
    "node-deps-project": (gen_project.gen_node_deps_project, 0.1),
    "exec-dense-project": (gen_project.gen_exec_dense_project, 0.1),
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def generate(name: str, out: Path, seed: int) -> dict:
    fn, scale = SMALL[name]
    return fn(out, seed, scale)


def run_child(tmp: Path, trace: int, cli_args: list[str]) -> dict:
    result = tmp / f"result-{trace}.json"
    subprocess.run(
        [sys.executable, "-I", str(BENCH / "trace_child.py"), str(ROOT / "src"), str(result),
         "0", str(trace), "--", *cli_args],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
    )
    data = json.loads(result.read_text())
    assert data["exit"] == 0
    return data


def slim_args(work: Path, out: Path, truth: dict) -> list[str]:
    flags = ["--format", truth["layout"]] + (["--gzip"] if truth["gzip"] else [])
    return ["slim", "--input", str(work / "input.tar"), "--ctl", str(work / "input.ctl"),
            "--output", str(out), *flags]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic(tmp_path, name):
    a = generate(name, tmp_path / "a", 7)
    b = generate(name, tmp_path / "b", 7)
    c = generate(name, tmp_path / "c", 8)
    assert a == b
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def _without(archive: bytes, victim: str) -> bytes:
    """The docker-save archive rebuilt with one rootfs member dropped."""
    layer = check.read_slim_layer(archive, "docker", False)
    src = tarfile.open(fileobj=io.BytesIO(layer))
    buf = io.BytesIO()
    with src, tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as dst:
        for m in src.getmembers():
            if "/" + m.name.strip("/") != victim:
                dst.addfile(m, src.extractfile(m) if m.isfile() else None)
    return gen_image.docker_archive([buf.getvalue()], {}, "bench/tampered:1")


def test_checker_rejects_a_slim_image_missing_one_required_library(tmp_path):
    truth = generate("elf-command-image", tmp_path, 3)
    out = tmp_path / "slim.tar"
    run_child(tmp_path, 0, slim_args(tmp_path, out, truth))
    archive = out.read_bytes()
    check.check_slim(archive, truth)

    libraries = [p for p in truth["required"]
                 if p.startswith(gen_image.TRIPLET_DIR + "/lib") and truth["final_entries"][p] == "file"]
    assert libraries
    with pytest.raises(check.CheckError, match="required paths are missing"):
        check.check_slim(_without(archive, libraries[0]), truth)


def test_checker_rejects_a_ctl_missing_one_token(tmp_path):
    truth = generate("node-deps-project", tmp_path, 3)
    report = {"unresolved_sinks": ["x.js:1"] * truth["unresolved"]}
    tokens = truth["ctl_tokens"]
    check.check_analyze("".join(t + "\n" for t in tokens), report, truth)
    with pytest.raises(check.CheckError, match="missing"):
        check.check_analyze("".join(t + "\n" for t in tokens[1:]), report, truth)
    with pytest.raises(check.CheckError, match="unresolved"):
        check.check_analyze("".join(t + "\n" for t in tokens), {"unresolved_sinks": []}, truth)


@pytest.mark.parametrize("name", ["layered-data-image", "node-deps-project"])
def test_traced_run_writes_the_same_outputs_as_an_untraced_run(tmp_path, name):
    truth = generate(name, tmp_path, 5)
    outputs = {}
    for trace in (0, 1):
        if truth["command"] == "slim":
            out = tmp_path / f"slim-{trace}.tar"
            args = slim_args(tmp_path, out, truth)
        else:
            out = tmp_path / f"out-{trace}.ctl"
            args = ["analyze", "--project", str(tmp_path / "project"), "--output", str(out)]
        result = run_child(tmp_path, trace, args)
        assert bool(result["spans"]) == bool(trace)
        outputs[trace] = out.read_bytes()
    assert outputs[0] == outputs[1]

    metrics = layers.layer_metrics(result, result["wall_s"])
    assert set(metrics) == set(layers.METRICS)
    if truth["command"] == "slim":
        assert metrics["imageio.flatten_entries"] == truth["units"]
        assert metrics["pruner.app_entries_removed"] > 0
    else:
        assert metrics["analyzer.ctl_tokens"] == len(truth["ctl_tokens"])
        assert metrics["jsmodule.files_scanned"] > 0


def test_self_time_subtracts_children_and_bookkeeping():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "hook_s": 1.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 5.0, "hook_s": 0.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "hook_s": 0.0, "parent": 1},
    ]
    assert layers.self_times(spans) == [5.0, 3.0, 1.0]
