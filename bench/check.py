"""Output checks against the generators' ground truth (stdlib only).

The checker never imports staticslim. For ``slim`` it reads the output
archive in the layout that was asked for, verifies every digest the layout
declares, and compares the single rootfs layer with ``truth.json``: every
required path is present with the right kind, every removed path lies in
the documented prune area, and nothing appears that the input did not
hold. For ``analyze`` it compares the CTL token set and the number of
unresolved exec arguments with the planted ones.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import tarfile
from pathlib import Path

_KINDS = {
    tarfile.REGTYPE: "file",
    tarfile.AREGTYPE: "file",
    tarfile.LNKTYPE: "hardlink",
    tarfile.SYMTYPE: "symlink",
    tarfile.DIRTYPE: "dir",
}


class CheckError(Exception):
    """The output does not match the ground truth."""


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _clean(name: str) -> str:
    while name.startswith("./"):
        name = name[2:]
    return name.strip("/")


def _members(data: bytes) -> dict[str, bytes]:
    with tarfile.open(fileobj=io.BytesIO(data)) as tf:
        return {_clean(m.name): tf.extractfile(m).read() for m in tf.getmembers() if m.isfile()}


def _blob(files: dict[str, bytes], digest: str) -> bytes:
    data = files.get("blobs/sha256/" + digest.split(":", 1)[1])
    if data is None:
        raise CheckError(f"blob {digest} is missing")
    if _digest(data) != digest:
        raise CheckError(f"blob {digest} does not match its digest")
    return data


def read_slim_layer(archive: bytes, layout: str, gzip_layer: bool) -> bytes:
    """The uncompressed rootfs tar of a single-layer image archive."""
    try:
        files = _members(archive)
    except tarfile.TarError as exc:
        raise CheckError(f"output is not a tar archive: {exc}") from exc
    if layout == "oci":
        if "oci-layout" not in files or "index.json" not in files:
            raise CheckError("OCI output lacks oci-layout or index.json")
        index = json.loads(files["index.json"])
        manifest = json.loads(_blob(files, index["manifests"][0]["digest"]))
        config = json.loads(_blob(files, manifest["config"]["digest"]))
        if len(manifest["layers"]) != 1:
            raise CheckError(f"expected one layer, found {len(manifest['layers'])}")
        desc = manifest["layers"][0]
        blob = _blob(files, desc["digest"])
        if desc["mediaType"].endswith("+gzip") != gzip_layer:
            raise CheckError(f"layer media type {desc['mediaType']} does not match --gzip={gzip_layer}")
        layer = gzip.decompress(blob) if gzip_layer else blob
    else:
        if "manifest.json" not in files:
            raise CheckError("docker-save output lacks manifest.json")
        manifest = json.loads(files["manifest.json"])
        if len(manifest) != 1 or len(manifest[0]["Layers"]) != 1:
            raise CheckError("expected one image with one layer")
        config = json.loads(files[manifest[0]["Config"]])
        layer = files[manifest[0]["Layers"][0]]
    if config["rootfs"]["diff_ids"] != [_digest(layer)]:
        raise CheckError("config diff_ids do not match the layer")
    return layer


def layer_entries(layer: bytes) -> dict[str, str]:
    """Absolute path -> kind of every member of a rootfs tar."""
    out = {}
    with tarfile.open(fileobj=io.BytesIO(layer)) as tf:
        for m in tf.getmembers():
            out["/" + _clean(m.name)] = _KINDS.get(m.type, "other")
    return out


def check_slim(archive: bytes, truth: dict) -> None:
    """Raise CheckError unless the slim archive honours ``truth``."""
    entries = layer_entries(read_slim_layer(archive, truth["layout"], truth["gzip"]))
    final = truth["final_entries"]
    fabricated = sorted(set(entries) - set(final))
    if fabricated:
        raise CheckError(f"{len(fabricated)} output paths were not in the input, e.g. {fabricated[:3]}")
    missing = [p for p in truth["required"] if p not in entries]
    if missing:
        raise CheckError(f"{len(missing)} required paths are missing, e.g. {missing[:3]}")
    for path in truth["required"]:
        want, got = final[path], entries[path]
        if want != got and {want, got} != {"file", "hardlink"}:
            raise CheckError(f"{path} is a {got}, expected a {want}")
    markers = truth["prune_markers"]
    outside = [p for p in final if p not in entries and not any(m in p for m in markers)]
    if outside:
        raise CheckError(f"{len(outside)} removed paths are outside the prune area, e.g. {outside[:3]}")


def check_analyze(ctl_text: str, report: dict, truth: dict) -> None:
    """Raise CheckError unless the CTL and report match the planted truth."""
    tokens = [line.strip() for line in ctl_text.splitlines() if line.strip()]
    if len(tokens) != len(set(tokens)):
        raise CheckError("the CTL repeats a token")
    want = set(truth["ctl_tokens"])
    got = set(tokens)
    if got != want:
        raise CheckError(
            f"CTL differs from the planted tokens: missing {sorted(want - got)[:5]}, "
            f"unexpected {sorted(got - want)[:5]}"
        )
    unresolved = len(report.get("unresolved_sinks", []))
    if unresolved != truth["unresolved"]:
        raise CheckError(f"{unresolved} unresolved exec arguments reported, {truth['unresolved']} planted")


def check_outputs(outputs: dict[str, Path], truth: dict) -> None:
    """Check the files one invocation wrote; see check_slim / check_analyze."""
    if truth["command"] == "slim":
        check_slim(outputs["archive"].read_bytes(), truth)
    else:
        check_analyze(outputs["ctl"].read_text(), json.loads(outputs["report"].read_text()), truth)
