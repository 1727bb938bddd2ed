"""Archive loading, layer flattening, and slim image building."""

from __future__ import annotations

import bz2
import gzip
import io
import json
import lzma
import random
import shutil
import subprocess
import tarfile
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HOSTILE_PAX_RECORDS,
    content_bytes,
    default_config,
    flattened_snapshot,
    hostile_pax_after_sparse,
    make_docker_archive,
    make_elf,
    make_layer_tar,
    make_oci_archive,
    make_sparse_member,
    make_stack,
    rechecksum,
    sequential_apply_oracle,
    sha256,
    shell_chain_members,
    snapshot_dir,
    sparse_file_bytes,
    sparse_map,
)
from staticslim import imageio
from staticslim.analyzer import CommandTokenList
from staticslim.errors import (
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    UnsupportedFormatError,
)
from staticslim.imageio import (
    FileRecord,
    FlattenedRootfs,
    ImageMetadata,
    LayerBlob,
    LayerStack,
    TarHeader,
    TarHeaderError,
    build_slim_image,
    flatten_layers,
    gnu_header,
    load_image_archive,
    read_tar_headers,
)
from staticslim.pruner import RetainList, emit_slim_rootfs, slim_image

import reference_flatten


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _tar_of_layer(layer: LayerBlob) -> bytes:
    return layer.tar[0:len(layer.tar)]


def _add(tf: tarfile.TarFile, name: str, type_=tarfile.REGTYPE, *, data=b"", link=""):
    ti = tarfile.TarInfo(name)
    ti.type, ti.linkname, ti.size = type_, link, len(data)
    tf.addfile(ti, io.BytesIO(data) if data else None)


BASE_MEMBERS = [
    {"path": "/etc", "kind": "directory"},
    {"path": "/etc/issue", "data": b"hello\n"},
]


class TestLoadArchive:
    def test_docker_layout_metadata(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg = default_config(
            [layer],
            config={
                "Env": ["PATH=/usr/bin", "LANG=C"],
                "ExposedPorts": {"80/tcp": {}},
                "WorkingDir": "/srv",
                "Labels": {"maintainer": "ops"},
            },
        )
        archive = _write(tmp_path, "img.tar", make_docker_archive([layer], cfg, "web:1"))
        metadata, stack = load_image_archive(archive)
        stack.close()
        assert metadata.image_name == "web"
        assert metadata.tag == "1"
        assert metadata.architecture == "amd64"
        assert metadata.os == "linux"
        assert metadata.exposed_ports == frozenset({"80/tcp"})
        assert metadata.env_vars == ("PATH=/usr/bin", "LANG=C")
        assert metadata.entrypoint is None  # absence round-trips
        assert metadata.cmd is None
        assert metadata.working_dir == "/srv"
        assert dict(metadata.labels) == {"maintainer": "ops"}
        assert len(stack.layers) == 1

    def test_oci_layout_metadata(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg = default_config([layer], config={"Entrypoint": ["/bin/sh", "-c"], "Cmd": ["app"]})
        archive = _write(tmp_path, "img.tar", make_oci_archive([layer], cfg, ref="svc:2"))
        metadata, stack = load_image_archive(archive)
        stack.close()
        assert metadata.reference == "svc:2"
        assert metadata.entrypoint == ("/bin/sh", "-c")
        assert metadata.cmd == ("app",)
        assert len(stack.layers) == 1

    def test_three_layer_digests_match_recorded(self, tmp_path):
        layers = [
            make_layer_tar([{"path": f"/f{i}", "data": bytes([i]) * (i + 1)}])
            for i in range(3)
        ]
        recorded = [sha256(t) for t in layers]  # recorded at fixture-build time
        archive = _write(tmp_path, "img.tar", make_oci_archive(layers))
        _, stack = load_image_archive(archive)
        stack.close()
        assert [l.digest for l in stack.layers] == recorded
        assert stack.diff_ids == recorded

    def test_gzip_layers_diff_ids(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        archive = _write(tmp_path, "img.tar", make_oci_archive([layer], gzip_layers=True))
        _, stack = load_image_archive(archive)
        with stack:
            assert stack.layers[0].diff_id == sha256(layer)
            assert _tar_of_layer(stack.layers[0]) == layer

    def test_missing_manifest_names_member(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            ti = tarfile.TarInfo("oci-layout")
            data = b"{}"
            ti.size = len(data)
            tf.addfile(ti, io.BytesIO(data))
        archive = _write(tmp_path, "img.tar", buf.getvalue())
        with pytest.raises(ImageFormatError, match="index.json"):
            load_image_archive(archive)

    def test_not_an_image_archive(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        archive = _write(tmp_path, "img.tar", layer)
        with pytest.raises(ImageFormatError, match="manifest.json"):
            load_image_archive(archive)

    def test_digest_mismatch(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        archive = _write(tmp_path, "img.tar", make_oci_archive([layer], corrupt_layer=0))
        with pytest.raises(IntegrityError):
            load_image_archive(archive)

    def test_docker_diff_id_mismatch(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg = default_config([layer])
        cfg["rootfs"]["diff_ids"] = ["sha256:" + "0" * 64]
        archive = _write(tmp_path, "img.tar", make_docker_archive([layer], cfg))
        with pytest.raises(IntegrityError):
            load_image_archive(archive)

    def test_unsupported_schema_version(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        data = make_oci_archive([layer])
        # Rewrite index.json with a schemaVersion nobody supports.
        buf = io.BytesIO()
        with tarfile.open(fileobj=io.BytesIO(data)) as src, tarfile.open(fileobj=buf, mode="w") as dst:
            for m in src.getmembers():
                payload = src.extractfile(m).read()
                if m.name == "index.json":
                    doc = json.loads(payload)
                    doc["schemaVersion"] = 1
                    payload = json.dumps(doc).encode()
                ti = tarfile.TarInfo(m.name)
                ti.size = len(payload)
                dst.addfile(ti, io.BytesIO(payload))
        archive = _write(tmp_path, "img.tar", buf.getvalue())
        with pytest.raises(UnsupportedFormatError):
            load_image_archive(archive)

    def test_multi_image_docker_archive_rejected(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg_bytes = json.dumps(default_config([layer])).encode()
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            for name, data in [
                ("layer0/layer.tar", layer),
                ("config.json", cfg_bytes),
                (
                    "manifest.json",
                    json.dumps(
                        [
                            {"Config": "config.json", "Layers": ["layer0/layer.tar"]},
                            {"Config": "config.json", "Layers": ["layer0/layer.tar"]},
                        ]
                    ).encode(),
                ),
            ]:
                ti = tarfile.TarInfo(name)
                ti.size = len(data)
                tf.addfile(ti, io.BytesIO(data))
        archive = _write(tmp_path, "img.tar", buf.getvalue())
        with pytest.raises(UnsupportedFormatError):
            load_image_archive(archive)

    def test_unknown_layer_media_type_is_error(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        data = make_oci_archive([layer])
        buf = io.BytesIO()
        with tarfile.open(fileobj=io.BytesIO(data)) as src, tarfile.open(fileobj=buf, mode="w") as dst:
            blobs = {}
            for m in src.getmembers():
                payload = src.extractfile(m).read()
                blobs[m.name] = payload
            index = json.loads(blobs["index.json"])
            manifest_digest = index["manifests"][0]["digest"]
            manifest_name = "blobs/sha256/" + manifest_digest.split(":")[1]
            manifest = json.loads(blobs[manifest_name])
            manifest["layers"][0]["mediaType"] = "application/vnd.example.squashfs"
            new_manifest = json.dumps(manifest).encode()
            del blobs[manifest_name]
            new_digest = sha256(new_manifest)
            blobs["blobs/sha256/" + new_digest.split(":")[1]] = new_manifest
            index["manifests"][0]["digest"] = new_digest
            index["manifests"][0]["size"] = len(new_manifest)
            blobs["index.json"] = json.dumps(index).encode()
            for name, payload in blobs.items():
                ti = tarfile.TarInfo(name)
                ti.size = len(payload)
                dst.addfile(ti, io.BytesIO(payload))
        archive = _write(tmp_path, "img.tar", buf.getvalue())
        with pytest.raises(UnsupportedFormatError):
            load_image_archive(archive)

    def test_empty_architecture_rejected(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg = default_config([layer])
        cfg["architecture"] = ""
        archive = _write(tmp_path, "img.tar", make_docker_archive([layer], cfg))
        with pytest.raises(ImageFormatError):
            load_image_archive(archive)

    def test_not_a_tar_at_all(self, tmp_path):
        archive = _write(tmp_path, "img.tar", b"\x00\x01garbage")
        with pytest.raises(ImageFormatError, match="not a readable tar"):
            load_image_archive(archive)

    @pytest.mark.parametrize("damage", ["last-header", "truncated-gzip"])
    def test_damaged_archive_is_an_error(self, tmp_path, damage):
        data = make_docker_archive([make_layer_tar(BASE_MEMBERS)])
        if damage == "last-header":
            # tarfile alone stops at a damaged header after the first without
            # a word, and manifest.json, the last member, would go missing.
            with tarfile.open(fileobj=io.BytesIO(data)) as tf:
                at = tf.getmembers()[-1].offset
            data = data[:at + 1] + bytes([data[at + 1] ^ 1]) + data[at + 2:]
        else:
            packed = gzip.compress(data, mtime=0)
            data = packed[:len(packed) // 2]
        with pytest.raises(ImageFormatError, match="not a readable tar archive"):
            load_image_archive(_write(tmp_path, "img.tar", data))

    @pytest.mark.parametrize("packing", ["gzip", "bz2", "xz"])
    def test_compressed_archive(self, tmp_path, packing):
        layer = make_layer_tar(BASE_MEMBERS)
        plain = make_docker_archive([layer], repo_tag="web:1")
        packed = {"gzip": lambda d: gzip.compress(d, mtime=0), "bz2": bz2.compress,
                  "xz": lzma.compress}[packing](plain)
        metadata, stack = load_image_archive(_write(tmp_path, "img.tar", packed))
        with stack:
            assert metadata.reference == "web:1"
            assert [l.data for l in stack.layers] == [layer]

    def test_layers_linked_to_another_member(self, tmp_path):
        """docker save stores a repeated layer once and links the others to
        it; tarfile's ``extractfile`` follows such links, and so does the
        loader."""
        layer = make_layer_tar(BASE_MEMBERS)
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            _add(tf, "./layer0/layer.tar", data=layer)
            _add(tf, "layer1/layer.tar", tarfile.SYMTYPE, link="../layer0/layer.tar")
            _add(tf, "layer2/layer.tar", tarfile.LNKTYPE, link="./layer0/layer.tar")
            _add(tf, "layer1", tarfile.DIRTYPE)
            _add(tf, "layer4.tar", tarfile.SYMTYPE, link="layer1/layer.tar")
            names = ["layer0/layer.tar", "layer1/layer.tar", "layer2/layer.tar", "layer4.tar"]
            _add(tf, "config.json", data=json.dumps(default_config([layer] * 4)).encode())
            _add(tf, "manifest.json",
                 data=json.dumps([{"Config": "config.json", "Layers": names}]).encode())
        _, stack = load_image_archive(_write(tmp_path, "img.tar", buf.getvalue()))
        with stack:
            assert [l.data for l in stack.layers] == [layer] * 4

    @pytest.mark.parametrize("links, match", [
        ([("manifest.json", "missing.json")], "links to a missing member"),
        ([("manifest.json", "a.json"), ("a.json", "manifest.json")], "not a readable file"),
        ([("manifest.json", "d")], "not a readable file"),
    ], ids=["dangling", "cycle", "directory"])
    def test_unreadable_linked_member_is_an_error(self, tmp_path, links, match):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            _add(tf, "d", tarfile.DIRTYPE)
            for name, target in links:
                _add(tf, name, tarfile.SYMTYPE, link=target)
        with pytest.raises(ImageFormatError, match=match):
            load_image_archive(_write(tmp_path, "img.tar", buf.getvalue()))

    @pytest.mark.parametrize("kind", sorted(HOSTILE_PAX_RECORDS))
    def test_hostile_pax_records_in_the_archive_are_refused(self, tmp_path, monkeypatch, kind):
        length = _CountingPattern(imageio._PAX_LENGTH)
        monkeypatch.setattr(imageio, "_PAX_LENGTH", length)
        archive = make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records",
                                   "data": HOSTILE_PAX_RECORDS[kind]},
                                  {"path": "/manifest.json", "data": b"[]"}])
        with pytest.raises(ImageFormatError, match="not a readable tar archive: invalid pax"):
            load_image_archive(_write(tmp_path, "img.tar", archive))
        assert length.calls == 1

    def test_missing_layer_member_named(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        cfg_bytes = json.dumps(default_config([layer])).encode()
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            for name, data in [
                ("config.json", cfg_bytes),
                (
                    "manifest.json",
                    json.dumps(
                        [{"Config": "config.json", "Layers": ["layer0/layer.tar"]}]
                    ).encode(),
                ),
            ]:
                ti = tarfile.TarInfo(name)
                ti.size = len(data)
                tf.addfile(ti, io.BytesIO(data))
        archive = _write(tmp_path, "img.tar", buf.getvalue())
        with pytest.raises(ImageFormatError, match="layer0/layer.tar"):
            load_image_archive(archive)


class TestFlatten:
    def test_whiteout_removes_lower_file(self):
        layer1 = make_layer_tar(
            [{"path": "/a", "kind": "directory"}, {"path": "/a/x", "data": b"one"}]
        )
        layer2 = make_layer_tar([{"path": "/a/.wh.x", "data": b""}])
        rootfs = flatten_layers(make_stack([layer1, layer2]))
        assert "/a/x" not in rootfs.entries
        assert "/a" in rootfs.entries
        assert not any(".wh." in p for p in rootfs.entries)

    def test_later_layer_overrides(self):
        layer1 = make_layer_tar([{"path": "/a", "kind": "directory"}, {"path": "/a/x", "data": b"one"}])
        layer2 = make_layer_tar([{"path": "/a/x", "data": b"two", "mode": 0o600}])
        rootfs = flatten_layers(make_stack([layer1, layer2]))
        assert rootfs.data_for("/a/x") == b"two"
        assert rootfs.entries["/a/x"].mode == 0o600

    def test_opaque_directory_hides_lower_content(self):
        layer1 = make_layer_tar(
            [
                {"path": "/d", "kind": "directory"},
                {"path": "/d/old1", "data": b"1"},
                {"path": "/d/sub", "kind": "directory"},
                {"path": "/d/sub/old2", "data": b"2"},
            ]
        )
        layer2 = make_layer_tar(
            [
                {"path": "/d", "kind": "directory"},
                {"path": "/d/.wh..wh..opq", "data": b""},
                {"path": "/d/new", "data": b"3"},
            ]
        )
        rootfs = flatten_layers(make_stack([layer1, layer2]))
        assert "/d/old1" not in rootfs.entries
        assert "/d/sub" not in rootfs.entries
        assert rootfs.data_for("/d/new") == b"3"

    def test_whiteout_of_directory_removes_subtree(self):
        layer1 = make_layer_tar(
            [
                {"path": "/d", "kind": "directory"},
                {"path": "/d/sub", "kind": "directory"},
                {"path": "/d/sub/f", "data": b"x"},
            ]
        )
        layer2 = make_layer_tar([{"path": "/d/.wh.sub", "data": b""}])
        rootfs = flatten_layers(make_stack([layer1, layer2]))
        assert "/d/sub" not in rootfs.entries
        assert "/d/sub/f" not in rootfs.entries

    def test_traversal_is_security_error(self):
        layer = make_layer_tar([{"path": "ok", "data": b"x"}])
        bad = io.BytesIO()
        with tarfile.open(fileobj=bad, mode="w") as tf:
            ti = tarfile.TarInfo("../escape")
            ti.size = 1
            tf.addfile(ti, io.BytesIO(b"!"))
        with pytest.raises(LayerSecurityError):
            flatten_layers(make_stack([layer, bad.getvalue()]))

    def test_unknown_entry_type_warns_and_skips(self):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            ti = tarfile.TarInfo("strange")
            ti.type = b"9"  # unassigned typeflag
            tf.addfile(ti)
            ti2 = tarfile.TarInfo("normal")
            ti2.size = 2
            tf.addfile(ti2, io.BytesIO(b"ok"))
        rootfs = flatten_layers(make_stack([buf.getvalue()]))
        assert "/normal" in rootfs.entries
        assert "/strange" not in rootfs.entries
        assert any("unknown tar entry type" in w for w in rootfs.warnings)

    def test_missing_parents_synthesized(self):
        layer = make_layer_tar([{"path": "/deep/down/file", "data": b"x"}])
        rootfs = flatten_layers(make_stack([layer]))
        assert rootfs.entries["/deep"].kind == "directory"
        assert rootfs.entries["/deep/down"].kind == "directory"

    def test_hardlink_content_follows_target(self):
        layer = make_layer_tar(
            [
                {"path": "/f", "data": b"payload"},
                {"path": "/link", "kind": "hardlink", "target": "/f"},
            ]
        )
        rootfs = flatten_layers(make_stack([layer]))
        assert rootfs.entries["/link"].kind == "hardlink"
        assert rootfs.data_for("/link") == b"payload"

    def test_dir_replaced_by_file_drops_children(self):
        layer1 = make_layer_tar(
            [{"path": "/d", "kind": "directory"}, {"path": "/d/child", "data": b"c"}]
        )
        layer2 = make_layer_tar([{"path": "/d", "data": b"now a file"}])
        rootfs = flatten_layers(make_stack([layer1, layer2]))
        assert rootfs.entries["/d"].kind == "regular"
        assert "/d/child" not in rootfs.entries

    def test_deterministic(self):
        layers = [
            make_layer_tar([{"path": "/a", "data": b"1"}, {"path": "/b", "data": b"2"}]),
            make_layer_tar([{"path": "/.wh.a", "data": b""}, {"path": "/c", "data": b"3"}]),
        ]
        first = flatten_layers(make_stack(layers))
        second = flatten_layers(make_stack(layers))
        assert first.entries == second.entries
        assert first.content == second.content


def random_layers(rng: random.Random) -> list[bytes]:
    """Three random layers with overrides, whiteouts, and opaque markers."""
    top_dirs = ["/app", "/data", "/srv"]
    known_paths: list[str] = []
    layers = []
    for layer_index in range(3):
        members = []
        for d in top_dirs:
            members.append({"path": d, "kind": "directory"})
        if layer_index > 0 and known_paths:
            for victim in rng.sample(known_paths, k=min(len(known_paths), rng.randrange(0, 3))):
                import posixpath

                members.append(
                    {
                        "path": posixpath.join(posixpath.dirname(victim), ".wh." + posixpath.basename(victim)),
                        "data": b"",
                    }
                )
            if rng.random() < 0.4:
                members.append({"path": rng.choice(top_dirs) + "/.wh..wh..opq", "data": b""})
        for _ in range(rng.randrange(2, 7)):
            d = rng.choice(top_dirs)
            name = f"{d}/f{rng.randrange(6)}"
            choice = rng.random()
            if choice < 0.6:
                members.append(
                    {"path": name, "data": rng.randbytes(rng.randrange(0, 32)), "mode": rng.choice([0o644, 0o600, 0o755])}
                )
            elif choice < 0.8:
                members.append({"path": name, "kind": "symlink", "target": f"f{rng.randrange(6)}"})
            else:
                sub = f"{name}.d"
                members.append({"path": sub, "kind": "directory"})
                members.append({"path": f"{sub}/inner", "data": b"i"})
                name = sub
            known_paths.append(name)
        layers.append(make_layer_tar(members))
    return layers


@pytest.mark.parametrize("seed", range(8))
def test_flatten_matches_sequential_apply_oracle(tmp_path, seed):
    rng = random.Random(seed)
    layers = random_layers(rng)
    dest = tmp_path / "scratch"
    dest.mkdir()
    sequential_apply_oracle(layers, str(dest))
    expected = snapshot_dir(str(dest))
    actual = flattened_snapshot(flatten_layers(make_stack(layers)))
    assert actual == expected


# Names that sort next to each other: "a-b", "a.b" and "a/b" fall between
# "a" and "a0", so a whiteout of "a" must take "a/b" and leave the others.
_SEGMENTS = ("a", "a-b", "a.b", "a0", "b")
_PATH = st.lists(st.sampled_from(_SEGMENTS), min_size=1, max_size=3).map("/".join)
_DIR = st.lists(st.sampled_from(_SEGMENTS), max_size=2).map("/".join)
_SPARSE_FORMATS = ("gnu", "0.0", "0.1", "1.0")


def _sparse_layer(fmt: str, regions, tail: int = 0) -> bytes:
    """A layer of the file "a", the sparse file "s" and the file "b"."""
    return make_layer_tar([{"path": "/a", "data": b"1"},
                           {"path": "/s", "kind": "sparse", "format": fmt, "regions": regions,
                            "tail": tail},
                           {"path": "/b", "data": b"2"}])


# A GNU sparse file in one of the four formats: (hole, data) regions and the
# hole after them. Past four regions an old GNU map needs an extension block.
# An empty 0.1 map, which GNU tar does not write, is refused.
_SPARSE_FORMAT = st.sampled_from(_SPARSE_FORMATS)
_SPARSE_REGIONS = st.lists(st.tuples(st.integers(0, 600), st.binary(min_size=1, max_size=20)),
                           min_size=1, max_size=6)
_MEMBER = st.one_of(
    st.tuples(st.just("dir"), _PATH),
    st.tuples(st.just("file"), _PATH, st.binary(max_size=1100)),
    st.tuples(st.just("sparse"), _PATH, _SPARSE_FORMAT, _SPARSE_REGIONS, st.integers(0, 600)),
    st.tuples(st.just("symlink"), _PATH, _PATH),
    st.tuples(st.just("hardlink"), _PATH, _PATH),
    st.tuples(st.just("fifo"), _PATH),
    st.tuples(st.just("contiguous"), _PATH, st.binary(max_size=20)),
    st.tuples(st.just("whiteout"), _DIR, st.sampled_from(_SEGMENTS)),
    st.tuples(st.just("opaque"), _DIR),
)
# How a layer is stored: plain tar, gzip, or gzip bytes under the tar media
# type (which tarfile decompresses itself, so member offsets do not index the
# stored bytes).
_ENCODING = st.sampled_from(["tar", "gzip", "gzip-as-tar"])


def _layer_blob(members, encoding: str) -> LayerBlob:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.PAX_FORMAT) as tf:
        for kind, *args in members:
            if kind == "sparse":
                # The file is its regions' data with holes as NULs.
                raw = make_sparse_member(*args)
                tf.fileobj.write(raw)
                tf.offset += len(raw)
                continue
            if kind == "whiteout":
                name = "/".join(filter(None, (args[0], ".wh." + args[1])))
            elif kind == "opaque":
                name = "/".join(filter(None, (args[0], ".wh..wh..opq")))
            else:
                name = args[0]
            ti = tarfile.TarInfo(name)
            # mtime and directory modes vary with the layer, so a record one
            # layer replaces differs from the one it replaced.
            ti.mode = 0o644
            ti.mtime = len(members)
            data = None
            if kind == "dir":
                ti.type = tarfile.DIRTYPE
                ti.mode = 0o700 + len(members) % 0o100
            elif kind in ("file", "contiguous", "whiteout", "opaque"):
                data = args[1] if kind in ("file", "contiguous") else b""
                ti.type = tarfile.CONTTYPE if kind == "contiguous" else tarfile.REGTYPE
            elif kind == "symlink":
                ti.type = tarfile.SYMTYPE
                ti.linkname = args[1]
            elif kind == "hardlink":
                ti.type = tarfile.LNKTYPE
                ti.linkname = args[1]
            else:
                ti.type = tarfile.FIFOTYPE
            if data is not None:
                ti.size = len(data)
                tf.addfile(ti, io.BytesIO(data))
            else:
                tf.addfile(ti)
    tar = buf.getvalue()
    media = "application/vnd.oci.image.layer.v1.tar"
    if encoding == "tar":
        return imageio._layer_from_blob(tar, media, None)
    return imageio._layer_from_blob(gzip.compress(tar, mtime=0),
                                    media + "+gzip" if encoding == "gzip" else media, None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_MEMBER, max_size=12), _ENCODING), min_size=1, max_size=4))
@example([([("dir", "a"), ("file", "a/b", b"1"), ("file", "a-b", b"2"), ("file", "a.b", b"3"),
            ("file", "a0", b"4")], "tar"), ([("whiteout", "", "a")], "tar")])
@example([([("dir", "a"), ("file", "a/b", b"1"), ("file", "a0", b"2")], "tar"),
          ([("opaque", "a"), ("sparse", "a0", "0.1", [(0, b"spa"), (9, b"rse")], 3)], "tar")])
@example([([("file", "a", b"1"), ("dir", "b"), ("file", "b/a", b"2")], "gzip"),
          ([("opaque", ""), ("file", "a0", b"z"), ("sparse", "b/s", "1.0", [(5, b"xyz")], 0)],
           "gzip-as-tar")])
# Six regions: the old GNU map goes on in an extension block.
@example([([("sparse", "a", "gnu", [(1, b"a"), (0, b"b"), (600, b"c"), (2, b"d"), (3, b"e"),
                                     (4, b"f")], 7), ("sparse", "b", "0.0", [], 5)], "tar")])
@example([([("dir", "a"), ("file", "a/b", b"x" * 512), ("hardlink", "b", "a/b")], "tar"),
          ([("whiteout", "", "a"), ("file", "a", b"now a file")], "tar")])
def test_flatten_matches_reference_flatten(layers):
    with LayerStack(layers=[_layer_blob(members, encoding) for members, encoding in layers]) as stack:
        got = flatten_layers(stack)
        want = reference_flatten.flatten_layers(stack)
        assert got.entries == want.entries
        assert set(got.content) == set(want.content)
        assert _file_bytes(got) == _file_bytes(want)
    assert got.warnings == want.warnings
    assert got.symlink_table == want.symlink_table
    assert got.total_size == want.total_size


def _file_bytes(rootfs: FlattenedRootfs) -> dict:
    """What ``data_for`` gives for each regular file and hardlink, or
    ``KeyError`` for a hardlink whose target is gone."""
    out = {}
    for path, rec in rootfs.entries.items():
        if rec.kind in ("regular", "hardlink"):
            try:
                out[path] = rootfs.data_for(path)[:]
            except KeyError:
                out[path] = KeyError
    return out


def test_sparse_member_content_has_holes():
    for fmt in _SPARSE_FORMATS:
        stack = make_stack([make_layer_tar([{"path": "/s", "kind": "sparse", "format": fmt,
                                             "regions": [(0, b"ab"), (10, b"cd")], "tail": 3}])])
        assert flatten_layers(stack).content["/s"] == b"ab" + b"\0" * 10 + b"cd" + b"\0" * 3, fmt


@pytest.mark.parametrize("stored", ["tar", "gzip"])
@pytest.mark.parametrize("fmt", _SPARSE_FORMATS)
def test_sparse_layers_are_read_without_tarfile(fmt, stored):
    regions = [(3, b"abc"), (600, b"d"), (0, b"ef"), (1, b"g"), (9, b"h")]
    tar = _sparse_layer(fmt, regions, tail=2)
    blob = gzip.compress(tar, mtime=0) if stored == "gzip" else tar
    refuse = mock.Mock(side_effect=AssertionError("tarfile was asked to read a layer"))
    with mock.patch.object(tarfile, "TarFile", refuse), mock.patch.object(tarfile, "open", refuse):
        with make_stack([blob]) as stack:
            assert content_bytes(flatten_layers(stack).content) == {
                "/a": b"1", "/s": sparse_file_bytes(regions, 2), "/b": b"2"}


@pytest.mark.skipif(shutil.which("tar") is None, reason="needs a tar program")
@pytest.mark.parametrize("args", [["--format=gnu"], *(["--format=pax", f"--sparse-version={v}"]
                                                     for v in ("0.0", "0.1", "1.0"))],
                         ids=["gnu", "pax-0.0", "pax-0.1", "pax-1.0"])
def test_gnu_tar_sparse_file_flattens_to_its_bytes(tmp_path, args):
    """GNU tar, a writer independent of the codec, archives a file with data
    at 1 MiB and 3 MiB and holes around it as a sparse member."""
    path = tmp_path / "f"
    with open(path, "wb") as f:
        f.seek(1 << 20)
        f.write(b"A" * 5000)
        f.seek(3 << 20)
        f.write(b"B" * 7000)
        f.truncate((4 << 20) + 100)
    subprocess.run(["tar", "--sparse", *args, "--create", "--file", str(tmp_path / "layer.tar"),
                    "--directory", str(tmp_path), "f"], check=True)
    tar = (tmp_path / "layer.tar").read_bytes()
    assert [h.sparse is not None for h in read_tar_headers(tar)] == [True]
    with make_stack([tar]) as stack:
        got = flatten_layers(stack)
        want = reference_flatten.flatten_layers(stack)
        assert got.content["/f"] == path.read_bytes()
        assert (got.entries, got.content) == (want.entries, want.content)


class _RecordedReads:
    """A layer's tar stream that records the span of each read."""

    def __init__(self, tar: bytes):
        self.tar = tar
        self.spans: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.tar)

    def __getitem__(self, span: slice) -> bytes:
        data = self.tar[span]
        self.spans.append((span.start, span.start + len(data)))
        return data


def test_flatten_reads_header_blocks_alone():
    """Flattening lists a layer through its header, pax and long-name
    blocks; no member's data is read until its path is looked up."""
    tar = make_layer_tar([
        {"path": "/etc", "kind": "directory"},
        {"path": "/etc/issue", "data": b"hello\n" * 200},
        {"path": "/" + "long/" * 30 + "name", "data": b"long"},
        {"path": "/PaxHeader", "kind": "pax-records", "data": b"12 uname=me\n"},
        {"path": "/etc/owned", "data": b"owned"},
        {"path": "/etc/link", "kind": "symlink", "target": "issue"},
        {"path": "/etc/hard", "kind": "hardlink", "target": "/etc/issue"},
        {"path": "/s0", "kind": "sparse", "format": "0.0", "regions": [(5, b"ab")], "tail": 9},
        {"path": "/sg", "kind": "sparse", "format": "gnu",
         "regions": [(1, b"c"), (2, b"d"), (3, b"e"), (4, b"f"), (5, b"g")]},
    ])
    data_spans = [(h.offset_data, h.offset_data + (h.size if h.sparse is None
                                                   else sum(n for _, n in h.sparse)))
                  for h in read_tar_headers(tar) if h.type not in imageio._NO_DATA_TYPES]
    recorded = _RecordedReads(tar)
    media = "application/vnd.oci.image.layer.v1.tar"
    with LayerStack([LayerBlob(media, sha256(tar), sha256(tar), tar, recorded)]) as stack:
        rootfs = flatten_layers(stack)
        reads = list(recorded.spans)
        assert rootfs.data_for("/etc/hard") == b"hello\n" * 200
        assert rootfs.content["/sg"] == b"\0c\0\0d\0\0\0e\0\0\0\0f\0\0\0\0\0g"
    assert rootfs.entries["/etc/owned"].uname == "me"
    assert not [(read, data) for read in reads for data in data_spans
                if read[0] < data[1] and data[0] < read[1]]
    assert sum(end - start for start, end in reads) <= len(tar) - sum(
        imageio._blocks(end - start) for start, end in data_spans)


@pytest.mark.parametrize("stored", ["bytes", "tar", "gzip"])
def test_data_for_raises_once_the_stack_is_closed(tmp_path, stored):
    layer = make_layer_tar(BASE_MEMBERS)
    if stored == "bytes":
        stack = make_stack([layer])
    else:
        archive = make_oci_archive([layer], gzip_layers=stored == "gzip")
        _, stack = load_image_archive(_write(tmp_path, "img.tar", archive))
    with stack:
        rootfs = flatten_layers(stack)
        assert rootfs.data_for("/etc/issue")[:] == b"hello\n"
    with pytest.raises(ValueError, match="closed"):
        rootfs.data_for("/etc/issue")
    assert "/etc/issue" in rootfs.content


def _build(metadata: ImageMetadata, chunks, **options) -> bytes:
    """The image archive ``build_slim_image`` writes."""
    out = io.BytesIO()
    build_slim_image(metadata, chunks, out, **options)
    return out.getvalue()


class TestBuildSlimImage:
    METADATA = ImageMetadata(
        image_name="demo",
        tag="slim",
        architecture="amd64",
        os="linux",
        exposed_ports=frozenset({"8080/tcp"}),
        env_vars=("PATH=/usr/bin",),
        entrypoint=("/bin/sh",),
        cmd=("-c", "true"),
        working_dir="/srv",
        labels=(("team", "infra"),),
    )

    def _rootfs_tar(self):
        return make_layer_tar(
            [{"path": "/etc", "kind": "directory"}, {"path": "/etc/issue", "data": b"slim\n"}]
        )

    @pytest.mark.parametrize("layout", ["oci", "docker"])
    def test_round_trip_metadata(self, tmp_path, layout):
        tar = self._rootfs_tar()
        archive = _build(self.METADATA, [tar], layout=layout)
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        with stack:
            assert loaded == self.METADATA
            assert _tar_of_layer(stack.layers[0]) == tar
        assert stack.layers[0].diff_id == sha256(tar)

    def test_gzip_layer_round_trip(self, tmp_path):
        tar = self._rootfs_tar()
        archive = _build(self.METADATA, [tar], gzip_layer=True)
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        with stack:
            assert loaded == self.METADATA
            assert _tar_of_layer(stack.layers[0]) == tar

    def test_absent_entrypoint_stays_absent(self, tmp_path):
        metadata = ImageMetadata(
            image_name="noentry", tag="v1", architecture="amd64", os="linux"
        )
        archive = _build(metadata, [self._rootfs_tar()])
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        stack.close()
        assert loaded.entrypoint is None
        assert loaded.cmd is None

    def test_empty_rootfs_refused(self):
        empty = io.BytesIO()
        with tarfile.open(fileobj=empty, mode="w"):
            pass
        with pytest.raises(EmptyImageError):
            _build(self.METADATA, [empty.getvalue()])

    def test_deterministic_bytes(self):
        tar = self._rootfs_tar()
        assert _build(self.METADATA, [tar]) == _build(self.METADATA, [tar])

    def test_size_within_framing_overhead(self):
        tar = self._rootfs_tar()
        archive = _build(self.METADATA, [tar])
        overhead = len(archive) - len(tar)
        assert 0 < overhead < 20480  # headers, config, manifest, record padding

    def test_untagged_image(self, tmp_path):
        metadata = ImageMetadata(image_name="", tag="", architecture="arm64", os="linux")
        archive = _build(metadata, [self._rootfs_tar()])
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        stack.close()
        assert loaded.image_name == ""
        assert loaded.architecture == "arm64"


# --- the tar header codec ---------------------------------------------------

_HEADER_FIELDS = TarHeader._fields
# Segments that need a ustar prefix, a GNU long-name record or a pax path
# record once joined, or that are not ASCII (pax then writes hdrcharset).
_TAR_NAME = st.lists(st.sampled_from(["a", "b.c", "é", "\udcff", "d" * 60, "x" * 99]),
                     min_size=1, max_size=4).map("/".join)
# 8**7 and 2**40 need base-256 in GNU and a pax record in PAX; ustar cannot
# hold them and the member is left out.
_TAR_ID = st.sampled_from([0, 1000, 8**7 - 1, 8**7, 2**40])
_TAR_MEMBER = st.fixed_dictionaries({
    "kind": st.sampled_from(["file", "dir", "symlink", "hardlink", "fifo", "chr", "blk"]),
    "name": _TAR_NAME,
    "link": _TAR_NAME,
    "uid": _TAR_ID,
    "gid": _TAR_ID,
    "mtime": st.sampled_from([0, 1, 2**33, -1, 1.5]),
    "data": st.binary(max_size=1100),
    # The size a member without data blocks records: 2**40 is base-256.
    "size": st.sampled_from([0, 2**40]),
    "uname": st.sampled_from(["", "root", "ünï"]),
    # Records a pax member carries of its own; "size" repeats the data size.
    "pax": st.sampled_from([{}, {"uid": "x1"}, {"comment": "c"}, {"mtime": "1.25"}, "size"]),
})
_TAR_TYPES = {"file": tarfile.REGTYPE, "dir": tarfile.DIRTYPE, "symlink": tarfile.SYMTYPE,
              "hardlink": tarfile.LNKTYPE, "fifo": tarfile.FIFOTYPE, "chr": tarfile.CHRTYPE,
              "blk": tarfile.BLKTYPE}


def _tar_of(fmt, members, global_pax) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=fmt, pax_headers=global_pax) as tf:
        for m in members:
            ti = tarfile.TarInfo(m["name"])
            ti.type = _TAR_TYPES[m["kind"]]
            ti.uid, ti.gid, ti.mtime, ti.uname = m["uid"], m["gid"], m["mtime"], m["uname"]
            ti.linkname = m["link"] if m["kind"] in ("symlink", "hardlink") else ""
            ti.devmajor, ti.devminor = m["uid"], 3
            data = m["data"] if m["kind"] == "file" else None
            ti.size = len(data) if data is not None else m["size"]
            ti.pax_headers = {"size": str(ti.size)} if m["pax"] == "size" else dict(m["pax"])
            try:
                tf.addfile(ti, io.BytesIO(data) if data is not None else None)
            except ValueError:  # a field this format cannot hold; nothing was written
                pass
    return buf.getvalue()


def _pax_path_records(path: str) -> bytes:
    """The pax ``x`` header and records that give a member the path ``path``."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.PAX_FORMAT) as tf:
        tf.addfile(tarfile.TarInfo(path))
    with tarfile.open(fileobj=io.BytesIO(buf.getvalue())) as tf:
        return buf.getvalue()[:tf.getmembers()[0].offset_data - 512]


_SPLICED_PATH = "spliced/" + "s" * 100


def _patched(tar: bytes, patches) -> bytes:
    """Rewrite members the way other tar writers leave them: an old-style
    regular typeflag on a directory whose name ends in "/", a checksum summed
    over signed bytes, a zero size field under a pax size record, or a pax
    path record spliced in front of the member's own records."""
    try:
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            members = tf.getmembers()
    except tarfile.ReadError:
        return tar
    out = bytearray(tar)
    # Back to front, so that a splice leaves the offsets still to patch alone.
    for m, patch in reversed(list(zip(members, patches))):
        at = m.offset_data - 512
        if patch == "aregtype" and out[at + 156:at + 157] == tarfile.DIRTYPE \
                and out[at:at + 100].rstrip(b"\0").endswith(b"/"):
            out[at + 156] = 0
            rechecksum(out, at, signed=False)
        elif patch == "signed" and any(b >= 128 for b in out[at:at + 512]):
            rechecksum(out, at, signed=True)
        elif patch == "zero-size" and "size" in m.pax_headers:
            out[at + 124:at + 136] = b"0" * 11 + b"\0"
            rechecksum(out, at, signed=False)
        elif patch == "splice":
            out[m.offset:m.offset] = _pax_path_records(_SPLICED_PATH)
    return bytes(out)


_PLAIN_FILE = {"kind": "file", "name": "a", "link": "a", "uid": 0, "gid": 0, "mtime": 0,
               "data": b"abc", "size": 0, "uname": "root", "pax": {}}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([tarfile.USTAR_FORMAT, tarfile.GNU_FORMAT, tarfile.PAX_FORMAT]),
       st.lists(_TAR_MEMBER, max_size=8),
       st.sampled_from([None, {"comment": "g"}, {"uname": "glob"}]),
       st.lists(st.sampled_from([None, "aregtype", "signed", "zero-size", "splice"]), max_size=8))
@example(tarfile.GNU_FORMAT,
         [{"kind": "dir", "name": "é/" + "d" * 60, "link": "a", "uid": 2**40, "gid": 0,
           "mtime": -1, "data": b"", "size": 2**40, "uname": "ünï", "pax": {}}],
         None, ["signed"])
# ustar splits a 160-byte name into a prefix and a name.
@example(tarfile.USTAR_FORMAT, [{**_PLAIN_FILE, "name": "d" * 60 + "/" + "x" * 99}], None, [])
# A GNU long name of a directory ends in "/", which the member drops.
@example(tarfile.GNU_FORMAT, [{**_PLAIN_FILE, "kind": "dir", "name": "d" * 60 + "/" + "x" * 99}],
         None, [])
# A global record reaches a member that has no records of its own.
@example(tarfile.PAX_FORMAT, [_PLAIN_FILE], {"uname": "glob"}, [])
# The spliced pax path is read before the GNU long name, so it wins.
@example(tarfile.GNU_FORMAT, [{**_PLAIN_FILE, "name": "d" * 60 + "/" + "x" * 99}], None,
         ["splice"])
# Only the pax size record says where the next header starts.
@example(tarfile.PAX_FORMAT, [{**_PLAIN_FILE, "pax": "size"}, _PLAIN_FILE], None, ["zero-size"])
def test_read_tar_headers_matches_getmembers(fmt, members, global_pax, patches):
    tar = _patched(_tar_of(fmt if global_pax is None else tarfile.PAX_FORMAT, members,
                           global_pax), patches)
    try:
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            want = [tuple(getattr(m, f) for f in _HEADER_FIELDS) for m in tf.getmembers()]
    except tarfile.ReadError:  # a global record that no member follows
        with pytest.raises(TarHeaderError):
            list(read_tar_headers(tar))
        return
    assert [tuple(h) for h in read_tar_headers(tar)] == want


# Names and links from 95 to 105 bytes straddle the 100-byte field.
_HEADER_NAME = st.one_of(_TAR_NAME, st.integers(95, 105).map(lambda n: "n" * n))
# 2**70 overflows even base-256: both writers refuse it.
_HEADER_NUMBER = st.sampled_from([0, 7, 8**7 - 1, 8**7, 2**40, -1, 2**70])


@settings(max_examples=300, deadline=None)
@given(_HEADER_NAME, st.sampled_from(sorted(_TAR_TYPES.values())),
       st.sampled_from([0o644, 0o4755, 0o100755, 0o170777]), _HEADER_NUMBER, _HEADER_NUMBER,
       st.sampled_from([0, 512, 8**11, 2**40]), _HEADER_NUMBER, _HEADER_NAME,
       st.sampled_from(["", "root", "ünï", "u" * 40]), _HEADER_NUMBER, _HEADER_NUMBER)
# A 100-byte name fits its field; a 101-byte link needs a record. The mode
# loses its file-type bits, a negative gid is base-256, uname is cut to 32.
@example("n" * 100, tarfile.REGTYPE, 0o100755, 8**7, -1, 512, 2**33, "n" * 101, "u" * 40, 0, 0)
# The "/" a directory gets makes 99 bytes 100: still no record.
@example("n" * 99, tarfile.DIRTYPE, 0o755, 0, 0, 0, 0, "", "", 0, 0)
@example("n" * 100, tarfile.DIRTYPE, 0o755, 0, 0, 0, 0, "", "", 0, 0)
@example("dev", tarfile.CHRTYPE, 0o620, 0, 0, 0, 0, "", "", 8**7, -1)
def test_gnu_header_matches_tobuf(name, type_, mode, uid, gid, size, mtime, linkname, uname,
                                  devmajor, devminor):
    ti = tarfile.TarInfo(name)
    ti.type, ti.mode, ti.uid, ti.gid, ti.size, ti.mtime = type_, mode, uid, gid, size, mtime
    ti.linkname, ti.uname, ti.gname, ti.devmajor, ti.devminor = (
        linkname, uname, uname, devmajor, devminor)
    args = (name, type_, mode, uid, gid, size, mtime, linkname, uname, uname, devmajor, devminor)
    try:
        want = ti.tobuf(tarfile.GNU_FORMAT, tarfile.ENCODING, "surrogateescape")
    except ValueError:
        with pytest.raises(ValueError):
            gnu_header(*args)
        return
    assert gnu_header(*args) == want


class _CountingPattern:
    """A compiled pattern that counts its ``match`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


class TestTarHeaders:
    def _three(self) -> bytes:
        return make_layer_tar([{"path": f"/{c}", "data": c.encode()} for c in "abc"])

    def test_zero_layer_has_no_members(self):
        assert list(read_tar_headers(bytes(1024))) == []

    def test_empty_layer_is_an_error(self):
        with pytest.raises(TarHeaderError, match="empty"):
            list(read_tar_headers(b""))

    @pytest.mark.parametrize("at", [0, 1024, 2048])
    def test_bad_checksum_anywhere_is_an_error(self, at):
        tar = bytearray(self._three())
        tar[at + 1] ^= 0x01
        with pytest.raises(TarHeaderError, match=f"checksum in the header at offset {at}"):
            list(read_tar_headers(bytes(tar)))

    def test_partial_header_is_an_error(self):
        with pytest.raises(TarHeaderError, match="truncated header at offset 1024"):
            list(read_tar_headers(self._three()[:1024 + 300]))

    def test_partial_zero_block_ends_the_stream(self):
        tar = self._three()
        assert [h.name for h in read_tar_headers(tar[:3 * 1024 + 300])] == ["a", "b", "c"]

    def test_record_without_member_is_an_error(self):
        long_name = make_layer_tar([{"path": "/" + "n" * 150, "data": b""}])
        with pytest.raises(TarHeaderError, match="no member header follows"):
            list(read_tar_headers(long_name[:1024] + bytes(1024)))

    @pytest.mark.parametrize("kind", sorted(HOSTILE_PAX_RECORDS))
    def test_hostile_pax_records_are_refused_at_the_first(self, monkeypatch, kind):
        """The length pattern is matched once, over at most 21 bytes, and
        the first record's own bytes are the only others looked at."""
        length = _CountingPattern(imageio._PAX_LENGTH)
        monkeypatch.setattr(imageio, "_PAX_LENGTH", length)
        tar = make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records",
                               "data": HOSTILE_PAX_RECORDS[kind]}, {"path": "/a", "data": b"a"}])
        with pytest.raises(TarHeaderError, match="invalid pax record in the header at offset 0"):
            list(read_tar_headers(tar))
        assert length.calls == 1

    def test_each_pax_record_is_matched_once(self, monkeypatch):
        length = _CountingPattern(imageio._PAX_LENGTH)
        monkeypatch.setattr(imageio, "_PAX_LENGTH", length)
        tar = make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records",
                               "data": b"13 comment=x\n" * 1000 + b"10 uid=42\n"},
                              {"path": "/a", "data": b"a"}])
        assert [(h.name, h.uid) for h in read_tar_headers(tar)] == [("a", 42)]
        assert length.calls == 1001

    # The last holds a length past Python's 4300-digit limit for ``int``.
    @pytest.mark.parametrize("records", [b"4 a=\n", b"6 a=b\n\n", b"5 =b\n", b"6 ab\n\n",
                                         b"9 a=b\n", b"05a=b\n", b"6 a=b\n!",
                                         b"1" * 5000 + b" a=b\n"],
                             ids=["short", "stray-newline", "no-keyword", "no-equals",
                                  "no-closing-newline", "no-blank", "stray-byte", "int-limit"])
    def test_malformed_pax_record_is_an_error(self, records):
        tar = make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records", "data": records},
                              {"path": "/a", "data": b"a"}])
        with pytest.raises(TarHeaderError, match="invalid pax record"):
            list(read_tar_headers(tar))

    # Thirty regions fill an old GNU header and two extension blocks.
    @pytest.mark.parametrize("fmt, regions", [
        *((fmt, [(0, b"ab"), (10, b"cd")]) for fmt in _SPARSE_FORMATS),
        ("gnu", [(3, bytes([i])) for i in range(30)]),
        ("1.0", [(1, b"x")] * 100),
    ], ids=[*_SPARSE_FORMATS, "gnu-extended", "1.0-long-map"])
    def test_sparse_map_is_read(self, fmt, regions):
        """The map and real size are tarfile's, but for the empty entries of
        old GNU extension blocks, which tarfile drops; the data start after
        the extension blocks or the 1.0 map."""
        tar = _sparse_layer(fmt, regions, tail=5)
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            want = tf.getmembers()
        headers = list(read_tar_headers(tar))
        assert [h.name for h in headers] == [m.name for m in want] == ["a", "s", "b"]
        got = headers[1]
        assert [r for r in got.sparse if r != (0, 0)] == sparse_map(regions)
        assert [r for r in want[1].sparse if r != (0, 0)] == sparse_map(regions)
        assert (got.size, got.offset_data) == (want[1].size, want[1].offset_data)
        assert got.size == len(sparse_file_bytes(regions, 5))

    @pytest.mark.parametrize("kind", sorted(HOSTILE_PAX_RECORDS))
    def test_hostile_pax_records_after_a_sparse_member_are_refused(self, kind):
        with pytest.raises(TarHeaderError, match="invalid pax record"):
            list(read_tar_headers(hostile_pax_after_sparse(kind)))

    @pytest.mark.parametrize("damage", ["gnu-number", "gnu-extension-past-end", "0.1-number",
                                        "0.1-odd", "0.0-unpaired", "1.0-number",
                                        "1.0-past-data", "past-size", "past-data"])
    def test_damaged_sparse_map_is_an_error(self, damage):
        fmt = damage.partition("-")[0] if damage[0] in "g01" else "0.1"
        tar = bytearray(_sparse_layer(fmt, [(4, b"abc"), (2, b"de")], tail=1))
        at = 1024  # the sparse member's first block
        if damage == "past-data":
            # A region larger than the member's one data block.
            records = b"24 GNU.sparse.size=2000\n25 GNU.sparse.map=0,1000\n"
            tar = make_layer_tar([{"path": "/PaxHeader", "kind": "pax-records", "data": records},
                                  {"path": "/s", "data": b"abcde"}])
        elif damage == "gnu-number":
            tar[at + 386:at + 387] = b"9"
            rechecksum(tar, at, signed=False)
        elif damage == "gnu-extension-past-end":
            tar[at + 482] = 1
            rechecksum(tar, at, signed=False)
            del tar[at + 512:]
        else:
            old, new = {
                "0.1-number": (b"=4,3,9,2\n", b"=4,x,9,2\n"),
                "0.1-odd": (b"=4,3,9,2\n", b"=4,3,999\n"),
                "0.0-unpaired": (b"numbytes=2\n", b"numbyte=22\n"),
                "1.0-number": (b"\n9\n2\n", b"\n9\n-\n"),
                "1.0-past-data": (b"2\n4\n", b"9\n4\n"),
                "past-size": (b"=4,3,9,2\n", b"=4,3,9,4\n"),
            }[damage]
            assert tar.count(old) == 1
            tar = tar.replace(old, new)
        with pytest.raises(TarHeaderError):
            list(read_tar_headers(bytes(tar)))


@pytest.mark.parametrize("magic", ["gzip", "bz2", "xz"])
def test_compressed_bytes_under_the_tar_media_type(magic):
    tar = make_layer_tar([{"path": "/a", "data": b"1"}])
    packed = {"gzip": lambda d: gzip.compress(d, mtime=0), "bz2": bz2.compress,
              "xz": lzma.compress}[magic](tar)
    with make_stack([packed]) as stack:
        assert content_bytes(flatten_layers(stack).content) == {"/a": b"1"}


def test_plain_tar_named_like_a_magic_is_read_as_it_is():
    tar = make_layer_tar([{"path": "/BZh91AY", "data": b"1"}])
    assert flatten_layers(make_stack([tar])).content == {"/BZh91AY": b"1"}


@pytest.mark.skipif(shutil.which("tar") is None, reason="needs a tar program")
def test_emitted_stream_lists_with_system_tar(tmp_path):
    """The system ``tar``, a reader independent of tarfile, lists every
    emitted field: long names and links, base-256 ids, devices, hardlinks."""
    long_dir = "/opt/" + "long" * 30
    records = [
        FileRecord(path="/opt", kind="directory", mode=0o755),
        FileRecord(path=long_dir, kind="directory", mode=0o750, uid=2**21, gid=7),
        FileRecord(path=long_dir + "/f", kind="regular", mode=0o4755, size=600, uid=2**32 - 2,
                   mtime=2**33),
        FileRecord(path="/opt/z-hard", kind="hardlink", mode=0o644, link_target=long_dir + "/f"),
        FileRecord(path="/opt/sym", kind="symlink", mode=0o777, link_target="x" * 150),
        FileRecord(path="/opt/tty", kind="device", mode=0o620, devmajor=4, devminor=2**20),
        FileRecord(path="/opt/sda", kind="device", mode=0o660, devmajor=8, devminor=1,
                   block_device=True),
        FileRecord(path="/opt/pipe", kind="fifo", mode=0o600),
    ]
    rootfs = FlattenedRootfs(entries={r.path: r for r in records},
                             content={long_dir + "/f": b"z" * 600})
    retain = RetainList()
    for r in records:
        retain.add(r.path, "non-protected")
    archive = tmp_path / "slim.tar"
    archive.write_bytes(b"".join(emit_slim_rootfs(rootfs, retain)))
    listing = subprocess.run(
        ["tar", "--list", "--verbose", "--numeric-owner", "--file", str(archive)],
        capture_output=True, text=True, check=True, env={"TZ": "UTC", "LC_ALL": "C"},
    ).stdout.splitlines()
    f = long_dir.lstrip("/") + "/f"
    assert listing == [
        line.format(f=f, d=long_dir.lstrip("/"), x="x" * 150) for line in (
            "drwxr-xr-x 0/0               0 1970-01-01 00:00 opt/",
            "drwxr-x--- 2097152/7         0 1970-01-01 00:00 {d}/",
            "-rwsr-xr-x 4294967294/0    600 2242-03-16 12:56 {f}",
            "prw------- 0/0               0 1970-01-01 00:00 opt/pipe",
            "brw-rw---- 0/0             8,1 1970-01-01 00:00 opt/sda",
            "lrwxrwxrwx 0/0               0 1970-01-01 00:00 opt/sym -> {x}",
            "crw--w---- 0/0       4,1048576 1970-01-01 00:00 opt/tty",
            "hrw-r--r-- 0/0               0 1970-01-01 00:00 opt/z-hard link to {f}",
        )
    ]


# --- streaming decompression ------------------------------------------------

_GZIP_MEDIA = "application/vnd.oci.image.layer.v1.tar+gzip"
# What the one-shot decompressors raise on input they refuse.
_REFUSALS = (OSError, EOFError, ValueError, zlib.error, lzma.LZMAError)


def _gzip_member(data: bytes, flags: int, level: int) -> bytes:
    """One gzip member whose header carries the optional fields ``flags``
    names (reserved bits included, which readers ignore)."""
    header = b"\x1f\x8b\x08" + bytes([flags]) + bytes(4) + b"\x02\xff"
    if flags & gzip.FEXTRA:
        header += (3).to_bytes(2, "little") + b"abc"
    if flags & gzip.FNAME:
        header += b"layer.tar\0"
    if flags & gzip.FCOMMENT:
        header += b"note\0"
    if flags & gzip.FHCRC:
        header += (zlib.crc32(header) & 0xFFFF).to_bytes(2, "little")
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return (header + deflate.compress(data) + deflate.flush()
            + zlib.crc32(data).to_bytes(4, "little") + len(data).to_bytes(4, "little"))


@st.composite
def _compressed_blobs(draw):
    """1-3 members of one compression, each followed by 0-6 NULs, then maybe
    cut at any byte, maybe one byte flipped, and trailing garbage; decoded
    ``chunk`` bytes at a time, so members, headers and trailers straddle
    chunk boundaries."""
    kind = draw(st.sampled_from(["gzip", "bz2", "lzma"]))
    blob = b""
    for data in draw(st.lists(st.binary(max_size=3000) | st.binary(min_size=1, max_size=40).map(
            lambda b: b * 200), min_size=1, max_size=3)):
        if kind == "gzip":
            blob += _gzip_member(data, draw(st.integers(0, 255)), draw(st.sampled_from([0, 1, 9])))
        else:
            blob += {"bz2": bz2, "lzma": lzma}[kind].compress(data)
        blob += bytes(draw(st.integers(0, 6)))
    cut = draw(st.none() | st.integers(0, len(blob)))
    if cut is not None:
        blob = blob[:cut]
    if blob and draw(st.booleans()):
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    blob += draw(st.sampled_from([b"", b"\x1f", b"\x1f\x8b", b"BZh", b"\xfd7zXZ\x00", b"garbage"])
                 | st.binary(max_size=8))
    return blob, draw(st.sampled_from([1, 2, 7, 512, imageio._CHUNK]))


def _outcome(call):
    """What ``call`` returns, or the type and text of the refusal it raises."""
    try:
        return call()
    except (*_REFUSALS, TarHeaderError) as exc:
        return type(exc), str(exc)


def _one_shot_uncompressed(tar: bytes) -> bytes:
    """The tar stream in ``tar``, read the way the whole-buffer reader read
    it: decompressed by its magic in one call, or left as it is when it
    reads as a tar stream."""
    for magic, module in ((b"\x1f\x8b", gzip), (b"BZh", bz2), (b"\xfd7zXZ\x00", lzma)):
        if tar.startswith(magic):
            try:
                return module.decompress(tar)
            except _REFUSALS as exc:
                try:
                    next(read_tar_headers(tar), None)
                except TarHeaderError:
                    raise TarHeaderError(f"cannot decompress: {exc}") from exc
                break
    return tar


def _spooled(blob: bytes) -> bytes:
    spool, digest = imageio._decompress(blob, "gzip")
    try:
        tar = spool[0:len(spool)]
    finally:
        spool.close()
    assert digest == sha256(tar)
    return tar


def _layer_tar(blob: bytes, media_type: str) -> list:
    """The diff_id and tar stream of a layer stored as ``blob``, in a list,
    since a tuple ``_outcome`` is a refusal."""
    layer = imageio._layer_from_blob(blob, media_type, None)
    with LayerStack([layer]):
        return [layer.diff_id, _tar_of_layer(layer)]


# A bz2 stream whose combined CRC is damaged: its decoder gives all of its
# output before it refuses the stream.
_LATE_BAD_BZ2 = bytearray(bz2.compress(random.Random(3).randbytes(3000)))
_LATE_BAD_BZ2[-3] ^= 0x10


@settings(max_examples=300, deadline=None)
@given(_compressed_blobs())
@example((gzip.compress(b"a" * 700, mtime=0) + bytes(3) + gzip.compress(b"b", mtime=0), 7))
@example((gzip.compress(b"abc" * 99, mtime=0)[:-3], 512))
@example((_gzip_member(b"x" * 900, gzip.FNAME | gzip.FEXTRA | gzip.FHCRC | 0xE0, 9), 1))
@example((bz2.compress(b"a" * 99) + bytes(_LATE_BAD_BZ2), 512))
# A damaged bz2 stream that is refused only when its decoder is asked for
# the output it holds back after the last input byte.
@example((b"BZh91AY&SY0\xb0Db\x00\x00\x00\xc0@\xc0\x00\x00\x02\x00\x08 \x00!&A\x98\x1f", 1))
def test_streaming_decompression_matches_one_shot(case):
    """The gzip spool holds what ``gzip.decompress`` returns, and its digest
    is the diff_id of a layer under the gzip media type, whose tar stream is
    what the one-shot reader makes of the spool; under the tar media type
    the tar stream is what the one-shot reader returned. Each refuses what
    the one-shot call refuses, with the same error, and that error exits 3."""
    blob, chunk = case
    with mock.patch.object(imageio, "_CHUNK", chunk):
        spooled = _outcome(lambda: _spooled(blob))
        assert spooled == _outcome(lambda: gzip.decompress(blob))
        layer = _outcome(lambda: _layer_tar(blob, _GZIP_MEDIA))
        if isinstance(spooled, tuple):
            assert issubclass(spooled[0], imageio._LAYER_STREAM_ERRORS)
            assert layer == spooled
        else:
            assert layer == _outcome(lambda: [sha256(spooled), _one_shot_uncompressed(spooled)])
        uncompressed = _outcome(lambda: _layer_tar(blob, "application/vnd.oci.image.layer.v1.tar"))
        assert uncompressed == _outcome(lambda: [sha256(blob), _one_shot_uncompressed(blob)])
        if isinstance(uncompressed, tuple):
            assert issubclass(uncompressed[0], imageio._LAYER_STREAM_ERRORS)


# --- bounded memory ---------------------------------------------------------

_MIB = 1 << 20
# Allocations besides the data itself: decoder and compressor state, one
# chunk of input and output, file buffers, the model's records.
_SLACK = _MIB


def _eight_file_image(tmp_path):
    """A one-layer gzip OCI image of 8 files of 1 MiB each, outside the
    prune area, whose repetitive content compresses to a few KiB."""
    members = [{"path": "/data", "kind": "directory"}]
    members += [{"path": f"/data/f{i}", "data": random.Random(i).randbytes(4096) * 256}
                for i in range(8)]
    return _write(tmp_path, "img.tar", make_oci_archive([make_layer_tar(members)], gzip_layers=True))


def _traced_peak(call):
    """``call``'s result and the peak of traced allocations during the call,
    above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_load_holds_no_decompressed_layer(tmp_path):
    image = _eight_file_image(tmp_path)
    (_, stack), peak = _traced_peak(lambda: load_image_archive(image))
    assert peak < _MIB + _SLACK
    with stack:
        assert stack.layers[0].diff_id == sha256(_tar_of_layer(stack.layers[0]))


def test_gzip_slim_holds_one_file_at_a_time(tmp_path):
    """The rootfs holds references, not file bytes, and emit reads each
    retained file when it is written: 8 MiB of files, 1 MiB at a time."""
    image = _eight_file_image(tmp_path)
    result, peak = _traced_peak(lambda: slim_image(image, CommandTokenList(), tmp_path / "slim.tar",
                                                    gzip_layer=True))
    assert {f"/data/f{i}" for i in range(8)} <= result.retain.paths
    assert peak < _MIB + _SLACK


@pytest.mark.parametrize("layout,gzip_layer", [("docker", False), ("oci", True)])
def test_slim_holds_neither_a_whole_file_nor_the_output(tmp_path, layout, gzip_layer):
    """A retained 16 MiB ELF executable is parsed from its head and written
    a chunk at a time, and the slim layer and the archive go to files, so
    the whole run holds a few chunks: far less than the file or the
    output."""
    big = make_elf(needed=["libc.so.6"], filler=random.Random(7).randbytes(4096) * 4096)
    members = [*shell_chain_members(), {"path": "/usr/bin/big", "data": big, "mode": 0o755}]
    image = _write(tmp_path, "img.tar", make_docker_archive([make_layer_tar(members)]))
    del members
    ctl = CommandTokenList()
    ctl.add("big", "exec-argument", "test")
    out = tmp_path / "slim.tar"
    result, peak = _traced_peak(
        lambda: slim_image(image, ctl, out, layout=layout, gzip_layer=gzip_layer))
    assert "/usr/bin/big" in result.retain.paths
    assert peak < 4 * _MIB
    _, stack = load_image_archive(out)
    with stack:
        assert flatten_layers(stack).data_for("/usr/bin/big")[:] == big


def test_retained_sparse_file_is_laid_out_once(tmp_path):
    """``--conservative`` keeps a sparse file of one stored byte that
    declares 16 MiB; it is laid out once to be written, not copied."""
    size = 16 * _MIB
    members = [*shell_chain_members(), {"path": "/usr/lib/sparse.img", "kind": "sparse",
                                        "format": "0.1", "regions": [(0, b"x")], "tail": size - 1}]
    image = _write(tmp_path, "img.tar", make_docker_archive([make_layer_tar(members)]))
    out = tmp_path / "slim.tar"
    result, peak = _traced_peak(
        lambda: slim_image(image, CommandTokenList(), out, conservative=True))
    assert "/usr/lib/sparse.img" in result.retain.paths
    assert peak < 1.5 * size
