"""Archive loading, layer flattening, and slim image building."""

from __future__ import annotations

import gzip
import io
import json
import random
import tarfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    default_config,
    flattened_snapshot,
    make_docker_archive,
    make_layer_tar,
    make_oci_archive,
    make_stack,
    sequential_apply_oracle,
    sha256,
    snapshot_dir,
)
from staticslim.errors import (
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    UnsupportedFormatError,
)
from staticslim.imageio import (
    FlattenedRootfs,
    ImageMetadata,
    LayerBlob,
    LayerStack,
    build_slim_image,
    flatten_layers,
    load_image_archive,
)

import reference_flatten


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


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
        assert [l.digest for l in stack.layers] == recorded
        assert stack.diff_ids == recorded

    def test_gzip_layers_diff_ids(self, tmp_path):
        layer = make_layer_tar(BASE_MEMBERS)
        archive = _write(tmp_path, "img.tar", make_oci_archive([layer], gzip_layers=True))
        _, stack = load_image_archive(archive)
        assert stack.layers[0].diff_id == sha256(layer)
        assert stack.layers[0].tar_bytes() == layer

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
_MEMBER = st.one_of(
    st.tuples(st.just("dir"), _PATH),
    st.tuples(st.just("file"), _PATH, st.binary(max_size=1100)),
    st.tuples(st.just("sparse"), _PATH, st.binary(min_size=1, max_size=20)),
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
            elif kind == "sparse":
                # GNU sparse 0.1 in PAX headers: the stored blocks hold only
                # the map's data; the file is its 12 bytes with holes as NULs.
                data = args[1]
                cut = len(data) // 2
                ti.pax_headers = {"GNU.sparse.map": f"0,{cut},12,{len(data) - cut}",
                                  "GNU.sparse.realsize": str(12 + len(data) - cut)}
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
        return LayerBlob(media, "", "", tar)
    return LayerBlob(media + "+gzip" if encoding == "gzip" else media, "", "", gzip.compress(tar, mtime=0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_MEMBER, max_size=12), _ENCODING), min_size=1, max_size=4))
@example([([("dir", "a"), ("file", "a/b", b"1"), ("file", "a-b", b"2"), ("file", "a.b", b"3"),
            ("file", "a0", b"4")], "tar"), ([("whiteout", "", "a")], "tar")])
@example([([("dir", "a"), ("file", "a/b", b"1"), ("file", "a0", b"2")], "tar"),
          ([("opaque", "a"), ("sparse", "a0", b"sparse")], "tar")])
@example([([("file", "a", b"1"), ("dir", "b"), ("file", "b/a", b"2")], "gzip"),
          ([("opaque", ""), ("file", "a0", b"z"), ("sparse", "b/s", b"xyz")], "gzip-as-tar")])
@example([([("dir", "a"), ("file", "a/b", b"x" * 512), ("hardlink", "b", "a/b")], "tar"),
          ([("whiteout", "", "a"), ("file", "a", b"now a file")], "tar")])
def test_flatten_matches_reference_flatten(layers):
    stack = LayerStack(layers=[_layer_blob(members, encoding) for members, encoding in layers])
    got = flatten_layers(stack)
    want = reference_flatten.flatten_layers(stack)
    assert got.entries == want.entries
    assert got.content == want.content
    assert got.warnings == want.warnings
    assert got.symlink_table == want.symlink_table
    assert got.total_size == want.total_size


def test_sparse_member_content_has_holes():
    stack = LayerStack(layers=[_layer_blob([("sparse", "s", b"abcd")], "tar")])
    assert flatten_layers(stack).content["/s"] == b"ab" + b"\0" * 10 + b"cd"


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
        archive = build_slim_image(self.METADATA, tar, layout=layout)
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        assert loaded == self.METADATA
        assert stack.layers[0].tar_bytes() == tar
        assert stack.layers[0].diff_id == sha256(tar)

    def test_gzip_layer_round_trip(self, tmp_path):
        tar = self._rootfs_tar()
        archive = build_slim_image(self.METADATA, tar, gzip_layer=True)
        loaded, stack = load_image_archive(_write(tmp_path, "out.tar", archive))
        assert loaded == self.METADATA
        assert stack.layers[0].tar_bytes() == tar

    def test_absent_entrypoint_stays_absent(self, tmp_path):
        metadata = ImageMetadata(
            image_name="noentry", tag="v1", architecture="amd64", os="linux"
        )
        archive = build_slim_image(metadata, self._rootfs_tar())
        loaded, _ = load_image_archive(_write(tmp_path, "out.tar", archive))
        assert loaded.entrypoint is None
        assert loaded.cmd is None

    def test_empty_rootfs_refused(self):
        empty = io.BytesIO()
        with tarfile.open(fileobj=empty, mode="w"):
            pass
        with pytest.raises(EmptyImageError):
            build_slim_image(self.METADATA, empty.getvalue())

    def test_deterministic_bytes(self):
        tar = self._rootfs_tar()
        assert build_slim_image(self.METADATA, tar) == build_slim_image(self.METADATA, tar)

    def test_size_within_framing_overhead(self):
        tar = self._rootfs_tar()
        archive = build_slim_image(self.METADATA, tar)
        overhead = len(archive) - len(tar)
        assert 0 < overhead < 20480  # headers, config, manifest, record padding

    def test_untagged_image(self, tmp_path):
        metadata = ImageMetadata(image_name="", tag="", architecture="arm64", os="linux")
        archive = build_slim_image(metadata, self._rootfs_tar())
        loaded, _ = load_image_archive(_write(tmp_path, "out.tar", archive))
        assert loaded.image_name == ""
        assert loaded.architecture == "arm64"
