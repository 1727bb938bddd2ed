"""Seeded generators for the two image workloads of the benchmark.

Everything here is built by hand from the standard library: layer tars,
synthetic ELF objects and the docker-save / OCI archive layouts. Nothing
imports staticslim. Each generator writes the input archive, a CTL file and
``truth.json``, the ground truth the output checker compares against:

* ``final_entries``: path -> kind of every entry of the flattened rootfs,
  derived from union-filesystem semantics applied to the generated layers;
* ``required``: paths the slim image must keep, derived from the
  generator's own model: the symlink chain of every CTL token that names a
  command (through any directory symlink a spelling crosses), hardlink
  targets, the ``PT_INTERP`` chain, the ``DT_NEEDED`` closure from the
  generator's dependency graph, and every parent directory of those;
* ``missing_libraries``: needed names the generator's graph leaves
  unresolved on purpose, for comparison with ``elf.missing_libraries``.

The same seed gives byte-identical archives: tar mtimes are fixed, gzip
headers carry no timestamp and every JSON document is written with sorted
keys.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import posixpath
import random
import struct
import tarfile
from dataclasses import dataclass, field
from pathlib import Path

MTIME = 1_700_000_000
INTERP = "/lib64/ld-linux-x86-64.so.2"
TRIPLET_DIR = "/usr/lib/x86_64-linux-gnu"
PATH_ENV = "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"
# Paths containing one of these substrings form the documented prune area.
PRUNE_MARKERS = ("/bin/", "/sbin/", "/lib/")

_WORDS = (
    "alpha beta gamma delta config value server client request response "
    "buffer stream module export import default option version license "
    "copyright package install update remove cache index record entry "
    "table column field string number object array error warning notice"
).split()


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# --- rootfs model --------------------------------------------------------------


@dataclass
class Entry:
    kind: str  # file | dir | symlink | hardlink
    mode: int = 0o644
    data: bytes = b""
    target: str = ""  # symlink text, or absolute hardlink target


@dataclass
class Layer:
    """One layer: whiteouts and opaque markers first, then entries."""

    entries: dict[str, Entry] = field(default_factory=dict)
    whiteouts: list[str] = field(default_factory=list)
    opaque_dirs: list[str] = field(default_factory=list)

    def dir(self, path: str, mode: int = 0o755) -> None:
        self.entries[path] = Entry("dir", mode)

    def file(self, path: str, data: bytes, mode: int = 0o644) -> None:
        self.entries[path] = Entry("file", mode, data=data)

    def symlink(self, path: str, target: str) -> None:
        self.entries[path] = Entry("symlink", 0o777, target=target)

    def hardlink(self, path: str, target: str, mode: int = 0o755) -> None:
        self.entries[path] = Entry("hardlink", mode, target=target)

    def parents(self, path: str, existing: dict[str, Entry]) -> None:
        """Add directory entries for every ancestor not yet present."""
        parent = posixpath.dirname(path)
        while parent != "/" and parent not in existing and parent not in self.entries:
            self.dir(parent)
            parent = posixpath.dirname(parent)


def apply_layers(layers: list[Layer]) -> dict[str, Entry]:
    """Union-filesystem result of applying the layers base first."""
    state: dict[str, Entry] = {}
    for layer in layers:
        for d in layer.opaque_dirs:
            prefix = d + "/"
            for p in [p for p in state if p.startswith(prefix)]:
                del state[p]
        for w in layer.whiteouts:
            prefix = w + "/"
            for p in [p for p in state if p == w or p.startswith(prefix)]:
                del state[p]
        for path, entry in layer.entries.items():
            old = state.get(path)
            if old is not None and old.kind == "dir" and entry.kind != "dir":
                prefix = path + "/"
                for p in [p for p in state if p.startswith(prefix)]:
                    del state[p]
            state[path] = entry
    return state


def layer_tar(layer: Layer) -> bytes:
    """GNU tar stream of one layer, members in a fixed order."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:

        def marker(name: str) -> None:
            ti = tarfile.TarInfo(name=name.lstrip("/"))
            ti.mtime = MTIME
            tf.addfile(ti, io.BytesIO(b""))

        for d in layer.opaque_dirs:
            marker(d + "/.wh..wh..opq")
        for w in layer.whiteouts:
            marker(posixpath.join(posixpath.dirname(w), ".wh." + posixpath.basename(w)))
        for path, e in layer.entries.items():
            ti = tarfile.TarInfo(name=path.lstrip("/"))
            ti.mtime = MTIME
            ti.mode = e.mode
            if e.kind == "file":
                ti.size = len(e.data)
                tf.addfile(ti, io.BytesIO(e.data))
                continue
            if e.kind == "dir":
                ti.type = tarfile.DIRTYPE
            elif e.kind == "symlink":
                ti.type = tarfile.SYMTYPE
                ti.linkname = e.target
            else:
                ti.type = tarfile.LNKTYPE
                ti.linkname = e.target.lstrip("/")
            tf.addfile(ti)
    return buf.getvalue()


# --- symlink resolution over the model ------------------------------------------


def lookup(state: dict[str, Entry], path: str, crossed: set[str]) -> str | None:
    """Physical path a spelling denotes with every ancestor resolved.

    Directory symlinks crossed on the way are added to ``crossed``. Returns
    None when the walk loops or an ancestor is missing.
    """
    parts = [p for p in path.split("/") if p]
    resolved = ""
    hops = 0
    i = 0
    while i < len(parts):
        nxt = resolved + "/" + parts[i]
        e = state.get(nxt)
        if e is not None and e.kind == "symlink" and i < len(parts) - 1:
            hops += 1
            if hops > 40:
                return None
            crossed.add(nxt)
            target = e.target if e.target.startswith("/") else posixpath.join(resolved or "/", e.target)
            parts = [p for p in posixpath.normpath(target).split("/") if p] + parts[i + 1:]
            resolved = ""
            i = 0
            continue
        resolved = nxt
        i += 1
    return resolved or "/"


def follow(state: dict[str, Entry], spelling: str, required: set[str]) -> str | None:
    """Follow a spelling through every symlink hop to its terminal entry.

    Every entry the kernel touches on the way goes into ``required``: each
    symlink hop, each directory symlink crossed, the terminal and, for a
    hardlink, the entry it names.
    """
    current = spelling
    for _ in range(40):
        physical = lookup(state, current, required)
        if physical is None or physical not in state:
            return None
        required.add(physical)
        e = state[physical]
        if e.kind == "symlink":
            base = posixpath.dirname(physical)
            current = e.target if e.target.startswith("/") else posixpath.join(base, e.target)
            current = posixpath.normpath(current)
            continue
        if e.kind == "hardlink":
            required.add(e.target)
            return e.target
        return physical
    return None


def with_parents(paths: set[str]) -> set[str]:
    out = set(paths)
    for p in paths:
        parent = posixpath.dirname(p)
        while parent not in ("", "/"):
            out.add(parent)
            parent = posixpath.dirname(parent)
    return out


# --- synthetic ELF ------------------------------------------------------------


@dataclass(frozen=True)
class ElfSpec:
    needed: tuple[str, ...] = ()
    interp: str | None = None
    runpath: str | None = None
    rpath: str | None = None
    dynamic: bool = True


def make_elf(spec: ElfSpec, filler: bytes = b"") -> bytes:
    """Minimal little-endian ELF64 image carrying the given dynamic facts."""
    vbase = 0x400000
    strtab = bytearray(b"\x00")

    def add_str(s: str) -> int:
        off = len(strtab)
        strtab.extend(s.encode() + b"\x00")
        return off

    dyn = [(1, add_str(n)) for n in spec.needed]  # DT_NEEDED
    if spec.rpath:
        dyn.append((15, add_str(spec.rpath)))
    if spec.runpath:
        dyn.append((29, add_str(spec.runpath)))
    interp = spec.interp.encode() + b"\x00" if spec.interp else b""
    phnum = 1 + (1 if spec.interp else 0) + (1 if spec.dynamic else 0)
    off_interp = 64 + 56 * phnum
    off_dyn = off_interp + len(interp)
    n_dyn = len(dyn) + 3 if spec.dynamic else 0
    off_strtab = off_dyn + 16 * n_dyn
    total = off_strtab + (len(strtab) if spec.dynamic else 0) + len(filler)

    def phdr(p_type: int, offset: int, size: int) -> bytes:
        return struct.pack("<IIQQQQQQ", p_type, 5, offset, vbase + offset, vbase + offset, size, size, 0x1000)

    phdrs = [phdr(1, 0, total)]
    if spec.interp:
        phdrs.append(phdr(3, off_interp, len(interp)))
    body = b""
    if spec.dynamic:
        phdrs.append(phdr(2, off_dyn, 16 * n_dyn))
        entries = dyn + [(5, vbase + off_strtab), (10, len(strtab)), (0, 0)]
        body = b"".join(struct.pack("<qQ", t, v) for t, v in entries) + bytes(strtab)
    ident = b"\x7fELF" + bytes([2, 1, 1, 0]) + b"\x00" * 8
    ehdr = ident + struct.pack("<HHIQQQIHHHHHH", 3, 0x3E, 1, vbase, 64, 0, 0, 64, 56, phnum, 0, 0, 0)
    out = ehdr + b"".join(phdrs) + interp + body + filler
    if len(out) != total:
        raise AssertionError("ELF layout arithmetic is off")
    return out


def elf_closure(
    state: dict[str, Entry],
    specs: dict[str, ElfSpec],
    binary: str,
    lib_dirs: tuple[str, ...],
    required: set[str],
) -> set[str]:
    """Loader view of one executable: PT_INTERP plus the DT_NEEDED closure.

    Adds every entry the loader opens to ``required``; returns the needed
    names found nowhere. ``$ORIGIN`` expands to the directory of the
    object's physical path, as ld.so does for a realpath'd executable.
    """
    missing: set[str] = set()
    root = specs.get(binary)
    if root is None or not root.dynamic:
        return missing
    if root.interp:
        follow(state, root.interp, required)
    queue = [binary]
    seen_objects = {binary}
    seen_names: set[str] = set()
    while queue:
        obj = queue.pop(0)
        spec = specs[obj]
        own = []
        for p in (spec.rpath or "").split(":") + (spec.runpath or "").split(":"):
            if p:
                own.append(posixpath.normpath(p.replace("$ORIGIN", posixpath.dirname(obj))))
        for name in spec.needed:
            if name in seen_names:
                continue
            seen_names.add(name)
            found = None
            for d in own + list(lib_dirs):
                hops: set[str] = set()
                terminal = follow(state, d + "/" + name, hops)
                if terminal is not None:
                    required.update(hops)
                    found = terminal
                    break
            if found is None:
                missing.add(name)
                continue
            if found not in seen_objects and found in specs and specs[found].dynamic:
                seen_objects.add(found)
                queue.append(found)
    return missing


# --- archive layouts --------------------------------------------------------------


def _add_bytes(tf: tarfile.TarFile, name: str, data: bytes) -> None:
    ti = tarfile.TarInfo(name=name)
    ti.size = len(data)
    ti.mode = 0o644
    ti.mtime = MTIME
    tf.addfile(ti, io.BytesIO(data))


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def image_config(layer_tars: list[bytes], config: dict) -> dict:
    return {
        "architecture": "amd64",
        "os": "linux",
        "config": config,
        "rootfs": {"type": "layers", "diff_ids": [sha256_digest(t) for t in layer_tars]},
    }


def docker_archive(layer_tars: list[bytes], config: dict, repo_tag: str) -> bytes:
    cfg = _json(image_config(layer_tars, config))
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:
        names = []
        for i, data in enumerate(layer_tars):
            names.append(f"layer{i}/layer.tar")
            _add_bytes(tf, names[-1], data)
        _add_bytes(tf, "config.json", cfg)
        manifest = [{"Config": "config.json", "RepoTags": [repo_tag], "Layers": names}]
        _add_bytes(tf, "manifest.json", _json(manifest))
    return buf.getvalue()


def oci_archive(layer_tars: list[bytes], config: dict, ref: str, gzip_layers: bool) -> bytes:
    blobs: dict[str, bytes] = {}

    def add(data: bytes) -> str:
        digest = sha256_digest(data)
        blobs[digest] = data
        return digest

    media = "application/vnd.oci.image.layer.v1.tar" + ("+gzip" if gzip_layers else "")
    layers = []
    for data in layer_tars:
        blob = gzip.compress(data, compresslevel=6, mtime=0) if gzip_layers else data
        layers.append({"mediaType": media, "digest": add(blob), "size": len(blob)})
    cfg = _json(image_config(layer_tars, config))
    manifest = _json({
        "schemaVersion": 2,
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "config": {"mediaType": "application/vnd.oci.image.config.v1+json",
                   "digest": add(cfg), "size": len(cfg)},
        "layers": layers,
    })
    mdigest = add(manifest)
    index = _json({"schemaVersion": 2, "manifests": [{
        "mediaType": "application/vnd.oci.image.manifest.v1+json",
        "digest": mdigest,
        "size": len(manifest),
        "annotations": {"org.opencontainers.image.ref.name": ref},
    }]})
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:
        _add_bytes(tf, "oci-layout", _json({"imageLayoutVersion": "1.0.0"}))
        _add_bytes(tf, "index.json", index)
        for digest in sorted(blobs):
            _add_bytes(tf, "blobs/sha256/" + digest.split(":", 1)[1], blobs[digest])
    return buf.getvalue()


# --- shared building blocks --------------------------------------------------------------


class TextPool:
    """Cheap deterministic file bodies: slices of one seeded word stream."""

    def __init__(self, rng: random.Random, size: int = 1 << 16):
        words = []
        total = 0
        while total < size:
            w = rng.choice(_WORDS)
            words.append(w)
            total += len(w) + 1
        self.text = " ".join(words).encode()
        self.rng = rng

    def body(self, path: str, mean: int) -> bytes:
        n = int(self.rng.expovariate(1.0 / mean)) + 16
        n = min(n, len(self.text) - 1)
        start = self.rng.randrange(0, len(self.text) - n)
        return path.encode() + b"\n" + self.text[start:start + n]


def write_outputs(out_dir: Path, archive: bytes, ctl: list[str], truth: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "input.tar").write_bytes(archive)
    (out_dir / "input.ctl").write_text("".join(t + "\n" for t in ctl))
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))


def slim_truth(
    state: dict[str, Entry],
    specs: dict[str, ElfSpec],
    tokens: list[str],
    search_dirs: tuple[str, ...],
    lib_dirs: tuple[str, ...],
) -> dict:
    """Required paths and missing libraries for a CTL."""
    required: set[str] = set()
    missing: set[str] = set()
    terminals = []
    for token in tokens:
        spellings = [token] if token.startswith("/") else [d + "/" + token for d in search_dirs]
        for spelled in spellings:
            hops: set[str] = set()
            physical = lookup(state, spelled, hops)
            if physical is None or physical not in state or state[physical].kind == "dir":
                continue
            terminal = follow(state, spelled, hops)
            if terminal is None:
                break
            required.update(hops)
            terminals.append(terminal)
            break
    for terminal in sorted(set(terminals)):
        missing |= elf_closure(state, specs, terminal, lib_dirs, required)
    return {
        "required": sorted(with_parents(required)),
        "final_entries": {p: e.kind for p, e in sorted(state.items())},
        "missing_libraries": sorted(missing),
        "prune_markers": list(PRUNE_MARKERS),
        "units": len(state),
    }


def _add_library(layer: Layer, directory: str, soname: str, real: str, spec: ElfSpec,
                 specs: dict[str, ElfSpec], filler: bytes) -> None:
    """A shared object file plus its SONAME symlink, both in ``directory``."""
    layer.file(f"{directory}/{real}", make_elf(spec, filler), 0o644)
    layer.symlink(f"{directory}/{soname}", real)
    specs[f"{directory}/{real}"] = spec


# --- workload: layered-data-image ---------------------------------------------------


def gen_layered_data_image(out_dir: Path, seed: int, scale: float = 1.0) -> dict:
    """OCI layout, four gzip layers, about ten thousand entries.

    Mostly data outside the prune area (``/usr/share``, ``/var``, ``/opt``)
    and a Node app at ``WorkingDir`` whose packages have ``lib/`` dirs; a few
    hundred commands and a handful of CTL tokens. Later layers overwrite,
    white out and opaque-reset what earlier layers wrote.
    """
    rng = random.Random(f"layered-data-image:{seed}")
    pool = TextPool(rng)
    specs: dict[str, ElfSpec] = {}
    n_data = int(6300 * scale)
    workdir = "/usr/src/app"

    base = Layer()
    for d in ("/bin", "/sbin", "/usr", "/usr/bin", "/usr/sbin", "/usr/local", "/usr/local/bin",
              "/lib", "/lib64", "/usr/lib", TRIPLET_DIR, "/etc", "/var", "/opt", "/usr/share", "/tmp"):
        base.dir(d)
    base.file(INTERP, make_elf(ElfSpec(dynamic=False), b"\x00" * 64), 0o755)
    base.file("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    base.file("/etc/passwd", b"root:x:0:0:root:/root:/bin/sh\n")
    libs = ["libc.so.6"]
    _add_library(base, TRIPLET_DIR, "libc.so.6", "libc-2.36.so", ElfSpec(), specs, b"\x00" * 128)
    for i in range(1, 30):
        soname = f"lib{rng.choice(_WORDS)}{i}.so.{rng.randint(0, 3)}"
        needed = ("libc.so.6",) + tuple(rng.sample(libs[1:], min(len(libs) - 1, rng.randint(0, 2))))
        _add_library(base, TRIPLET_DIR, soname, soname + ".0.0", ElfSpec(needed=needed), specs, b"\x00" * 96)
        libs.append(soname)

    commands: list[str] = []
    for i in range(int(300 * scale)):
        d = rng.choice(("/bin", "/usr/bin", "/usr/bin", "/usr/sbin", "/sbin"))
        name = f"{rng.choice(_WORDS)}{i}"
        needed = ("libc.so.6",) + tuple(rng.sample(libs[1:], rng.randint(0, 3)))
        spec = ElfSpec(needed=needed, interp=INTERP)
        base.file(f"{d}/{name}", make_elf(spec, b"\x00" * 64), 0o755)
        specs[f"{d}/{name}"] = spec
        commands.append(name)
    base.file("/bin/dash", make_elf(ElfSpec(needed=("libc.so.6",), interp=INTERP)), 0o755)
    specs["/bin/dash"] = ElfSpec(needed=("libc.so.6",), interp=INTERP)
    base.symlink("/bin/sh", "dash")

    data_dirs = []
    for i in range(int(n_data * 0.55)):
        top = rng.choice(("/usr/share/doc", "/usr/share/locale", "/usr/share/man", "/var/lib/dpkg/info", "/opt/vendor"))
        pkg = f"{top}/{rng.choice(_WORDS)}{rng.randint(0, 199)}"
        path = f"{pkg}/{rng.choice(_WORDS)}-{i}.txt"
        base.parents(path, {})
        base.file(path, pool.body(path, 3000))
        data_dirs.append(pkg)

    # Layer 1: the runtime, node plus the npm package and its lib/ tree.
    runtime = Layer()
    node_spec = ElfSpec(needed=("libc.so.6",) + tuple(rng.sample(libs[1:], 3)), interp=INTERP)
    runtime.file("/usr/local/bin/node", make_elf(node_spec, b"\x00" * 4096), 0o755)
    specs["/usr/local/bin/node"] = node_spec
    runtime.symlink("/usr/local/bin/npm", "../lib/node_modules/npm/bin/npm-cli.js")
    npm = "/usr/local/lib/node_modules/npm"
    for d in ("/usr/local/lib", "/usr/local/lib/node_modules", npm, npm + "/bin", npm + "/lib"):
        runtime.dir(d)
    runtime.file(npm + "/bin/npm-cli.js", b"#!/usr/bin/env node\nrequire('../lib/cli.js')\n", 0o755)
    for i in range(int(n_data * 0.1)):
        path = f"{npm}/lib/{rng.choice(_WORDS)}/{rng.choice(_WORDS)}-{i}.js"
        runtime.parents(path, base.entries)
        runtime.file(path, pool.body(path, 700))
    runtime.file("/usr/local/bin/docker-entrypoint.sh", b"#!/bin/sh\nset -e\nexec \"$@\"\n", 0o755)

    # Layer 2: the application at WorkingDir with its installed packages.
    app = Layer()
    app.parents(workdir + "/x", {**base.entries, **runtime.entries})
    app.file(workdir + "/package.json", b'{"name": "app", "version": "1.0.0"}\n')
    app.file(workdir + "/server.js", b"require('./lib/main.js')\n")
    app.dir(workdir + "/lib")
    for i in range(40):
        app.file(f"{workdir}/lib/{rng.choice(_WORDS)}-{i}.js", pool.body(str(i), 1200))
    app.dir(workdir + "/node_modules")
    packages = []
    n_app = int(n_data * 0.35)
    for i in range(n_app):
        if not packages or rng.random() < 0.03:
            pkg = f"{workdir}/node_modules/{rng.choice(_WORDS)}-{len(packages)}"
            packages.append(pkg)
            app.dir(pkg)
            app.file(pkg + "/package.json", b'{"name": "dep", "version": "1.0.0"}\n')
            app.dir(pkg + "/lib")
        pkg = rng.choice(packages)
        sub = rng.choice(("lib", "lib", "dist", "lib/internal"))
        path = f"{pkg}/{sub}/{rng.choice(_WORDS)}-{i}.js"
        app.parents(path, app.entries)
        app.file(path, pool.body(path, 2500))

    # Layer 3: clean-ups and rewrites of what earlier layers wrote.
    fix = Layer()
    doc_dirs = sorted({d for d in data_dirs if d.startswith("/usr/share/doc/")})
    for d in rng.sample(doc_dirs, max(1, len(doc_dirs) // 10)):
        fix.whiteouts.append(d)
    locale_dirs = sorted({d for d in data_dirs if d.startswith("/usr/share/locale/")})
    for d in rng.sample(locale_dirs, max(1, len(locale_dirs) // 10)):
        fix.opaque_dirs.append(d)
        fix.file(d + "/reset.txt", pool.body(d, 300))
    for pkg in rng.sample(packages, max(1, len(packages) // 8)):
        fix.opaque_dirs.append(pkg)
        fix.file(pkg + "/package.json", b'{"name": "dep", "version": "2.0.0"}\n')
        fix.dir(pkg + "/lib")
        fix.file(pkg + "/lib/index.js", pool.body(pkg, 1500))
    base_files = [p for p, e in base.entries.items() if e.kind == "file" and p.startswith("/var/")]
    for p in rng.sample(base_files, max(1, len(base_files) // 20)):
        fix.file(p, pool.body(p + "#v2", 900))
    fix.whiteouts.append(min(p for p in app.entries if p.startswith(workdir + "/lib/")))

    layers = [base, runtime, app, fix]
    state = apply_layers(layers)
    tars = [layer_tar(layer) for layer in layers]
    config = {
        "Env": ["PATH=" + PATH_ENV, "NODE_ENV=production"],
        "Entrypoint": ["docker-entrypoint.sh"],
        "Cmd": ["node", "server.js"],
        "WorkingDir": workdir,
    }
    archive = oci_archive(tars, config, "bench/layered-data:1", gzip_layers=True)
    ctl = ["sh", "node"] + rng.sample(commands, 4) + ["ls-missing", "-c", "install"]
    effective = ctl + ["docker-entrypoint.sh", "node", "server.js"]
    search = tuple(PATH_ENV.split(":"))
    truth = slim_truth(state, specs, effective, search, (TRIPLET_DIR, "/usr/lib"))
    truth.update(command="slim", layout="oci", gzip=True)
    write_outputs(out_dir, archive, ctl, truth)
    return truth


# --- workload: elf-command-image ---------------------------------------------------


def gen_elf_command_image(out_dir: Path, seed: int, scale: float = 1.0) -> dict:
    """docker-save layout, uncompressed layers, merged-usr, dense ELF graph.

    About 1.5k libraries with a tiered ``DT_NEEDED`` DAG (some
    ``RUNPATH``/``RPATH`` ``$ORIGIN`` entries and SONAME symlink hops) and
    about 1.7k commands, many reached through multi-hop alternatives-style
    symlink chains or hardlinks. File bodies are small.
    """
    rng = random.Random(f"elf-command-image:{seed}")
    specs: dict[str, ElfSpec] = {}
    n_libs = int(1500 * scale)
    n_cmds = int(1700 * scale)

    base = Layer()
    for d in ("/usr", "/usr/bin", "/usr/sbin", "/usr/lib", "/usr/lib64", TRIPLET_DIR,
              "/usr/local", "/usr/local/bin", "/etc", "/etc/alternatives", "/usr/share",
              "/var", "/tmp"):
        base.dir(d)
    for link, target in (("/bin", "usr/bin"), ("/sbin", "usr/sbin"), ("/lib", "usr/lib"), ("/lib64", "usr/lib64")):
        base.symlink(link, target)
    base.file(f"{TRIPLET_DIR}/ld-linux-x86-64.so.2", make_elf(ElfSpec(dynamic=False), b"\x00" * 32), 0o755)
    dash = ElfSpec(needed=("libc.so.6",), interp=INTERP)
    base.file("/usr/bin/dash", make_elf(dash), 0o755)
    base.symlink("/usr/bin/sh", "dash")
    specs["/usr/bin/dash"] = dash
    base.symlink("/usr/lib64/ld-linux-x86-64.so.2", "../lib/x86_64-linux-gnu/ld-linux-x86-64.so.2")
    base.file("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")

    # Libraries in tiers: each tier needs only libraries of lower tiers, so
    # closures stay bounded while still sharing most of their members.
    libs_layer = Layer()
    tiers: list[list[str]] = [[], [], [], [], []]
    shares = (0.01, 0.15, 0.25, 0.3, 0.29)
    n_tier = [max(2, int(n_libs * s)) for s in shares]
    plugin_dir = f"{TRIPLET_DIR}/plugins"
    libs_layer.dir(plugin_dir)
    for tier, count in enumerate(n_tier):
        for _ in range(count):
            i = sum(len(t) for t in tiers)
            soname = "libc.so.6" if i == 0 else f"lib{rng.choice(_WORDS)}{i}.so.{rng.randint(0, 9)}"
            needed: list[str] = []
            if i > 0:
                needed.append("libc.so.6")
            for lower in range(tier):
                pick = rng.randint(0, 2 if lower == tier - 1 else 1)
                needed.extend(rng.sample(tiers[lower], min(pick, len(tiers[lower]))))
            needed = list(dict.fromkeys(needed))
            runpath = rpath = None
            roll = rng.random()
            if tier >= 2 and roll < 0.08:
                # A plugin found only through the needing library's RUNPATH or RPATH.
                plug = f"libplug{i}.so"
                _add_library(libs_layer, plugin_dir, plug, plug + ".1", ElfSpec(needed=("libc.so.6",)),
                             specs, b"\x00" * 48)
                needed.append(plug)
                if roll < 0.05:
                    runpath = "$ORIGIN/plugins"
                else:
                    rpath = "$ORIGIN/plugins"
            spec = ElfSpec(needed=tuple(needed), runpath=runpath, rpath=rpath)
            real = soname + (".2.36" if i == 0 else ".1.0")
            _add_library(libs_layer, TRIPLET_DIR, soname, real, spec, specs, b"\x00" * 64)
            tiers[tier].append(soname)
    all_libs = [lib for tier in tiers for lib in tier]

    cmds_layer = Layer()
    commands: list[str] = []
    terminals: list[str] = []
    for i in range(n_cmds):
        d = rng.choice(("/usr/bin", "/usr/bin", "/usr/bin", "/usr/sbin", "/usr/local/bin"))
        name = f"{rng.choice(_WORDS)}-{i}"
        roll = rng.random()
        if roll < 0.04:
            spec = ElfSpec(dynamic=False)
        else:
            needed = ["libc.so.6"] + rng.sample(all_libs[1:], rng.randint(2, 6))
            if roll < 0.07:
                needed.append(f"libabsent{i}.so.1")  # an optional library the image lacks
            spec = ElfSpec(needed=tuple(dict.fromkeys(needed)), interp=INTERP)
        cmds_layer.file(f"{d}/{name}", make_elf(spec, b"\x00" * rng.randint(0, 256)), 0o755)
        specs[f"{d}/{name}"] = spec
        commands.append(name)
        terminals.append(f"{d}/{name}")

    # Chains: relative version links, alternatives, /bin spellings, hardlinks.
    chains_layer = Layer()
    names = set(commands)
    for i, terminal in enumerate(terminals):
        roll = rng.random()
        d, name = terminal.rsplit("/", 1)
        alias = f"{rng.choice(_WORDS)}{i}"
        if alias in names:
            continue
        if roll < 0.25:
            chains_layer.symlink(f"{d}/{alias}", name)
        elif roll < 0.40:
            mid = f"{alias}.v"
            chains_layer.symlink(f"{d}/{mid}", name)
            chains_layer.symlink(f"{d}/{alias}", mid)
            names.add(mid)
        elif roll < 0.55:
            chains_layer.symlink(f"/etc/alternatives/{alias}", terminal)
            chains_layer.symlink(f"/usr/bin/{alias}", f"/etc/alternatives/{alias}")
        elif roll < 0.62:
            spelled = "/bin/" + name if d == "/usr/bin" else terminal
            chains_layer.symlink(f"/usr/local/bin/{alias}", spelled)
        elif roll < 0.70:
            chains_layer.hardlink(f"{d}/{alias}", terminal)
        else:
            continue
        names.add(alias)
        commands.append(alias)

    data_layer = Layer()
    for i in range(int(150 * scale)):
        path = f"/usr/share/man/man1/{rng.choice(commands)}-{i}.1"
        data_layer.parents(path, base.entries)
        data_layer.file(path, f".TH {i}\n".encode())

    layers = [base, libs_layer, cmds_layer, chains_layer, data_layer]
    state = apply_layers(layers)
    tars = [layer_tar(layer) for layer in layers]
    config = {"Env": ["PATH=" + PATH_ENV], "Cmd": ["sh"]}
    archive = docker_archive(tars, config, "bench/elf-commands:1")

    picked = rng.sample(commands, min(len(commands), int(500 * max(scale, 0.1))))
    aliases = ["/bin/" + c for c in rng.sample(commands, 10) if lookup(state, "/usr/bin/" + c, set()) in state]
    absent = [f"absent-tool-{i}" for i in range(30)]
    ctl = picked + aliases + absent + ["-rf", "--verbose", "install"]
    rng.shuffle(ctl)
    search = tuple(PATH_ENV.split(":"))
    lib_dirs = (TRIPLET_DIR, "/usr/lib", "/usr/lib64")
    truth = slim_truth(state, specs, ctl + ["sh"], search, lib_dirs)
    truth.update(command="slim", layout="docker", gzip=False)
    write_outputs(out_dir, archive, ctl, truth)
    return truth
