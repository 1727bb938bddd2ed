"""Seeded generators for the two project workloads of the benchmark.

A project is an installed Node.js tree: ``package.json`` manifests, hoisted
and nested ``node_modules`` with duplicate versions, realistic JavaScript
(strings with escapes, templates, regex literals, comments, classes, arrow
functions) and a few shell scripts. Exec-family calls are planted from a
small set of argument shapes whose possible command strings the generator
knows by construction, so ``truth.json`` holds the CTL token set and the
number of sinks whose argument has no constant text at all. Nothing here
imports staticslim.

An argument value is modelled as a list of variants; each variant is a
list of segments, a string or ``DYN`` for text only known at run time. The
CTL tokens of a sink are the whitespace-separated words of every fully
constant variant and of every constant run of a partly dynamic one.
"""

from __future__ import annotations

import json
import posixpath
import random
from dataclasses import dataclass, field
from pathlib import Path

DYN = None
SINKS = ("exec", "execSync", "execFile", "execFileSync", "spawn", "spawnSync")

_WORDS = (
    "alpha beta gamma delta config value server client request response "
    "buffer stream module router render cache index record entry table "
    "column field string number object array error warning notice parse "
    "format merge queue token socket header cookie session logger"
).split()
_COMMANDS = (
    "git tar gzip curl wget convert ffmpeg python3 node npm yarn make gcc "
    "rsync ssh scp openssl unzip zip sed awk grep find xargs sort uniq "
    "docker kubectl psql mysql redis-cli pg_dump identify gs pdftotext "
    "chmod chown mkdir cp mv rm ln cat head tail tee bash sh env which"
).split()
_FLAGS = "-v -q -f -r -x -c -z -n -l -a --version --help --quiet --force --json --no-color -rf -xzf -C -o".split()
_ARGS = "HEAD main origin archive.tgz out.png input.txt ./build /tmp/cache 50% status log".split()


@dataclass
class Value:
    variants: list[list]

    def tokens(self) -> set[str]:
        out: set[str] = set()
        for variant in self.variants:
            runs, buf = [], []
            for seg in variant:
                if seg is DYN:
                    runs.append("".join(buf))
                    buf = []
                else:
                    buf.append(seg)
            runs.append("".join(buf))
            for run in runs:
                out.update(run.split())
        return out

    def unresolved(self) -> bool:
        return all(all(seg is DYN or not seg.strip() for seg in v) for v in self.variants)


@dataclass
class JsFile:
    """Source text under construction plus the truth of its planted sinks."""

    rng: random.Random
    lines: list[str] = field(default_factory=list)
    tokens: set[str] = field(default_factory=set)
    unresolved: int = 0
    counter: int = 0
    names: list[str] = field(default_factory=list)

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def plant(self, value: Value) -> None:
        self.tokens |= value.tokens()
        self.unresolved += value.unresolved()


def _q(text: str) -> str:
    return json.dumps(text)


def _command_line(rng: random.Random) -> str:
    words = [rng.choice(_COMMANDS)]
    for _ in range(rng.randint(0, 3)):
        words.append(rng.choice(_FLAGS + _ARGS))
    return " ".join(words)


def _sink_call(rng: random.Random, arg: str) -> str:
    sink = rng.choice(SINKS)
    receiver = rng.choice(("cp.", "childProcess.", "require(\"child_process\")."))
    rest = rng.choice(("", ", { stdio: \"inherit\" }", ", [\"--\"], opts", ", (err, out) => done(err, out)"))
    return f"{receiver}{sink}({arg}{rest});"


# --- sink argument shapes ----------------------------------------------------------


def sink_literal(f: JsFile) -> None:
    text = _command_line(f.rng)
    f.lines.append(_sink_call(f.rng, _q(text)))
    f.plant(Value([[text]]))


def sink_decl_chain(f: JsFile, depth: int) -> None:
    """``const a = "git"; const b = a + " -C"; ... exec(b + " status")``."""
    first = f.rng.choice(_COMMANDS)
    name = f.fresh("cmdBase")
    f.lines.append(f"const {name} = {_q(first)};")
    text = first
    for _ in range(depth):
        part = " " + f.rng.choice(_FLAGS)
        nxt = f.fresh("cmdStep")
        f.lines.append(f"const {nxt} = {name} + {_q(part)};")
        text += part
        name = nxt
    tail = " " + f.rng.choice(_ARGS)
    f.lines.append(_sink_call(f.rng, f"{name} + {_q(tail)}"))
    f.plant(Value([[text + tail]]))


def sink_template(f: JsFile) -> None:
    binary = f.rng.choice(_COMMANDS)
    flag = f.rng.choice(_FLAGS)
    bname = f.fresh("bin")
    fname = f.fresh("flag")
    f.lines.append(f"const {bname} = {_q(binary)};")
    f.lines.append(f"let {fname} = {_q(flag)};")
    arg = f.rng.choice(_ARGS)
    f.lines.append(_sink_call(f.rng, f"`${{{bname}}} ${{{fname}}} {arg}`"))
    f.plant(Value([[f"{binary} {flag} {arg}"]]))


def sink_conditional(f: JsFile) -> None:
    a, b = f.rng.sample(_COMMANDS, 2)
    name = f.fresh("shellCmd")
    f.lines.append(f"const {name} = process.platform === \"win32\" ? {_q(a)} : {_q(b)};")
    f.lines.append(_sink_call(f.rng, name))
    f.plant(Value([[a], [b]]))


def sink_assignment(f: JsFile) -> None:
    a, b = f.rng.sample(_COMMANDS, 2)
    b = b + " " + f.rng.choice(_FLAGS)
    name = f.fresh("tool")
    f.lines += [
        f"let {name};",
        f"if (opts.{f.rng.choice(_WORDS)}) {{",
        f"  {name} = {_q(a)};",
        "} else {",
        f"  {name} = {_q(b)};",
        "}",
        _sink_call(f.rng, name),
    ]
    f.plant(Value([[a], [b]]))


def sink_fallback(f: JsFile) -> None:
    default = f.rng.choice(_COMMANDS)
    name = f.fresh("runner")
    env = f.rng.choice(("PYTHON", "SHELL", "EDITOR", "BUILD_TOOL"))
    f.lines.append(f"const {name} = process.env.{env} || {_q(default)};")
    f.lines.append(_sink_call(f.rng, name))
    f.plant(Value([[DYN], [default]]))


def sink_partial(f: JsFile) -> None:
    """Constant head, dynamic tail: ``exec("npm run " + script)``."""
    head = f.rng.choice(_COMMANDS) + " " + f.rng.choice(_FLAGS) + " "
    name = f.fresh("script")
    f.lines.append(f"const {name} = process.argv[2];")
    f.lines.append(_sink_call(f.rng, f"{_q(head)} + {name}"))
    f.plant(Value([[head, DYN]]))


def sink_params(f: JsFile, depth: int) -> None:
    """Call-site parameter binding, ``depth`` functions deep."""
    inner = f.fresh("runTool")
    param = f.fresh("command")
    suffix = " " + f.rng.choice(_FLAGS)
    f.lines.append(f"function {inner}({param}, options) {{")
    f.lines.append(f"  return {_sink_call(f.rng, f'{param} + {_q(suffix)}')}")
    f.lines.append("}")
    callee, values = inner, []
    for _ in range(depth - 1):
        outer = f.fresh("wrapTool")
        p = f.fresh("name")
        extra = " " + f.rng.choice(_FLAGS)
        f.lines.append(f"function {outer}({p}) {{")
        f.lines.append(f"  return {callee}({p} + {_q(extra)}, {{ cwd: __dirname }});")
        f.lines.append("}")
        suffix = extra + suffix
        callee = outer
    for _ in range(f.rng.randint(1, 3)):
        if f.rng.random() < 0.4:
            a, b = f.rng.sample(_COMMANDS, 2)
            f.lines.append(f"{callee}(opts.{f.rng.choice(_WORDS)} ? {_q(a)} : {_q(b)});")
            values += [[a + suffix], [b + suffix]]
        else:
            cmd = f.rng.choice(_COMMANDS)
            f.lines.append(f"{callee}({_q(cmd)});")
            values.append([cmd + suffix])
    f.plant(Value(values))


def sink_branchy(f: JsFile, depth: int) -> None:
    """A declarator chain that doubles its variants at every step (at most 8)."""
    a, b = f.rng.sample(_COMMANDS, 2)
    name = f.fresh("cmdPick")
    f.lines.append(f"const {name} = opts.{f.rng.choice(_WORDS)} ? {_q(a)} : {_q(b)};")
    variants = [a, b]
    for _ in range(depth - 1):
        x, y = (" " + flag for flag in f.rng.sample(_FLAGS, 2))
        nxt = f.fresh("cmdFork")
        f.lines.append(f"const {nxt} = opts.{f.rng.choice(_WORDS)} ? {name} + {_q(x)} : {name} + {_q(y)};")
        variants = [v + x for v in variants] + [v + y for v in variants]
        name = nxt
    f.lines.append(_sink_call(f.rng, name))
    f.plant(Value([[v] for v in variants]))


def sink_dynamic(f: JsFile) -> None:
    """No constant text at all: the analysis must report it unresolved."""
    shape = f.rng.randrange(3)
    if shape == 0:
        f.lines.append(_sink_call(f.rng, f"process.env.{f.rng.choice(('CMD', 'HOOK', 'RUN'))}"))
    elif shape == 1:
        f.lines.append(_sink_call(f.rng, "req.body.command"))
    else:
        p = f.fresh("userCmd")
        f.lines.append(f"module.exports.{f.fresh('run')} = function ({p}) {{")
        f.lines.append(f"  return {_sink_call(f.rng, p)}")
        f.lines.append("};")
    f.plant(Value([[DYN]]))


# --- filler JavaScript -----------------------------------------------------------------


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def filler(f: JsFile, count: int, mention: bool = False) -> None:
    """Statements that contain no exec-family call."""
    rng = f.rng
    for _ in range(count):
        kind = rng.randrange(10)
        prev = rng.choice(f.names) if f.names else "0"
        name = f.fresh(rng.choice(_WORDS))
        if kind == 0:
            f.lines += ["/**", f" * {_words(rng, 8)}", f" * @param {{string}} {name}", " */"]
            continue
        if kind == 1:
            f.lines.append(f"// {_words(rng, 6)}")
            continue
        if kind == 2:
            f.lines.append(f"const {name} = \"{_words(rng, 3)} \\\"{rng.choice(_WORDS)}\\\" it's\";")
        elif kind == 3:
            f.lines.append(f"const {name} = `${{{prev}}} {_words(rng, 2)} ${{{prev} + 1}}`;")
        elif kind == 4:
            f.lines.append(f"const {name} = /^{rng.choice(_WORDS)}[-_]?\\d+(?:\\/[a-z]*)?$/i;")
        elif kind == 5:
            f.lines.append(f"const {name} = String({prev}).replace(/\\s+/g, \" \").split(\"/\").length / 2;")
        elif kind == 6:
            a, b = f.fresh("left"), f.fresh("right")
            f.lines += [
                f"function {name}({a}, {b}) {{",
                f"  if ({a} > {b}) {{",
                f"    return {a} / {b};",
                "  }",
                f"  return [{a}, {b}].map((x) => x * 2).filter(Boolean);",
                "}",
            ]
        elif kind == 7:
            cls = name.capitalize()
            f.lines += [
                f"class {cls} {{",
                "  constructor(opts) {",
                "    this.opts = Object.assign({}, opts);",
                f"    this.label = `{rng.choice(_WORDS)}:${{this.opts.id}}`;",
                "  }",
                "  get size() {",
                "    return this.opts.size || 0;",
                "  }",
                "}",
            ]
        elif kind == 8:
            f.lines.append(
                f"const {name} = {{ name: {_q(rng.choice(_WORDS))}, retries: {rng.randint(0, 9)}, "
                f"pattern: /{rng.choice(_WORDS)}/g, nested: {{ enabled: true }} }};"
            )
        else:
            f.lines.append(f"const {name} = (items) => items.filter(Boolean).join(\",\");")
        f.names.append(name)
    if mention:
        # Sink names in a comment or string: no call, but the package-level
        # textual prefilter still keeps the package.
        sink = rng.choice(SINKS)
        if rng.random() < 0.5:
            f.lines.append(f"// NOTE: {sink}() is avoided here; see the {rng.choice(_WORDS)} docs")
        else:
            f.lines.append(f"const {f.fresh('hint')} = \"call {sink}(cmd) from the CLI only\";")


# --- shell scripts -----------------------------------------------------------------------


def shell_script(rng: random.Random, entrypoint: bool) -> tuple[str, set[str]]:
    """A script built from words whose tokenization is known by construction."""
    tokens: set[str] = set()
    if rng.random() < 0.5:
        lines = ["#!/bin/sh"]
        tokens.add("/bin/sh")
    else:
        lines = ["#!/usr/bin/env bash"]
        tokens |= {"/usr/bin/env", "bash"}
    lines.append("set -e")
    tokens |= {"set", "-e"}
    lines.append("# " + _words(rng, 5))
    for _ in range(rng.randint(4, 9)):
        words = []
        for _ in range(rng.randint(1, 3)):
            cmd = [rng.choice(_COMMANDS)] + [rng.choice(_FLAGS) for _ in range(rng.randint(0, 2))]
            tokens.update(cmd)
            if rng.random() < 0.3:
                lit = rng.choice(_ARGS)
                cmd.append(f"\"{lit}\"")
                tokens.add(lit)
            if rng.random() < 0.3:
                cmd.append(rng.choice(("\"$APP_DIR\"", "$HOME/.cache", "\"$(date +%s)\"")))
            words.append(" ".join(cmd))
        lines.append(f" {rng.choice(('&&', '|', ';'))} ".join(words))
    if entrypoint:
        lines.append("exec \"$@\"")
        tokens.add("exec")
    return "\n".join(lines) + "\n", tokens


# --- project trees ---------------------------------------------------------------------


@dataclass
class Package:
    name: str
    version: str
    path: str  # relative to the project root
    deps: dict[str, str] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)  # relative path -> source
    tokens: set[str] = field(default_factory=set)
    unresolved: int = 0


def _manifest(pkg: Package) -> str:
    return json.dumps({"name": pkg.name, "version": pkg.version, "main": "index.js",
                       "dependencies": pkg.deps}, indent=2, sort_keys=True) + "\n"


def _installed(packages: dict[str, Package], name: str, start: str) -> Package | None:
    """Node's lookup: nearest ``node_modules/<name>`` walking up to the root."""
    current = start
    while True:
        candidate = posixpath.join(current, "node_modules", name) if current else f"node_modules/{name}"
        if candidate in packages:
            return packages[candidate]
        if not current:
            return None
        current = posixpath.dirname(current)
        while current and posixpath.basename(current) == "node_modules":
            current = posixpath.dirname(current)


def _reachable(root: Package, packages: dict[str, Package]) -> list[Package]:
    """Packages the dependency walk reaches from the root, root first."""
    reached = [root]
    seen = {root.path}
    queue = [(name, root.path) for name in sorted(root.deps)]
    while queue:
        name, wanted_by = queue.pop(0)
        pkg = _installed(packages, name, wanted_by)
        if pkg is None or pkg.path in seen:
            continue
        seen.add(pkg.path)
        reached.append(pkg)
        queue.extend((dep, pkg.path) for dep in sorted(pkg.deps))
    return reached


def _write_project(out: Path, root: Package, packages: dict[str, Package],
                   scripts: dict[str, tuple[str, set[str]]]) -> dict:
    """Write the tree; truth covers packages reachable from the root."""
    reached = _reachable(root, packages)
    js_files = 0
    for pkg in [root, *packages.values()]:
        base = out / pkg.path if pkg.path else out
        base.mkdir(parents=True, exist_ok=True)
        (base / "package.json").write_text(_manifest(pkg))
        for rel, text in pkg.files.items():
            target = base / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            js_files += rel.endswith(".js")
    tokens: set[str] = set()
    unresolved = 0
    for pkg in reached:
        tokens |= pkg.tokens
        unresolved += pkg.unresolved
    for rel, (text, words) in scripts.items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(text)
        if "node_modules/" not in rel:
            tokens |= words
    return {
        "command": "analyze",
        "ctl_tokens": sorted(tokens),
        "unresolved": unresolved,
        "units": js_files,
        "packages": len(reached),
    }


def _source(rng: random.Random, n_filler: int, sinks, mention: bool) -> JsFile:
    f = JsFile(rng)
    f.lines += ["\"use strict\";", "const cp = require(\"child_process\");",
                "const childProcess = cp;", "const opts = module.exports.opts || {};"]
    half = n_filler // 2
    filler(f, half)
    for plant in sinks:
        plant(f)
    filler(f, n_filler - half, mention)
    f.lines.append(f"module.exports = {{ {', '.join(f.names[:5])} }};")
    return f


def _add_source(pkg: Package, rel: str, f: JsFile) -> None:
    pkg.files[rel] = "\n".join(f.lines) + "\n"
    pkg.tokens |= f.tokens
    pkg.unresolved += f.unresolved


_NODE_SINKS = (sink_literal, sink_template, sink_conditional, sink_fallback, sink_partial,
               sink_assignment)


def gen_node_deps_project(out_dir: Path, seed: int, scale: float = 1.0) -> dict:
    """Deep installed tree; about 2% of files call a sink, many more mention one."""
    rng = random.Random(f"node-deps-project:{seed}")
    out = out_dir / "project"
    n_packages = max(4, int(110 * scale))
    names = [f"{rng.choice(_WORDS)}-{rng.choice(_WORDS)}-{i}" for i in range(n_packages)]
    packages: dict[str, Package] = {}
    for i, name in enumerate(names):
        pkg = Package(name, f"{rng.randint(1, 5)}.{rng.randint(0, 9)}.0", f"node_modules/{name}")
        later = names[i + 1:]
        for dep in rng.sample(later, min(len(later), rng.randint(0, 3))):
            pkg.deps[dep] = "^1.0.0"
        packages[pkg.path] = pkg
    # Duplicate versions: a nested copy shadows the hoisted one for its parent.
    for parent in rng.sample(list(packages.values()), max(1, n_packages // 6)):
        dup_name = rng.choice([n for n in names if n != parent.name and n not in parent.deps])
        nested = Package(dup_name, f"{rng.randint(6, 9)}.0.0", f"{parent.path}/node_modules/{dup_name}")
        packages[nested.path] = nested
        parent.deps[dup_name] = "^6.0.0"

    root = Package("bench-app", "1.0.0", "")
    for dep in rng.sample(names, max(1, n_packages // 5)):
        root.deps[dep] = "^1.0.0"
    reached = {p.path for p in _reachable(root, packages)}
    for pkg in packages.values():
        if pkg.path not in reached and pkg.path == f"node_modules/{pkg.name}":
            root.deps[pkg.name] = "^1.0.0"

    # Sizes do not depend on the seed: 40% of the dependencies mention a sink
    # name (so the package prefilter keeps them) and the file counts per
    # package come from fixed multisets; the seed only decides which package
    # gets what. Sink calls sit in about 2% of all files, inside kept packages.
    deps = list(packages.values())
    mention = rng.sample(deps, round(0.4 * len(deps)))
    quiet = [p for p in deps if p not in mention]
    n_files: dict[str, int] = {root.path: 10}
    for group in (mention, quiet):
        counts = [4 + (i * 5) % 13 for i in range(len(group))]
        rng.shuffle(counts)
        n_files.update((p.path, c) for p, c in zip(group, counts))
    slots = [(p.path, k) for p in [root, *mention] for k in range(n_files[p.path])]
    sink_slots = set(rng.sample(slots, max(1, round(0.02 * sum(n_files.values())))))
    mentioned = {p.path for p in mention}
    for pkg in [root, *deps]:
        count = n_files[pkg.path]
        for k in range(count):
            rel = "index.js" if k == 0 else f"{rng.choice(('lib', 'lib', 'dist', 'lib/util'))}/{rng.choice(_WORDS)}-{k}.js"
            sinks = []
            if (pkg.path, k) in sink_slots:
                sinks = [rng.choice(_NODE_SINKS) for _ in range(rng.randint(1, 2))]
                if rng.random() < 0.3:
                    sinks.append(sink_dynamic)
            flag = pkg.path in mentioned and k == count - 1
            _add_source(pkg, rel, _source(rng, rng.randint(20, 60), sinks, flag))
        if pkg is not root and rng.random() < 0.1:
            pkg.files["scripts/postinstall.sh"] = shell_script(rng, False)[0]
    # The root project always calls a couple of sinks.
    _add_source(root, "src/tasks.js", _source(rng, 20, [sink_literal, sink_partial, sink_dynamic], False))

    scripts = {
        "docker-entrypoint.sh": shell_script(rng, True),
        "scripts/build.sh": shell_script(rng, False),
        "scripts/release.sh": shell_script(rng, False),
    }
    truth = _write_project(out, root, packages, scripts)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))
    return truth


_DENSE_SINKS = (sink_literal, sink_template, sink_conditional, sink_fallback, sink_assignment)


def gen_exec_dense_project(out_dir: Path, seed: int, scale: float = 1.0) -> dict:
    """Small tree where most files call sinks through long resolution chains."""
    rng = random.Random(f"exec-dense-project:{seed}")
    out = out_dir / "project"
    packages: dict[str, Package] = {}
    root = Package("bench-tools", "1.0.0", "")
    for i in range(4):
        name = f"{rng.choice(_WORDS)}-runner-{i}"
        packages[f"node_modules/{name}"] = Package(name, "1.0.0", f"node_modules/{name}")
        root.deps[name] = "^1.0.0"
    n_files = max(2, int(120 * scale))
    owners = [root, *packages.values()]
    for k in range(n_files):
        pkg = owners[k % len(owners)]
        sinks = []
        for _ in range(rng.randint(8, 14)):
            roll = rng.random()
            if roll < 0.35:
                sinks.append(lambda f, d=rng.randint(2, 3): sink_branchy(f, d))
            elif roll < 0.65:
                sinks.append(lambda f, d=rng.randint(1, 3): sink_params(f, d))
            elif roll < 0.8:
                sinks.append(lambda f, d=rng.randint(2, 4): sink_decl_chain(f, d))
            elif roll < 0.96:
                sinks.append(rng.choice(_DENSE_SINKS))
            else:
                sinks.append(sink_dynamic)
        rel = f"lib/{rng.choice(_WORDS)}-{k}.js"
        _add_source(pkg, rel, _source(rng, rng.randint(2, 4), sinks, False))
    scripts = {"docker-entrypoint.sh": shell_script(rng, True)}
    truth = _write_project(out, root, packages, scripts)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))
    return truth
