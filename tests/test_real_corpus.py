"""Invariants of ``analyze`` on real code: the npm package, release 10.8.2.

The tree is ``$STATICSLIM_NPM_TREE`` when that is set (an unpacked
``npm pack npm@10.8.2``; the test fails when it holds another release), and
otherwise ``$(npm root -g)/npm``, which is skipped when absent or another
release. It is analyzed in place and only read. The tests assert
invariants, not counts, and that the lexer agrees with the reference lexer
on every source file the analyzer walks; the release is pinned so that a
new one, which may hold code the scanner cannot read yet, never changes
their outcome.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import reference_lexer
from staticslim.analyzer import DEFAULT_SINKS, analyze_project, enumerate_dependency_chain
from staticslim.jsmodule import tokenize


NPM_RELEASE = "10.8.2"


def _npm_tree() -> Path:
    """The pinned npm tree; skips the tests when none is configured or installed."""
    configured = os.environ.get("STATICSLIM_NPM_TREE")
    if configured:
        tree = Path(configured)
    else:
        npm = shutil.which("npm")
        if npm is None:
            pytest.skip("no npm on PATH and STATICSLIM_NPM_TREE is not set")
        found = subprocess.run([npm, "root", "-g"], capture_output=True, text=True, timeout=60)
        tree = Path(found.stdout.strip()) / "npm"
    try:
        release = json.loads((tree / "package.json").read_text())["version"]
    except (OSError, ValueError, KeyError) as exc:
        release = f"none ({exc})"
    if release != NPM_RELEASE:
        message = f"{tree} holds npm {release}, not {NPM_RELEASE}"
        if configured:
            pytest.fail(message)
        pytest.skip(message)
    return tree


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def npm_analysis():
    """The CTL of the npm tree and the warnings logged while analyzing it."""
    tree = _npm_tree()
    handler = _Messages()
    logger = logging.getLogger("staticslim")
    logger.addHandler(handler)
    try:
        ctl = analyze_project(tree)
    finally:
        logger.removeHandler(handler)
    return ctl, handler.messages


_SINK_PAREN = re.compile(rf"(?<![\w$])(?:{'|'.join(sorted(DEFAULT_SINKS))})\s*\(")
_AFTER_FUNCTION = re.compile(r"(?<![\w$])function\s*\*?\s*$")
_PARAMS_THEN_BODY = re.compile(r"\([^()]*\)\s*\{")


def _is_declaration_head(text: str, m: re.Match) -> bool:
    """Whether the sink name and "(" matched in one line of source follow
    ``function``, or open a one-line parameter list followed by "{"."""
    return bool(_AFTER_FUNCTION.search(text, 0, m.start()) or _PARAMS_THEN_BODY.match(text, m.end() - 1))


def test_no_file_fails_to_parse(npm_analysis):
    ctl, messages = npm_analysis
    assert ctl.tokens
    assert [m for m in messages if "cannot parse" in m] == []


def test_no_unresolved_sink_is_a_declaration_head(npm_analysis):
    ctl, _ = npm_analysis
    assert ctl.unresolved_sinks
    for location in ctl.unresolved_sinks:
        path, line = location.rsplit(":", 1)
        text = Path(path).read_text(errors="replace").split("\n")[int(line) - 1]
        calls = [m for m in _SINK_PAREN.finditer(text) if not _is_declaration_head(text, m)]
        assert calls, f"{location} holds only declaration heads: {text.strip()[:120]}"


def test_no_token_holds_a_quote(npm_analysis):
    ctl, _ = npm_analysis
    assert [t for t in ctl.token_texts() if "'" in t or '"' in t] == []


def test_every_source_file_lexes_as_the_reference_lexer_does():
    files = [src for pkg in enumerate_dependency_chain(_npm_tree()) for src in pkg.source_files]
    assert files
    mismatched = []
    for src in files:
        text = src.read_text(errors="replace")
        if reference_lexer.normalized(tokenize(text)) != reference_lexer.normalized(reference_lexer.tokenize(text)):
            mismatched.append(str(src))
    assert mismatched == []
