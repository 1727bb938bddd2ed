"""The README's Python examples run as written against a fixture image."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import make_docker_archive, make_layer_tar, shell_chain_members
from staticslim.imageio import flatten_layers, load_image_archive

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fat.tar").write_bytes(make_docker_archive([make_layer_tar(shell_chain_members())]))
    (tmp_path / "myapp.ctl").write_text("sh\n")

    blocks = python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})

    # The slim_image block writes the slim archive and prints its table.
    _, stack = load_image_archive(tmp_path / "slim.tar")
    with stack:
        slim = flatten_layers(stack)
    assert "/usr/bin/dash" in slim.entries
    assert "/usr/bin/perl" not in slim.entries
    assert "slimming ratio" in capsys.readouterr().out

    # The stage-by-stage block builds the same archive.
    assert (tmp_path / "staged.tar").read_bytes() == (tmp_path / "slim.tar").read_bytes()
