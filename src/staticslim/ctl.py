"""The command token list (CTL): the one artefact the two stages share.

Static analysis of a project (``analyzer``) yields a CTL: the command words
its code can run, each with where it came from, plus the sink calls whose
argument stays unresolved. The image stage (``pruner``) matches a CTL
against the image's command chains. Both stages import this module, and
neither owns it; its file format is one token per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import AnalysisError

PROVENANCE_EXEC = "exec-argument"
PROVENANCE_SHELL = "shell-script"
PROVENANCE_ENTRYPOINT = "entrypoint-script"


@dataclass
class CommandToken:
    token: str
    provenance: str
    origin: str  # file:line

    def __post_init__(self):
        if not self.token or any(ch.isspace() for ch in self.token):
            raise ValueError(f"command token must be non-empty and whitespace-free: {self.token!r}")


@dataclass
class CommandTokenList:
    tokens: list[CommandToken] = field(default_factory=list)
    unresolved_sinks: list[str] = field(default_factory=list)
    _texts: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._texts = {t.token for t in self.tokens}

    def token_texts(self) -> list[str]:
        return [t.token for t in self.tokens]

    def add(self, token: str, provenance: str, origin: str) -> None:
        if token in self._texts:
            return
        self.tokens.append(CommandToken(token=token, provenance=provenance, origin=origin))
        self._texts.add(token)

    def write_text(self, path) -> None:
        Path(path).write_text("".join(t.token + "\n" for t in self.tokens))

    @staticmethod
    def read_text(path) -> "CommandTokenList":
        """Read a CTL file: one token per line, blank lines and ``#`` comments
        skipped. A file that is not UTF-8 text of such lines raises
        ``AnalysisError`` naming ``path:line``."""
        data = Path(path).read_bytes()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            # The bytes before the bad one decode; a character put in its place
            # lands on the bad byte's line.
            lineno = len((data[: exc.start].decode() + "?").splitlines())
            raise AnalysisError(f"{path}:{lineno}: not UTF-8 text") from exc
        ctl = CommandTokenList()
        for lineno, line in enumerate(text.splitlines(), start=1):
            word = line.strip()
            if word and not word.startswith("#"):
                try:
                    ctl.add(word, PROVENANCE_EXEC, f"{path}:{lineno}")
                except ValueError as exc:
                    raise AnalysisError(f"{path}:{lineno}: {exc}") from exc
        return ctl

    def report(self) -> dict:
        return {
            "tokens": [
                {"token": t.token, "provenance": t.provenance, "origin": t.origin}
                for t in self.tokens
            ],
            "unresolved_sinks": list(self.unresolved_sinks),
        }
