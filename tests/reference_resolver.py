"""Reference path resolver that walks one component at a time.

It is the oracle for ``staticslim.rootfs.resolve_entry``, which resolves the
parent directory of a spelling through a per-rootfs cache: both must give the
same physical path and the same ordered symlink trace. This is the original
uncached walk, unchanged.
"""

from __future__ import annotations

import posixpath

_MAX_LINK_HOPS = 64


def resolve_entry(rootfs, path: str, *, follow_last: bool = False,
                  trace: list[str] | None = None) -> str | None:
    """Walk ``path`` component by component, resolving symlinks.

    Ancestor directory symlinks are always followed; the final component is
    followed only when ``follow_last`` is set. Returns the physical path the
    spelling denotes, or None when a symlink loop exhausts the hop budget.
    Symlink entries crossed during the walk are appended to ``trace``.
    """
    budget = _MAX_LINK_HOPS
    stack = [c for c in reversed(path.split("/")) if c]
    resolved = "/"
    while stack:
        comp = stack.pop()
        if comp == ".":
            continue
        if comp == "..":
            resolved = posixpath.dirname(resolved) or "/"
            continue
        nxt = posixpath.join(resolved, comp)
        target = rootfs.symlink_table.get(nxt)
        if target is not None and (stack or follow_last):
            budget -= 1
            if budget <= 0:
                return None
            if trace is not None:
                trace.append(nxt)
            for c in reversed([c for c in target.split("/") if c]):
                stack.append(c)
            resolved = "/"
            continue
        resolved = nxt
    return resolved
