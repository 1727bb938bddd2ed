"""Offline container image slimming driven by static source analysis.

The package exports the public names of its stage modules but imports a
stage module only when one of its names is first used (PEP 562), so a
command loads only the stages it runs: ``staticslim analyze`` never loads
the image codec, the ELF parser or hashlib.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "analyzer": (
        "PackageRef",
        "analyze_project",
        "enumerate_dependency_chain",
        "extract_command_tokens",
    ),
    "ctl": ("CommandToken", "CommandTokenList"),
    "elf": ("read_dynamic_info",),
    "errors": (
        "AnalysisError",
        "EmptyImageError",
        "ImageFormatError",
        "IntegrityError",
        "LayerSecurityError",
        "OversizedFileError",
        "PruneConsistencyError",
        "SlimError",
        "SpoolError",
        "UnknownNodeError",
        "UnsupportedFormatError",
    ),
    "imageio": (
        "FileRecord",
        "FlattenedRootfs",
        "ImageMetadata",
        "LayerBlob",
        "LayerStack",
        "build_slim_image",
        "flatten_layers",
        "load_image_archive",
    ),
    "pruner": (
        "PruneReport",
        "RetainList",
        "SlimResult",
        "build_retain_list",
        "compute_report",
        "emit_slim_rootfs",
        "match_tokens",
        "slim_image",
    ),
    "rootfs": (
        "CommandLinkedList",
        "CommandNode",
        "build_command_linked_list",
        "collect_system_commands",
        "command_search_dirs",
        "expand_command_linked_list",
        "resolve_chain",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines a public name and cache the name here."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
