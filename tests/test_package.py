"""The package's public names: each is importable from ``staticslim``."""

from __future__ import annotations

import importlib

import pytest

import staticslim

# The names the package exports, by the module that defines them.
EXPORTS = {
    "analyzer": ["PackageRef", "analyze_project", "enumerate_dependency_chain",
                 "extract_command_tokens"],
    "ctl": ["CommandToken", "CommandTokenList"],
    "elf": ["read_dynamic_info"],
    "errors": ["AnalysisError", "EmptyImageError", "ImageFormatError", "IntegrityError",
               "LayerSecurityError", "OversizedFileError", "PruneConsistencyError", "SlimError",
               "SpoolError", "UnknownNodeError", "UnsupportedFormatError"],
    "imageio": ["FileRecord", "FlattenedRootfs", "ImageMetadata", "LayerBlob", "LayerStack",
                "build_slim_image", "flatten_layers", "load_image_archive"],
    "pruner": ["PruneReport", "RetainList", "SlimResult", "build_retain_list", "compute_report",
               "emit_slim_rootfs", "match_tokens", "slim_image"],
    "rootfs": ["CommandLinkedList", "CommandNode", "build_command_linked_list",
               "collect_system_commands", "expand_command_linked_list", "resolve_chain"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_exported_names():
    assert len(NAMES) == 40
    assert sorted(staticslim.__all__) == NAMES
    assert staticslim.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_the_object_in_its_module(module, name):
    defining = importlib.import_module(f"staticslim.{module}")
    assert getattr(staticslim, name) is getattr(defining, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from staticslim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(staticslim))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        staticslim.no_such_name
    assert not hasattr(staticslim, "no_such_name")
