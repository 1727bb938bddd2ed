"""Offline container image slimming driven by static source analysis."""

from .analyzer import (
    CommandToken,
    CommandTokenList,
    PackageRef,
    TaintPath,
    analyze_data_dependencies,
    analyze_project,
    enumerate_dependency_chain,
    extract_command_tokens,
)
from .elf import ElfClosure, read_dynamic_info, resolve_elf_dependencies
from .errors import (
    AnalysisError,
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    PruneConsistencyError,
    SlimError,
    UnknownNodeError,
    UnsupportedFormatError,
)
from .imageio import (
    FileRecord,
    FlattenedRootfs,
    ImageMetadata,
    LayerBlob,
    LayerStack,
    build_slim_image,
    flatten_layers,
    load_image_archive,
)
from .pruner import (
    PruneReport,
    RetainList,
    SlimResult,
    build_retain_list,
    compute_report,
    emit_slim_rootfs,
    match_tokens,
    slim_image,
)
from .rootfs import (
    CommandLinkedList,
    CommandNode,
    build_command_linked_list,
    collect_system_commands,
    expand_command_linked_list,
    resolve_chain,
)

__version__ = "0.1.0"
