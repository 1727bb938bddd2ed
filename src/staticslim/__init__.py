"""Offline container image slimming driven by static source analysis."""

from .analyzer import (
    CommandToken,
    CommandTokenList,
    PackageRef,
    analyze_project,
    enumerate_dependency_chain,
    extract_command_tokens,
)
from .elf import read_dynamic_info
from .errors import (
    AnalysisError,
    EmptyImageError,
    ImageFormatError,
    IntegrityError,
    LayerSecurityError,
    OversizedFileError,
    PruneConsistencyError,
    SlimError,
    SpoolError,
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
