"""Exception types shared across the slimming pipeline."""


class SlimError(Exception):
    """Base class for all errors raised by this package."""


class ImageFormatError(SlimError):
    """The archive does not follow the expected image layout.

    The message names the missing or malformed member.
    """


class UnsupportedFormatError(ImageFormatError):
    """The archive uses a layout variant we deliberately do not handle."""


class IntegrityError(SlimError):
    """A recomputed content digest does not match the stored digest."""


class LayerSecurityError(SlimError):
    """A layer tar entry would escape the virtual root."""


class OversizedFileError(SlimError):
    """A file of the image is too large to be laid out in memory."""


class SpoolError(SlimError):
    """A decompressed layer or archive cannot be written to its temporary file."""


class EmptyImageError(SlimError):
    """Refusing to build an image with an empty root filesystem."""


class AnalysisError(SlimError):
    """The project cannot be analyzed in its current state."""


class UnknownNodeError(SlimError):
    """A chain lookup referenced a node name that does not exist."""


class PruneConsistencyError(SlimError):
    """The retain list references a path absent from the rootfs.

    This is an internal invariant; hitting it is a bug, not a user error.
    """
