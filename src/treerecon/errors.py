"""Exception hierarchy shared by all treerecon modules."""


class TreeReconError(Exception):
    """Base class for all treerecon errors."""


class InvalidConfig(TreeReconError, ValueError):
    """A configuration value out of its valid range, NaN and infinities included."""


class InvalidSun(InvalidConfig):
    pass


class Diverged(TreeReconError):
    """The optimisation reached a non-finite loss or point position."""


class MissingColors(TreeReconError):
    pass


class SpecMismatch(TreeReconError):
    pass


class EmptyCloud(TreeReconError):
    pass


class MissingTarget(TreeReconError):
    pass


class EmptyFootprint(TreeReconError):
    pass


class MalformedFile(TreeReconError):
    """Base for file parsing errors; carries an optional line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class MalformedPly(MalformedFile):
    pass


class MalformedPfm(MalformedFile):
    pass


class MalformedPpm(MalformedFile):
    pass


class MalformedManifest(MalformedFile):
    pass
