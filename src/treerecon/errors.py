"""Exception hierarchy shared by all treerecon modules; the CLI's exit-code table."""


class TreeReconError(Exception):
    """Base class for all treerecon errors; the CLI exits with `exit_code`, which subclasses inherit."""

    exit_code = 5


class InvalidConfig(TreeReconError, ValueError):
    """A configuration value out of its valid range, NaN and infinities included."""


class Diverged(TreeReconError):
    """The optimisation reached a non-finite loss or point position."""


class MissingColors(TreeReconError):
    pass


class SpecMismatch(TreeReconError):
    exit_code = 4


class EmptyCloud(TreeReconError):
    exit_code = 3


class MissingTarget(TreeReconError):
    exit_code = 4


class EmptyFootprint(TreeReconError):
    exit_code = 3


class MalformedFile(TreeReconError):
    """Base for file parsing errors; carries an optional line number."""

    exit_code = 2

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
