"""Exception hierarchy shared by all treerecon modules; the CLI's exit-code table.

Codes: 2 I/O failure or malformed file (a bare `OSError` shares `MalformedFile`'s
code; a negative manifest seed too), 3 empty or degenerate input, 4 input mismatch
(specs, missing targets), 5 the rest: invalid configuration (NaN and infinities
included), diverged optimisation, internal check failure, a `MemoryError` (a run too
large for the machine). Besides 0 (success), no other module writes an exit code.
"""


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


class EmptyInput(TreeReconError):
    """Base for empty or degenerate input."""

    exit_code = 3


class EmptyCloud(EmptyInput):
    pass


class MissingTarget(TreeReconError):
    exit_code = 4


class EmptyFootprint(EmptyInput):
    pass


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
