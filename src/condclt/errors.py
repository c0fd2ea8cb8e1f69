"""The two exception classes that callers tell apart.

``cli.main`` maps a CondCltError raised while an experiment runs to exit 3;
``cli.check_args`` maps a TruncationError to exit 2, a configuration error.
"""


class CondCltError(Exception):
    """A numeric or range failure inside condclt."""


class TruncationError(CondCltError):
    """A Poisson truncation that fails its gate: no index, tail mass or PSD floor."""
