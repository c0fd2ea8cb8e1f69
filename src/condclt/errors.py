"""condclt's one exception class.  It carries no exit policy: ``cli.main`` sets
the exit code by the phase a failure happens in (2 before the run, 3 during it)."""


class CondCltError(Exception):
    """A numeric or range failure inside condclt."""
