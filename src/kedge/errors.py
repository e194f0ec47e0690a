"""Exception types shared across the package."""

from __future__ import annotations


class KedgeError(Exception):
    """Base class for package errors."""


class GraphFormatError(KedgeError):
    """A graph file or string could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationError(KedgeError):
    """A generator could not produce a graph with the requested properties."""


class ExtractionFailed(KedgeError):
    """The dense-subgraph extraction heuristic could not certify a result.

    Raised by `removal._extract`, the extraction behind both
    `extract_connected_subgraph` and `removable_tree_via_thomassen`, which
    pass it on; no wrong answer is returned in its place.  Nothing in the
    package catches it: a caller that wants a result anyway can run the
    exhaustive `find_removable_tree` itself.
    """


class TheoremViolation(KedgeError):
    """A verified counterexample to a checked statement.

    This is raised only after re-verification; it carries enough data to
    reproduce the configuration from scratch.
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = dict(payload or {})


class InternalCheckError(KedgeError):
    """A postcondition that should be mathematically impossible to break broke.

    Indicates a bug in this package, not in the statements under test.
    """
