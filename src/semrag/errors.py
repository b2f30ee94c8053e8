"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from SemragError so
callers (and the CLI) can separate expected failures from genuine bugs.
"""

from __future__ import annotations

from typing import Optional


class SemragError(Exception):
    """Base class for all package-specific errors."""


# --- document model ---------------------------------------------------------

class SchemaError(SemragError):
    """Input JSON violates the intermediate document schema.

    Carries a JSON-pointer style path to the offending location.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class SpanError(SemragError):
    """A cell span exits the table grid or overlaps another cell."""


class OrderError(SemragError):
    """reading_order is not a permutation of block indices."""


# --- layout compiler --------------------------------------------------------

class HeaderAmbiguityError(SemragError):
    """No header prefix is flagged and the detection heuristic cannot pick one."""


class NotFound(SemragError):
    """A requested header path matches no compiled table."""


# --- formula compiler -------------------------------------------------------

class UnsupportedConstructError(SemragError):
    """Equation source uses a construct outside the supported grammar."""

    def __init__(self, token: str, detail: str = ""):
        self.token = token
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"unsupported construct: {token}{suffix}")


class ParseError(SemragError):
    """Expression text does not parse; carries offset and expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"at offset {offset}: expected one of {sorted(expected)}, found {found!r}"
        )


class NotAnOperator(SemragError):
    """Subexpression reconstruction was asked for a non-operator node."""


# --- graph core -------------------------------------------------------------

class IdCollisionError(SemragError):
    """Two distinct payloads claim the same node id, or the same edge of
    fragments being merged."""


class EmptyAnchors(SemragError):
    """K-hop expansion called with no anchor nodes."""


class FormatVersionError(SemragError):
    """Persisted graph or bundle uses an unknown format version."""


class ChecksumError(SemragError):
    """Persisted content does not match its recorded checksum."""


# --- entropy index ----------------------------------------------------------

class EmptyGraph(SemragError):
    """Entropy is undefined on a graph with no edges."""


class InvalidPartition(SemragError):
    """Partition does not cover the graph's nodes exactly once."""


class NotAdjacent(SemragError):
    """Merge delta requested for two communities with no cross edge."""


class SummarizerError(SemragError):
    """Summarizer failed for a community; carries the community id."""

    def __init__(self, community_id: int, cause: Exception):
        self.community_id = community_id
        self.cause = cause
        super().__init__(f"summarizer failed for community {community_id}: {cause}")


# --- vectors and alignment --------------------------------------------------

class DimensionMismatch(SemragError):
    """Vector dimension differs from what the index or client expects."""


class NotADistribution(SemragError):
    """Divergence input is not a probability distribution."""


class DivergenceError(SemragError):
    """Training loss became non-finite."""


# --- query engine -----------------------------------------------------------

class EmptyIndex(SemragError):
    """Retrieval requested against an empty vector index."""


class NoMacroNodes(SemragError):
    """High route requested but the graph holds no macro nodes."""


class DanglingNode(SemragError):
    """Verbalization was asked for a node missing from the graph."""


# --- llm clients ------------------------------------------------------------

class HttpError(SemragError):
    """Remote call failed: no response, a non-200 status, or a body that is
    not JSON or lacks the expected fields. Carries the status (None without
    a response) and a body excerpt."""

    def __init__(self, status: Optional[int], body: str):
        self.status = status
        self.body = body[:200]
        super().__init__(self.body if status is None else f"HTTP {status}: {self.body}")


class MissingEndpoint(SemragError):
    """The remote client was asked for but no endpoint is configured;
    carries the name of the environment variable to set."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"online generation needs {variable} to be set")
