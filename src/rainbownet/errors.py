"""Exception hierarchy shared across the package."""


class RainbowNetError(Exception):
    """Base class for errors raised by this package."""


class ScenarioError(RainbowNetError):
    """A scenario document failed to parse or validate."""


class FlowDocumentError(RainbowNetError):
    """A flow document failed to parse or validate against its network."""


class SearchSizeError(RainbowNetError):
    """A search stopped at one of its work guards.

    The guards bound the partial paths the walk visits, the unions the exact
    search's closure builds and the subset tests it makes on them, and the
    candidates its coloring scan visits.
    """


class CodecError(RainbowNetError):
    """Description encoding or decoding failed."""
