"""Exception hierarchy shared across the package."""


class RainbowNetError(Exception):
    """Base class for errors raised by this package."""


class ScenarioError(RainbowNetError):
    """A scenario document failed to parse or validate."""


class FlowDocumentError(RainbowNetError):
    """A flow document failed to parse or validate against its network."""


class SearchSizeError(RainbowNetError):
    """A search refused an instance larger than one of its enumeration guards.

    The guards bound the paths enumerated, the exact search's signature
    closure and its candidate colorings.
    """


class CodecError(RainbowNetError):
    """Description encoding or decoding failed."""
