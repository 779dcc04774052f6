"""Rainbow network flows: colorings, spectra, admissibility, flow vectors.

A rainbow flow is a set of flow paths plus a coloring. The discrete variant
colors each path with one of K integer colors, each color carrying rate `r`;
the continuous variant attaches an `IntervalSet` to each path and measures
spectra with the exact interval measure. Relay nodes may duplicate packets,
so same-color paths sharing an edge consume that color's rate only once:
spectra are set unions, taken before measuring.

All flow objects are immutable and every function here is pure, so many
candidate flows can be evaluated concurrently with deterministic results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FlowDocumentError
from .intervals import IntervalSet
from .network import FlowPath, Network, _json_document
from .rationals import _whole_number, format_rational, parse_rational


@dataclass(frozen=True)
class DiscreteRnf:
    """A discrete rainbow flow: paths, per-path colors in 1..num_colors, rate."""

    net: Network
    paths: tuple[FlowPath, ...]
    colors: tuple[int, ...]
    num_colors: int
    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        try:
            colors = tuple(_whole_number(c, "color") for c in self.colors)
            num_colors = _whole_number(self.num_colors, "num_colors")
        except ValueError as exc:
            raise FlowDocumentError(str(exc)) from exc
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "num_colors", num_colors)
        object.__setattr__(self, "rate", Fraction(self.rate))
        if len(self.paths) != len(self.colors):
            raise FlowDocumentError("paths and colors differ in length")
        if self.num_colors < 1:
            raise FlowDocumentError("num_colors must be at least 1")
        if self.rate <= 0:
            raise FlowDocumentError("description rate must be positive")
        for path, color in zip(self.paths, self.colors):
            if not 1 <= color <= self.num_colors:
                raise FlowDocumentError(
                    f"color {color} outside 1..{self.num_colors} on path {list(path.edges)}"
                )
            try:
                self.net.validate_path(path.edges)
            except ValueError as exc:
                raise FlowDocumentError(str(exc)) from exc


@dataclass(frozen=True)
class ContinuousRnf:
    """A continuous rainbow flow: paths with interval-set spectra."""

    net: Network
    paths: tuple[FlowPath, ...]
    spectra: tuple[IntervalSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "spectra", tuple(self.spectra))
        if len(self.paths) != len(self.spectra):
            raise FlowDocumentError("paths and spectra differ in length")
        for path, spectrum in zip(self.paths, self.spectra):
            if not isinstance(spectrum, IntervalSet):
                raise FlowDocumentError("each continuous path needs an IntervalSet spectrum")
            try:
                self.net.validate_path(path.edges)
            except ValueError as exc:
                raise FlowDocumentError(str(exc)) from exc


RainbowFlow = Union[DiscreteRnf, ContinuousRnf]


@dataclass(frozen=True)
class RainbowFlowVector:
    """Per-sink spectrum measures q_t, indexed in the network's sink order."""

    sinks: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]


@dataclass(frozen=True)
class EdgeSlack:
    edge_id: str
    measure: Fraction
    capacity: Fraction
    slack: Fraction
    ok: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    strict: bool
    rows: tuple[EdgeSlack, ...]


def _spectra(rnf: RainbowFlow, keys, nodes: bool = False) -> list:
    """The spectrum of each key, in `keys` order, from one pass over the paths.

    A key is an edge id, or a node when `nodes` is set (a path holds the
    nodes of `Network.path_nodes`). Each path counts once per key it holds,
    in path order; a key's spectrum is the frozenset of its paths' colors,
    inserted in that order, or one `IntervalSet` over all their intervals.
    """
    groups = {key: [] for key in keys}
    for i, path in enumerate(rnf.paths):
        for key in set(rnf.net.path_nodes(path)) if nodes else path.edges:
            group = groups.get(key)
            if group is not None:
                group.append(i)
    if isinstance(rnf, DiscreteRnf):
        return [frozenset(rnf.colors[i] for i in group) for group in groups.values()]
    return [
        IntervalSet(tuple(pair for i in group for pair in rnf.spectra[i].intervals))
        for group in groups.values()
    ]


def spectrum_measure(rnf: RainbowFlow, spectrum) -> Fraction:
    """Measure of a spectrum: r times the color count, or interval measure."""
    if isinstance(rnf, DiscreteRnf):
        return rnf.rate * len(spectrum)
    return spectrum.measure


def edge_spectrum(rnf: RainbowFlow, edge_id: str):
    """Union of the colors (or interval sets) of all paths traversing an edge."""
    rnf.net.edge(edge_id)
    return _spectra(rnf, (edge_id,))[0]


def node_spectrum(rnf: RainbowFlow, node: str):
    """Union of the colors of all paths containing the node.

    A path contains a node if the node is an endpoint of any of its edges,
    so relay nodes acquire the spectra of the data they forward.
    """
    if not rnf.net.has_node(node):
        raise ValueError(f"unknown node '{node}'")
    return _spectra(rnf, (node,), nodes=True)[0]


def sink_spectra(rnf: RainbowFlow) -> tuple:
    """Every sink's node spectrum, in sink order, from one pass over the paths."""
    return tuple(_spectra(rnf, rnf.net.sinks, nodes=True))


def check_admissibility(rnf: RainbowFlow, strict: bool = False) -> AdmissibilityReport:
    """Per-edge capacity check with a slack report.

    Default comparison is non-strict (measure <= capacity), which admits
    flows that exactly saturate an edge; `strict` requires measure < capacity
    on every edge instead.
    """
    rows = []
    edges = sorted(rnf.net.edges, key=lambda e: e.id)
    for edge, spectrum in zip(edges, _spectra(rnf, [edge.id for edge in edges])):
        measure = spectrum_measure(rnf, spectrum)
        slack = edge.capacity - measure
        ok = slack > 0 if strict else slack >= 0
        rows.append(EdgeSlack(edge.id, measure, edge.capacity, slack, ok))
    return AdmissibilityReport(all(r.ok for r in rows), strict, tuple(rows))


def is_admissible(rnf: RainbowFlow, strict: bool = False) -> bool:
    return check_admissibility(rnf, strict=strict).admissible


def rainbow_flow_vector(rnf: RainbowFlow) -> RainbowFlowVector:
    """q_t = measure of the node spectrum of sink t, in sink order."""
    values = tuple(spectrum_measure(rnf, spectrum) for spectrum in sink_spectra(rnf))
    return RainbowFlowVector(rnf.net.sinks, values)


def total_rainbow_flow(rnf: RainbowFlow) -> Fraction:
    """Sum of the flow vector entries: the routing-search objective."""
    return sum(rainbow_flow_vector(rnf).values, Fraction(0))


def refine(rnf: DiscreteRnf, i: int) -> DiscreteRnf:
    """Split every color into `i` sub-colors of rate r/i.

    Each path is duplicated i times, once per sub-color of its original
    color. Per-edge spectrum measures and the flow vector are preserved
    exactly, and so is admissibility.
    """
    if not isinstance(rnf, DiscreteRnf):
        raise TypeError("refine applies to discrete rainbow flows")
    if i < 1:
        raise ValueError("refinement factor must be a positive integer")
    if i == 1:
        return rnf
    paths = []
    colors = []
    for path, color in zip(rnf.paths, rnf.colors):
        for sub in range(1, i + 1):
            paths.append(path)
            colors.append((color - 1) * i + sub)
    return DiscreteRnf(
        net=rnf.net,
        paths=tuple(paths),
        colors=tuple(colors),
        num_colors=rnf.num_colors * i,
        rate=rnf.rate / i,
    )


def load_flow(text_or_doc, net: Network) -> RainbowFlow:
    """Parse a flow document (discrete or continuous) against a network.

    Discrete: ``{"rate": "1", "K": 2, "paths": [{"edges": [...], "color": 1}]}``.
    Continuous: ``{"paths": [{"edges": [...], "intervals": [["0.5","2"]]}]}``.
    """
    doc = text_or_doc
    if isinstance(text_or_doc, str):
        doc = _json_document(text_or_doc, "flow", FlowDocumentError)
    if not isinstance(doc, dict) or "paths" not in doc or not isinstance(doc["paths"], list):
        raise FlowDocumentError("flow document must be an object with a 'paths' list")

    entries = doc["paths"]
    discrete = "rate" in doc or "K" in doc
    try:
        if discrete:
            for key in ("rate", "K"):
                if key not in doc:
                    raise FlowDocumentError(f"discrete flow document missing '{key}'")
            rate = parse_rational(doc["rate"], what="flow rate")
            paths, colors = [], []
            for position, entry in enumerate(entries):
                if "edges" not in entry or "color" not in entry:
                    raise FlowDocumentError(f"path #{position}: needs 'edges' and 'color'")
                paths.append(FlowPath(tuple(str(e) for e in entry["edges"])))
                color = _whole_number(entry["color"], f"path #{position}: color", numerals=True)
                colors.append(color)
            num_colors = _whole_number(doc["K"], "K", numerals=True)
            return DiscreteRnf(net, tuple(paths), tuple(colors), num_colors, rate)
        paths, spectra = [], []
        for position, entry in enumerate(entries):
            if "edges" not in entry or "intervals" not in entry:
                raise FlowDocumentError(f"path #{position}: needs 'edges' and 'intervals'")
            paths.append(FlowPath(tuple(str(e) for e in entry["edges"])))
            spectra.append(IntervalSet.from_pairs(entry["intervals"]))
        return ContinuousRnf(net, tuple(paths), tuple(spectra))
    except (ValueError, TypeError) as exc:
        raise FlowDocumentError(str(exc)) from exc


def flow_to_document(rnf: RainbowFlow) -> dict:
    """Inverse of `load_flow`."""
    if isinstance(rnf, DiscreteRnf):
        return {
            "rate": format_rational(rnf.rate),
            "K": rnf.num_colors,
            "paths": [
                {"edges": list(path.edges), "color": color}
                for path, color in zip(rnf.paths, rnf.colors)
            ],
        }
    return {
        "paths": [
            {"edges": list(path.edges), "intervals": spectrum.to_pairs()}
            for path, spectrum in zip(rnf.paths, rnf.spectra)
        ]
    }
