"""Command-line entry point for reproducible experiments.

Every subcommand emits CSV tables (header row, '.' decimal separator,
rows sorted by their natural key) so downstream plotting stays external;
``--json`` mirrors the same data as one JSON document. Runs are
deterministic given their arguments and seed, and ``--manifest`` records
the parameters plus checksums of everything written.

Exit codes: 0 ok, 1 validation failure or inadmissible input, 2 usage,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .data import BUNDLED, bundled_text
from .distortion import (
    MAX_LAYERS,
    drnf_distortion,
    minimize_balanced_average,
    optimize_pet_profile,
)
from .errors import CodecError, RainbowNetError, ScenarioError
from .flows import (
    DiscreteRnf,
    check_admissibility,
    flow_to_document,
    load_flow,
    rainbow_flow_vector,
    refine,
    sink_spectra,
)
from .network import load_scenario, max_flow
from .pet import (
    PetProfile,
    _description_byte_count,
    description_from_bytes,
    description_to_bytes,
    pet_decode,
    pet_encode,
)
from .progressive import _check_block_size, progressive_gaussian_source
from .rationals import format_rational, parse_rational
from .search import SearchConfig, alternating_search, exact_search, greedy_search, route


@dataclass
class Table:
    name: str
    header: list[str]
    rows: list[list]


@dataclass
class CliOutput:
    tables: list[Table]
    exit_code: int = 0
    files: dict[str, bytes] = field(default_factory=dict)


def _cell_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def _cell_json(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _render_csv(tables: list[Table]) -> str:
    blocks = []
    for table in tables:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([_cell_csv(v) for v in row])
        blocks.append(buffer.getvalue())
    return "\n".join(blocks)


def _render_json(tables: list[Table]) -> str:
    doc = {
        table.name: [
            {key: _cell_json(value) for key, value in zip(table.header, row)}
            for row in table.rows
        ]
        for table in tables
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_document(argument: str, kind: str) -> str:
    """Resolve a path or a bundled name (fig1, fig2, fig1_flow, fig2_flow)."""
    if argument in BUNDLED and not os.path.exists(argument):
        return bundled_text(argument)
    try:
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {kind} '{argument}': {exc}") from exc


def _load_net(argument: str):
    return load_scenario(_read_document(argument, "scenario"))


def _parse_weights(text: str, net) -> tuple[float, ...]:
    """Parse a weight vector: 'uniform', 'maxflow' (p_t ~ 2^(2*maxflow)), or CSV."""
    count = len(net.sinks)
    if text == "uniform":
        return tuple(1.0 / count for _ in range(count))
    if text == "maxflow":
        raw = []
        for sink in net.sinks:
            value = max_flow(net, sink)
            capped = 64.0 if value == math.inf else min(float(value), 64.0)
            raw.append(2.0 ** (2.0 * capped))
        total = sum(raw)
        return tuple(v / total for v in raw)
    return _parse_vector(text, "weights", count)


def _parse_vector(text: str, what: str, count: int | None = None) -> tuple[float, ...]:
    """Parse CSV entries, finite and nonnegative with a positive finite sum, and normalize."""
    values = [float(x) for x in text.split(",")]
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} {what}, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")
    if any(v < 0 for v in values):
        raise ValueError(f"{what} must be nonnegative")
    total = sum(values)
    if not math.isfinite(total):
        raise ValueError(f"{what} must have a finite sum")
    if total <= 0:
        raise ValueError(f"{what} must not all be zero")
    return tuple(v / total for v in values)


def cmd_validate(args) -> CliOutput:
    net = _load_net(args.scenario)
    flow = load_flow(_read_document(args.flow, "flow"), net)
    report = check_admissibility(flow, strict=args.strict)
    slack = Table(
        "slack",
        ["edge", "measure", "capacity", "slack", "ok"],
        [[r.edge_id, r.measure, r.capacity, r.slack, r.ok] for r in report.rows],
    )
    rfv = rainbow_flow_vector(flow)
    vector = Table("rfv", ["sink", "q"], [[s, v] for s, v in zip(rfv.sinks, rfv.values)])
    return CliOutput([slack, vector], exit_code=0 if report.admissible else 1)


def _search_config(args, net) -> SearchConfig:
    weights = None
    if args.objective == "wd":
        weights = _parse_weights(args.weights or "uniform", net)
    profile = _parse_vector(args.y, "profile entries") if args.y else None
    return SearchConfig(
        num_colors=args.K,
        rate=parse_rational(args.rate, what="rate"),
        max_path_len=args.max_path_len,
        objective=args.objective,
        weights=weights,
        profile=profile,
        strict=args.strict,
    )


def cmd_search(args) -> CliOutput:
    if args.objective == "trf" and (args.y is not None or args.weights is not None):
        raise ValueError("--y and --weights apply only to --objective wd")
    net = _load_net(args.scenario)
    cfg = _search_config(args, net)
    result = exact_search(net, cfg) if args.mode == "exact" else greedy_search(net, cfg)
    header = ["objective", "K", "rate"] + [f"q_{i + 1}" for i in range(len(net.sinks))]
    row = [result.objective, cfg.num_colors, cfg.rate] + list(result.rfv.values)
    tables = [Table("summary", header, [row])]
    files = {}
    if args.out_flow:
        files[args.out_flow] = (
            json.dumps(flow_to_document(result.flow), indent=2) + "\n"
        ).encode()
    return CliOutput(tables, files=files)


def cmd_optimize(args) -> CliOutput:
    if args.K is not None and args.K < 1:
        raise ValueError(f"--K must be at least 1, got {args.K}")
    net = _load_net(args.scenario)
    flow = load_flow(_read_document(args.flow, "flow"), net)
    if isinstance(flow, DiscreteRnf):
        num = args.K or flow.num_colors
        rate = parse_rational(args.rate, what="rate") if args.rate else flow.rate
    else:
        if not args.K or not args.rate:
            raise ValueError("a continuous flow needs explicit --K and --rate")
        num = args.K
        rate = parse_rational(args.rate, what="rate")
    weights = _parse_weights(args.weights, net)
    q = rainbow_flow_vector(flow)
    optimum = optimize_pet_profile(list(q.values), weights, num, rate)
    d = drnf_distortion(list(q.values), optimum.y, rate)
    sinks = Table(
        "sinks",
        ["sink", "q", "d"],
        [[s, v, dist] for s, v, dist in zip(q.sinks, q.values, d)],
    )
    profile = Table(
        "profile",
        ["objective"] + [f"y_{i + 1}" for i in range(num)],
        [[optimum.objective] + list(optimum.y)],
    )
    return CliOutput([sinks, profile])


def cmd_pet_encode(args) -> CliOutput:
    layers = [float(x) for x in args.y.split(",")]
    rate = parse_rational(args.rate, what="rate")
    try:
        with open(args.input, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise CodecError(f"cannot read input '{args.input}': {exc}") from exc
    profile = PetProfile.quantize(layers, rate, len(layers), args.n)
    encoded = pet_encode(payload, profile)
    rows = []
    files = {}
    for description in encoded.descriptions:
        path = f"{args.out_prefix}.d{description.index:02d}"
        blob = description_to_bytes(description)
        files[path] = blob
        rows.append([path, description.index, len(blob)])
    return CliOutput([Table("descriptions", ["file", "index", "bytes"], rows)], files=files)


def cmd_pet_decode(args) -> CliOutput:
    descriptions = []
    for path in args.files:
        try:
            with open(path, "rb") as handle:
                descriptions.append(description_from_bytes(handle.read()))
        except OSError as exc:
            raise CodecError(f"cannot read description '{path}': {exc}") from exc
    recovered = pet_decode(descriptions)
    files = {args.out: recovered}
    table = Table(
        "recovered",
        ["output", "descriptions", "recovered_bytes", "recovered_bits"],
        [[args.out, len(descriptions), len(recovered), 8 * len(recovered)]],
    )
    return CliOutput([table], files=files)


def cmd_fig1(args) -> CliOutput:
    grid = [args.C] if args.C is not None else [float(x) for x in args.grid.split(",")]
    rows = []
    for rate in sorted(grid):
        design = minimize_balanced_average(rate)
        rows.append(
            [
                rate,
                design.separate,
                design.average,
                design.side,
                design.joint,
                design.average < design.separate,
            ]
        )
    header = ["C", "d_S", "d_M_star", "D_star", "D12_star", "improved"]
    return CliOutput([Table("fig1", header, rows)])


def _lemma_rows(name: str, net, args):
    rate = parse_rational(args.rate, what="rate")
    cfg = SearchConfig(
        num_colors=args.K, rate=rate, max_path_len=args.max_path_len, strict=args.strict
    )
    result = route(net, cfg)
    q = list(result.rfv.values)
    weights = tuple(1.0 / len(q) for _ in q)
    # Every suite re-optimizes the profile for the routed flow vector at
    # some (descriptions, rate) shape; each distinct shape is solved once.
    objective = {}

    def values(shapes):
        for shape in shapes:
            if shape not in objective:
                objective[shape] = optimize_pet_profile(q, weights, *shape).objective
        return [objective[shape] for shape in shapes]

    def nonincreasing(series):
        return all(b <= a + 1e-9 for a, b in zip(series, series[1:]))

    K = args.K
    more = values([(K, rate), (K + 1, rate), (K + 2, rate)])
    splits = values([(K * i, rate / i) for i in (2, 3)])
    rows = [["more-descriptions", name, nonincreasing(more), " ".join(map(repr, more))]]
    # refine() keeps the flow vector, so splitting reduces to re-optimizing
    # the profile at (i*K, rate/i); assert that on the refined flow too
    for factor, split in zip((2, 3), splits):
        same_vector = list(rainbow_flow_vector(refine(result.flow, factor)).values) == q
        ok = same_vector and nonincreasing([more[0], split])
        rows.append([f"rate-splitting-{factor}", name, ok, f"{more[0]!r} -> {split!r}"])

    # the finest step has K * 2**(steps - 1) layers; the exponent is clamped
    # so a huge --steps is never materialized (2**63 already exceeds the limit)
    if K * 2 ** (min(args.steps, 64) - 1) > MAX_LAYERS:
        raise ValueError(
            f"a refinement sweep of {args.steps} steps at K={K} needs "
            f"K * 2**(steps - 1) layers, more than the limit of {MAX_LAYERS}"
        )
    sweep = values([(K * 2**n, rate / 2**n) for n in range(args.steps)])
    rows.append(["rate-shrink-trend", name, nonincreasing(sweep), " ".join(map(repr, sweep))])
    return rows


def cmd_lemmas(args) -> CliOutput:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    names = args.scenario or ["fig1", "fig2"]
    rows = []
    failures = 0
    for name in names:
        net = _load_net(name)
        for row in _lemma_rows(name, net, args):
            rows.append(row)
            failures += 0 if row[2] else 1
    table = Table("lemmas", ["property", "scenario", "passed", "detail"], rows)
    return CliOutput([table], exit_code=0 if failures == 0 else 1)


def cmd_pipeline(args) -> CliOutput:
    if args.rounds < 1:
        raise ValueError(f"--rounds must be at least 1, got {args.rounds}")
    _check_block_size(args.n)  # before routing, which can take most of the job
    net = _load_net(args.scenario)
    weights = _parse_weights(args.weights, net)
    rate = parse_rational(args.rate, what="rate")
    cfg = SearchConfig(
        num_colors=args.K,
        rate=rate,
        max_path_len=args.max_path_len,
        objective="trf",
        weights=weights,
        strict=args.strict,
    )
    # SearchConfig has refused a K the profile optimizer would; refuse
    # before routing the description size PET would refuse after it
    _description_byte_count(args.K, rate, args.n)
    result, profile_vec, _ = alternating_search(net, cfg, rounds=args.rounds)
    q = list(result.rfv.values)
    profile = PetProfile.quantize(profile_vec, rate, args.K, args.n)
    held_by_sink = [tuple(spectrum) for spectrum in sink_spectra(result.flow)]
    # Encode only the prefix PET reads: a byte-aligned budget stream is the
    # same bytes as the head of any longer one.
    source = progressive_gaussian_source(
        args.seed, args.n, Fraction(profile.prefix_bits(args.K), args.n)
    )
    encoded = pet_encode(source.bitstream, profile)
    analytic = drnf_distortion(q, profile.y, rate)
    # PET is balanced: any l descriptions recover the same prefix_bytes(l)
    # bytes, and reconstruction depends only on those bytes, so each
    # distinct prefix is PET-decoded and reconstructed once.
    mse_by_prefix: dict[int, float] = {}
    rows = []
    for position, (sink, held) in enumerate(zip(net.sinks, held_by_sink)):
        size = profile.prefix_bytes(len(held))
        if size not in mse_by_prefix:
            recovered = pet_decode([encoded.descriptions[color - 1] for color in held])
            mse_by_prefix[size] = source.empirical_mse(8 * len(recovered), data=recovered)
        rows.append([sink, q[position], analytic[position], mse_by_prefix[size]])
    table = Table("pipeline", ["sink", "q", "analytic_d", "empirical_mse"], rows)
    return CliOutput([table])


def _build_parser() -> argparse.ArgumentParser:
    """A new rainbow-net parser. Each subcommand's ``handler`` default is
    the name of its ``cmd_*`` function, which `main` looks up at call time."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    common.add_argument("--manifest", help="write a reproducibility manifest to this path")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true", help="strict capacity comparison (<)")

    parser = argparse.ArgumentParser(
        prog="rainbow-net",
        description="Route balanced description codes through capacitated networks "
        "and evaluate the per-sink distortion they achieve.",
    )
    parser.add_argument("--version", action="version", version=f"rainbow-net {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "validate", parents=[common, strict], help="check a flow against a scenario"
    )
    p.add_argument("scenario")
    p.add_argument("flow")
    p.set_defaults(handler="validate")

    p = sub.add_parser("search", parents=[common, strict], help="find a good admissible flow")
    p.add_argument("scenario")
    p.add_argument("--K", type=int, required=True, help="number of descriptions")
    p.add_argument("--rate", required=True, help="description rate (exact rational)")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--objective", choices=("trf", "wd"), default="trf")
    p.add_argument("--weights", help="per-sink weights CSV, 'uniform', or 'maxflow'")
    p.add_argument("--y", help="fixed layer profile CSV for the wd objective")
    p.add_argument("--max-path-len", type=int, default=4)
    p.add_argument("--out-flow", help="write the found flow document here")
    p.set_defaults(handler="search")

    p = sub.add_parser("optimize", parents=[common], help="optimize the layer profile for a flow")
    p.add_argument("scenario")
    p.add_argument("--flow", required=True)
    p.add_argument("--weights", default="uniform")
    p.add_argument("--K", type=int)
    p.add_argument("--rate")
    p.set_defaults(handler="optimize")

    p = sub.add_parser("pet", help="encode/decode balanced descriptions")
    petsub = p.add_subparsers(dest="pet_command")
    enc = petsub.add_parser("encode", parents=[common])
    enc.add_argument("--y", required=True, help="layer weights CSV (defines K)")
    enc.add_argument("--rate", required=True)
    enc.add_argument("--n", type=int, required=True, help="source symbols per block")
    enc.add_argument("--input", required=True, help="payload file")
    enc.add_argument("--out-prefix", required=True)
    enc.set_defaults(handler="pet_encode")
    dec = petsub.add_parser("decode", parents=[common])
    dec.add_argument("files", nargs="+")
    dec.add_argument("--out", required=True)
    dec.set_defaults(handler="pet_decode")

    p = sub.add_parser("fig1", parents=[common], help="balanced two-description sweep")
    p.add_argument("--C", type=float, help="single per-description rate")
    p.add_argument("--grid", default="0.25,0.5,1,2,4", help="rate grid CSV")
    p.set_defaults(handler="fig1")

    p = sub.add_parser("lemmas", parents=[common, strict], help="monotonicity property suites")
    p.add_argument("--scenario", action="append", help="scenario path (repeatable)")
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--rate", default="1/2")
    p.add_argument("--max-path-len", type=int, default=3)
    p.add_argument("--steps", type=int, default=7)
    p.set_defaults(handler="lemmas")

    p = sub.add_parser(
        "pipeline", parents=[common, strict], help="search, optimize, encode, decode"
    )
    p.add_argument("scenario")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--rate", required=True)
    p.add_argument("--weights", default="uniform")
    p.add_argument("--n", type=int, default=16384)
    p.add_argument(
        "--rounds",
        type=int,
        default=1,
        metavar="R",
        help="at most R search/profile rounds; stops at the first whose weighted "
        "distortion meets the cut-cap floor",
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the Gaussian source block")
    p.add_argument("--max-path-len", type=int, default=4)
    p.set_defaults(handler="pipeline")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and never mutated.

    argparse reads the terminal width, sys.stdout and sys.stderr only when
    it formats or prints, so reusing the parser changes no output.
    """
    return _build_parser()


def _write_manifest(path: str, args, argv, stdout_text: str, files: dict[str, bytes]):
    skip = {"handler", "manifest", "json"}
    parameters = {
        key: value for key, value in vars(args).items() if key not in skip and value is not None
    }
    manifest = {
        "command": getattr(args, "command", None),
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "parameters": {key: str(value) for key, value in sorted(parameters.items())},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": {
            "stdout_sha256": hashlib.sha256(stdout_text.encode()).hexdigest(),
            "files": {
                name: hashlib.sha256(blob).hexdigest() for name, blob in sorted(files.items())
            },
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return 2
    try:
        # looked up per call, so a cmd_* patched after the first call runs
        output = globals()[f"cmd_{args.handler}"](args)
        # rendering refuses an integer of more than 4,300 digits
        text = _render_json(output.tables) if args.json else _render_csv(output.tables)
    except (RainbowNetError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    try:
        for path, blob in output.files.items():
            with open(path, "wb") as handle:
                handle.write(blob)
        if getattr(args, "manifest", None):
            path = args.manifest
            _write_manifest(path, args, argv, text, output.files)
    except OSError as exc:
        print(f"error: cannot write '{path}': {exc}", file=sys.stderr)
        return 1
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
