"""Per-job result checks and fingerprints.

`check` judges one finished job from its exit code, its stdout and the
files it wrote (read from the working directory). A job passes only when
every invariant for its kind holds; the returned `Outcome` also carries
the job's routing result, from which the runner derives ``trf_total`` and
``wd_mean``:

- trf: the total rainbow flow the job delivers, sum of q over its sinks
  (a `pet decode` of l descriptions is one sink with q = l * rate);
- wd: the uniform-weighted analytic distortion of those deliveries, under
  the job's own layer profile where it prints one and the uniform profile
  otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from rainbownet.data import bundled_text
from rainbownet.distortion import drnf_distortion, optimize_pet_profile, weighted_distortion
from rainbownet.errors import RainbowNetError
from rainbownet.flows import check_admissibility, load_flow, rainbow_flow_vector
from rainbownet.network import load_scenario, max_flow
from rainbownet.pet import PetProfile
from rainbownet.rationals import parse_rational

import workloads

_HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_OBJECTIVES_PATH = os.path.join(_HERE, "exact_objectives.json")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    trf: Fraction | None = None
    wd: float | None = None


class CheckFailure(Exception):
    pass


def fingerprint(stdout: str, outputs) -> dict:
    """sha256 of stdout and of every file the job wrote."""
    files = {}
    for path in outputs:
        with open(path, "rb") as handle:
            files[path] = hashlib.sha256(handle.read()).hexdigest()
    return {"stdout": hashlib.sha256(stdout.encode()).hexdigest(), "files": files}


def load_exact_objectives(path: str = EXACT_OBJECTIVES_PATH) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def _read_text(path: str) -> str:
    if path in ("fig1", "fig2") and not os.path.exists(path):
        return bundled_text(path)
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def maxflow_weights(net) -> tuple[float, ...]:
    """The documented 'maxflow' weights: p_t proportional to 2^(2*maxflow), capped at 64."""
    raw = [2.0 ** (2.0 * min(float(max_flow(net, sink)), 64.0)) for sink in net.sinks]
    total = sum(raw)
    return tuple(v / total for v in raw)


def _uniform(count: int) -> tuple[float, ...]:
    return tuple(1.0 / count for _ in range(count))


def _check_search(job, stdout: str, exact: dict[str, str]) -> Outcome:
    (row,) = csv_rows(stdout)
    net = load_scenario(_read_text(job.info["scenario"]))
    K = int(row["K"])
    rate = parse_rational(row["rate"])
    printed_q = [parse_rational(row[f"q_{i + 1}"]) for i in range(len(net.sinks))]
    flow = load_flow(_read_text(job.outputs[0]), net)
    _require(check_admissibility(flow).admissible, "written flow is not admissible")
    q = list(rainbow_flow_vector(flow).values)
    _require(q == printed_q, f"flow vector {q} differs from printed {printed_q}")
    uniform_y = _uniform(K)
    if job.info["objective"] == "trf":
        objective = parse_rational(row["objective"])
        _require(objective == sum(q, Fraction(0)), "objective differs from the flow's sum of q")
        wd = weighted_distortion(drnf_distortion(q, uniform_y, rate), _uniform(len(q)))
    else:
        wd = weighted_distortion(drnf_distortion(q, uniform_y, rate), maxflow_weights(net))
        _require(repr(wd) == row["objective"], f"objective {row['objective']} != recomputed {wd!r}")
    if job.info["mode"] == "exact":
        recorded = exact.get(job.info["exact_key"])
        _require(recorded is not None, f"no recorded objective for {job.info['exact_key']}")
        _require(row["objective"] == recorded, f"objective {row['objective']} != recorded {recorded}")
    return Outcome(True, trf=sum(q, Fraction(0)), wd=wd)


def _check_pipeline(job, stdout: str) -> Outcome:
    rows = csv_rows(stdout)
    K, n = job.info["K"], job.info["n"]
    rate = parse_rational(job.info["rate"])
    q = [parse_rational(r["q"]) for r in rows]
    weights = _uniform(len(q))
    optimum = optimize_pet_profile(q, weights, K, rate)
    profile = PetProfile.quantize(optimum.y, rate, K, n)
    expected = drnf_distortion(q, profile.y, rate)
    printed = [r["analytic_d"] for r in rows]
    _require(printed == [repr(d) for d in expected], f"analytic_d {printed} != recomputed {expected}")
    by_q = sorted((value, float(r["empirical_mse"])) for value, r in zip(q, rows))
    for (_, low_mse), (_, high_mse) in zip(by_q, by_q[1:]):
        _require(high_mse <= low_mse, "empirical_mse increases with q")
    return Outcome(True, trf=sum(q, Fraction(0)), wd=weighted_distortion(expected, weights))


def pet_profile() -> PetProfile:
    return PetProfile.quantize([1 / workloads.PET_K] * workloads.PET_K, 1, workloads.PET_K, workloads.PET_N)


def _check_pet_encode(job, stdout: str) -> Outcome:
    rows = csv_rows(stdout)
    _require([r["file"] for r in rows] == job.outputs, "encode wrote unexpected description files")
    for r in rows:
        _require(os.path.getsize(r["file"]) == int(r["bytes"]), f"{r['file']}: size differs from table")
    return Outcome(True)


def _check_pet_decode(job, stdout: str, profile: PetProfile) -> Outcome:
    (row,) = csv_rows(stdout)
    received = job.info["received"]
    with open(job.info["payload"], "rb") as handle:
        payload = handle.read()
    with open(job.outputs[0], "rb") as handle:
        recovered = handle.read()
    expected = payload[: profile.prefix_bytes(received)]
    _require(recovered == expected, f"recovered {len(recovered)} bytes differ from the payload prefix")
    _require(int(row["recovered_bytes"]) == len(expected), "printed recovered_bytes is wrong")
    q = [profile.rate * received]
    return Outcome(True, trf=q[0], wd=drnf_distortion(q, profile.y, profile.rate)[0])


def check(job, exit_code: int, stdout: str, exact: dict[str, str], profile: PetProfile | None = None) -> Outcome:
    """Judge one job; never raises for a wrong result, only reports it."""
    if exit_code != job.expect_exit:
        return Outcome(False, f"exit code {exit_code}, expected {job.expect_exit}")
    try:
        if job.kind == "search":
            return _check_search(job, stdout, exact)
        if job.kind == "pipeline":
            return _check_pipeline(job, stdout)
        if job.kind == "pet-encode":
            return _check_pet_encode(job, stdout)
        if job.kind == "pet-decode":
            return _check_pet_decode(job, stdout, profile or pet_profile())
        rows = csv_rows(stdout)
        _require(bool(rows) and all(r["passed"] == "true" for r in rows), "a lemma row failed")
        return Outcome(True)
    except CheckFailure as exc:
        return Outcome(False, str(exc))
    except (OSError, ValueError, KeyError, ArithmeticError, RainbowNetError) as exc:
        return Outcome(False, f"{type(exc).__name__}: {exc}")
