"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rainbownet.cli import main  # noqa: E402
from rainbownet.pet import PetProfile  # noqa: E402


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: generators.layered(3, 3, seed),
        lambda seed: generators.dense_random(12, 43, 4, seed),
        lambda seed: generators.fanout(6, 3, seed),
    ],
)
def test_generators_are_deterministic(make):
    assert generators.scenario_bytes(make(5)) == generators.scenario_bytes(make(5))
    assert len({generators.scenario_bytes(make(seed)) for seed in range(6)}) > 1


def test_payload_and_workload_inputs_are_deterministic(tmp_path):
    assert generators.payload(1000, 3) == generators.payload(1000, 3)
    assert generators.payload(1000, 3) != generators.payload(1000, 4)
    listings = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        jobs = workloads.build("route-search", 9, str(workdir))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        listings.append(([job.argv for job in jobs], files))
    assert listings[0] == listings[1]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_search_check_accepts_real_output_and_catches_corrupted_flow(in_tmp):
    (job,) = [j for j in workloads.bundled_exact_jobs() if j.key == "exact:fig1-K2"]
    code, stdout = _run(job.argv)
    exact = checks.load_exact_objectives()
    assert checks.check(job, code, stdout, exact).ok

    path = job.outputs[0]
    text = open(path).read()
    document = json.loads(text)
    corruptions = {
        # at rate 1 a unit edge holds one color, but the flow puts two on e12
        "inadmissible": (json.dumps(dict(document, rate="1")), "not admissible"),
        "a path dropped": (json.dumps(dict(document, paths=document["paths"][1:])), "differs"),
        "truncated": (text[: len(text) // 2], "FlowDocumentError"),
    }
    for label, (corrupted, reason) in corruptions.items():
        with open(path, "w") as handle:
            handle.write(corrupted)
        outcome = checks.check(job, code, stdout, exact)
        assert not outcome.ok and reason in outcome.reason, label


def test_search_check_catches_a_changed_exact_objective(in_tmp):
    (job,) = [j for j in workloads.bundled_exact_jobs() if j.key == "exact:fig2-K3"]
    code, stdout = _run(job.argv)
    exact = dict(checks.load_exact_objectives(), **{"fig2-K3": "99"})
    outcome = checks.check(job, code, stdout, exact)
    assert not outcome.ok and "recorded" in outcome.reason


def test_wrong_exit_code_fails(in_tmp):
    job = workloads.Job("lemmas", ["lemmas"], "lemmas")
    code, stdout = _run(job.argv)
    assert checks.check(job, code, stdout, {}).ok
    outcome = checks.check(job, 1, stdout, {})
    assert not outcome.ok and "exit code" in outcome.reason


def test_pet_check_catches_truncated_recovery(in_tmp):
    K, n = 4, 4096
    profile = PetProfile.quantize([0.25] * K, 1, K, n)
    (in_tmp / "payload.bin").write_bytes(generators.payload(profile.source_bytes_required, 1))
    code, _ = _run(["pet", "encode", "--y", "0.25,0.25,0.25,0.25", "--rate", "1", "--n", str(n),
                    "--input", "payload.bin", "--out-prefix", "b"])
    assert code == 0
    job = workloads.Job(
        "decode", ["pet", "decode", "b.d02", "b.d04", "--out", "r.bin"], "pet-decode",
        outputs=["r.bin"], info={"payload": "payload.bin", "received": 2},
    )
    code, stdout = _run(job.argv)
    assert checks.check(job, code, stdout, {}, profile).ok
    recovered = (in_tmp / "r.bin").read_bytes()
    (in_tmp / "r.bin").write_bytes(recovered[:-1])
    outcome = checks.check(job, code, stdout, {}, profile)
    assert not outcome.ok and "payload prefix" in outcome.reason


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["search.exact_search", 1.0, 6.0, 0, 0, None],
        ["network.enumerate_paths", 2.0, 3.0, 1, 0, None],
        ["flows.rainbow_flow_vector", 4.0, 4.5, 1, 0, None],
        ["pet.pet_encode", 7.0, 9.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 3.5, 1.0, 0.5, 2.0]
    summary = tracing.summarize(spans)
    assert summary["job_self"][0] == pytest.approx(summary["job_wall"][0])


def test_tracer_spans_add_up_to_the_job():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.span("b.middle", leaf) + tracer.span("c.leaf", leaf)

    tracer.run_job(0, lambda: tracer.span("a.outer", middle))
    assert [s[0] for s in tracer.spans] == ["cli.main", "a.outer", "b.middle", "c.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    summary = tracing.summarize(tracer.spans)
    assert summary["job_self"][0] == pytest.approx(summary["job_wall"][0], abs=1e-12)
    # outside a job nothing is recorded
    tracer.span("a.outer", leaf)
    assert len(tracer.spans) == 4


def test_install_wraps_cross_module_bindings_and_uninstall_restores():
    import rainbownet.cli as cli
    import rainbownet.gf256 as gf256
    import rainbownet.pet as pet

    originals = (cli.exact_search, pet.encode_block, gf256.gf_mul)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.exact_search is not originals[0]
        assert pet.encode_block is not originals[1]
        assert gf256.gf_mul is originals[2]  # intra-module binding stays
    finally:
        tracer.uninstall()
    assert (cli.exact_search, pet.encode_block, gf256.gf_mul) == originals


@pytest.mark.parametrize("count, expected", [(5, (100.0, 0)), (20, (50.0, 10)), (100, (90.0, 10)), (1000, (99.0, 10))])
def test_tail_is_highest_percentile_with_ten_jobs_beyond(count, expected):
    p, value, beyond = run.tail([float(i) for i in range(count)])
    assert (p, beyond) == expected
    assert value == run.percentile(sorted(float(i) for i in range(count)), p)
