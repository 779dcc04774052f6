"""The four benchmark workloads: one pass of CLI jobs each, built from a seed.

A workload is a list of jobs (one ``rainbow-net`` invocation each) that the
runner repeats in whole passes. Everything the program sees (scenario
files, payloads, argv) is generated here from the workload seed and
written under the run's work directory. Paths in argv are relative to
that directory, which is the working directory while jobs run, so stdout
(which echoes some paths) is the same in every run directory.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import generators

WHY = {
    "codec-pipeline": "pipeline on fig1/fig2 at n=16384: routing is trivial, so the "
    "progressive coder dominates; expected to move on coder changes, not on search changes",
    "route-search": "exact search on layered DAGs and fig1/fig2, greedy on dense random "
    "graphs, and lemmas: path enumeration, search and distortion sweeps, never the codec",
    "fanout-pipeline": "pipeline --rounds 2 on 6-8 sink networks: exact search (some "
    "instances overflow its guard and fall back to greedy) plus many nested-prefix decodes",
    "pet-wide": "pet encode at K=32 and pet decode on subsets of every size: the only "
    "workload where PET and GF(256) are more than 1% of the time",
}

RATE = "1/2"
# Exact-search instances are a fixed family (generator seeds 0..FAMILY-1 of
# each shape), run in every pass: their objectives are recorded once
# (exact_objectives.json), and the slowest jobs, which set job_s_tail, do
# not depend on which instances a workload seed would have drawn.
LAYERED_SHAPES = ((3, 3), (2, 4))
FAMILY = 24
# n=16384 (the CLI default) gives ~90 pipeline jobs per 25 s run; at
# n=65536 a run times only ~22, too few for a steady median on a noisy host.
CODEC_N = 16384
PET_K = 32
PET_N = 65536
PET_SUBSETS_PER_SIZE = 4


@dataclass
class Job:
    """One CLI invocation, the exit code it must return, and what to check."""

    key: str
    argv: list[str]
    kind: str  # search | lemmas | pipeline | pet-encode | pet-decode
    expect_exit: int = 0
    outputs: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def exact_layered_job(workdir: str, width: int, depth: int, index: int) -> Job:
    """Exact search (K=2) on family instance `index` of one layered shape."""
    name = f"layered-{width}x{depth}-{index}"
    scenario = _write(workdir, f"{name}.json", generators.layered(width, depth, index))
    return _search_job(name, scenario, "exact", ["--K", "2", "--max-path-len", str(depth + 1)])


def bundled_exact_jobs() -> list[Job]:
    return [
        _search_job(f"{fig}-K{K}", fig, "exact", ["--K", str(K)])
        for fig in ("fig1", "fig2")
        for K in (2, 3, 4)
    ]


def _write(workdir: str, name: str, document: dict) -> str:
    with open(os.path.join(workdir, name), "wb") as handle:
        handle.write(generators.scenario_bytes(document))
    return name


def _search_job(name, scenario, mode, extra, objective="trf") -> Job:
    out = f"{name}.{mode}.flow.json"
    argv = ["search", scenario, "--rate", RATE, "--mode", mode, "--out-flow", out]
    argv += extra
    if objective == "wd":
        argv += ["--objective", "wd", "--weights", "maxflow"]
    return Job(
        key=f"{mode}:{name}",
        argv=argv,
        kind="search",
        outputs=[out],
        info={"scenario": scenario, "mode": mode, "objective": objective, "exact_key": name},
    )


def _route_search(rng: random.Random, workdir: str) -> list[Job]:
    # Layered exact jobs are the majority so the median job sits inside one
    # cost cluster; the cheap bundled, greedy and lemma jobs fill the low end.
    jobs = [
        exact_layered_job(workdir, width, depth, index)
        for width, depth in LAYERED_SHAPES
        for index in range(FAMILY)
    ]
    jobs += bundled_exact_jobs()
    dense = [(12, 43, 4, 3, 6, "trf")] * 6 + [(12, 43, 4, 3, 7, "trf")] * 3
    dense += [(14, 48, 5, 3, 6, "wd")] * 3
    for nodes, edges, sinks, K, max_len, objective in dense:
        seed = rng.randrange(2**31)
        name = f"dense-{nodes}n{edges}e-{seed}-L{max_len}"
        scenario = _write(workdir, f"{name}.json", generators.dense_random(nodes, edges, sinks, seed))
        extra = ["--K", str(K), "--max-path-len", str(max_len)]
        jobs.append(_search_job(name, scenario, "greedy", extra, objective))
    lemma_scenario = rng.choice(jobs[: len(LAYERED_SHAPES) * FAMILY]).info["scenario"]
    jobs.append(Job("lemmas:bundled", ["lemmas"], "lemmas"))
    jobs.append(
        Job(
            "lemmas:layered",
            ["lemmas", "--scenario", lemma_scenario, "--K", "2", "--max-path-len", "4"],
            "lemmas",
        )
    )
    rng.shuffle(jobs)
    return jobs


def _pipeline_job(key, scenario, K, rate, n, seed, rounds=1) -> Job:
    argv = ["pipeline", scenario, "--K", str(K), "--rate", rate, "--n", str(n), "--seed", str(seed)]
    if rounds > 1:
        argv += ["--rounds", str(rounds)]
    return Job(key, argv, "pipeline", info={"scenario": scenario, "K": K, "rate": rate, "n": n})


def _codec_pipeline(rng: random.Random, workdir: str) -> list[Job]:
    # fig1 jobs (2 bit/sample, all of one cost) are ten of twelve, so the
    # median job sits near the middle of the fig1 cluster rather than on its
    # noisy lower edge; the fig2 jobs (1 and 1.5 bit/sample) are cheaper.
    configs = [("fig1", 2, "1"), ("fig1", 4, "1/2")] * 5 + [("fig2", 2, "1/2"), ("fig2", 3, "1/2")]
    jobs = []
    for position, (fig, K, rate) in enumerate(configs):
        seed = rng.randrange(2**31)
        jobs.append(_pipeline_job(f"pipeline:{fig}-K{K}-{position}-s{seed}", fig, K, rate, CODEC_N, seed))
    return jobs


def _fanout_pipeline(rng: random.Random, workdir: str) -> list[Job]:
    # 6-sink K=3 trees stay within the exact-search guard; 8-sink K=4 trees
    # exceed its coloring count, so exact search raises and greedy runs. The
    # cheaper overflow jobs are kept few so the median job is an exact one.
    tiers = [(6, 3, 3)] * 10 + [(8, 4, 4)] * 2
    jobs = []
    for sinks, relays, K in tiers:
        seed = rng.randrange(2**31)
        name = f"fanout-{sinks}t{relays}r-{seed}"
        scenario = _write(workdir, f"{name}.json", generators.fanout(sinks, relays, seed))
        jobs.append(_pipeline_job(f"pipeline:{name}-K{K}", scenario, K, RATE, 16384, seed, rounds=2))
    rng.shuffle(jobs)
    return jobs


def pet_profile_y() -> str:
    return ",".join([repr(1 / PET_K)] * PET_K)


def _pet_wide(rng: random.Random, workdir: str) -> list[Job]:
    from rainbownet.pet import PetProfile

    profile = PetProfile.quantize([1 / PET_K] * PET_K, 1, PET_K, PET_N)
    payload_seed = rng.randrange(2**31)
    payload_path = "payload.bin"
    with open(os.path.join(workdir, payload_path), "wb") as handle:
        handle.write(generators.payload(profile.source_bytes_required, payload_seed))
    prefix = "block"
    files = [f"{prefix}.d{i:02d}" for i in range(1, PET_K + 1)]
    encode = Job(
        "pet-encode",
        ["pet", "encode", "--y", pet_profile_y(), "--rate", "1", "--n", str(PET_N),
         "--input", payload_path, "--out-prefix", prefix],
        "pet-encode",
        outputs=files,
        info={"payload": payload_path},
    )
    jobs = [encode]
    out = "recovered.bin"
    for size in range(1, PET_K + 1):
        for copy in range(PET_SUBSETS_PER_SIZE):
            subset = sorted(rng.sample(range(1, PET_K + 1), size))
            jobs.append(
                Job(
                    f"pet-decode:l{size}-{copy}-" + ".".join(map(str, subset)),
                    ["pet", "decode", *[files[i - 1] for i in subset], "--out", out],
                    "pet-decode",
                    outputs=[out],
                    info={"payload": payload_path, "received": size},
                )
            )
    return jobs


JOB_LISTS = {
    "codec-pipeline": _codec_pipeline,
    "route-search": _route_search,
    "fanout-pipeline": _fanout_pipeline,
    "pet-wide": _pet_wide,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's inputs under `workdir` and return one pass of jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return JOB_LISTS[workload](rng, workdir)


def warmup_job(workload: str, workdir: str) -> Job:
    """A small, seed-independent job of the workload's own kind."""
    if workload == "codec-pipeline":
        return _pipeline_job("warmup", "fig1", 2, "1", 4096, 0)
    if workload == "fanout-pipeline":
        return _pipeline_job("warmup", "fig2", 3, RATE, 4096, 0, rounds=2)
    if workload == "route-search":
        return Job("warmup", ["lemmas"], "lemmas")
    payload_path = "warmup.bin"
    with open(os.path.join(workdir, payload_path), "wb") as handle:
        handle.write(generators.payload(4096, 0))
    prefix = "warmup"
    return Job(
        "warmup",
        ["pet", "encode", "--y", "0.25,0.25,0.25,0.25", "--rate", "1", "--n", "4096",
         "--input", payload_path, "--out-prefix", prefix],
        "pet-encode",
        outputs=[f"{prefix}.d{i:02d}" for i in range(1, 5)],
        info={"payload": payload_path},
    )
