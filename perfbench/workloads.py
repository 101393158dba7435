"""Seeded generation of the benchmark's three workloads, as plain data.

Nothing here imports the program: a workload is a list of JSON-able specs
derived from ``(workload, seed)`` alone, so the same seed always gives the
same inputs and the program only ever sees the generated specs.

* ``paper_grid`` — the seven fig12/13/14 presets x the eight quick
  benchmarks at quick scale, one campaign, no cache;
* ``physics_sweep`` — per round, a single-core leakage x convection sweep
  over one shared trace per benchmark, and a 16-core heterogeneous chip
  sweep over physics variants (sparse solver), both with a fresh cache;
* ``service_mix`` — per client, an endless closed-loop job sequence in the
  service's wire format (half of it repeats of the client's earlier jobs).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

#: The seven configurations of the paper's figures 12, 13 and 14.
PAPER_PRESETS: Tuple[str, ...] = (
    "baseline",
    "distributed_rc",
    "address_biasing",
    "blank_silicon",
    "bank_hopping",
    "hopping_biasing",
    "distributed_frontend",
)

#: ``repro.campaign.spec.QUICK_BENCHMARKS`` (checked against it at run time).
QUICK_BENCHMARKS: Tuple[str, ...] = (
    "gzip", "gcc", "mcf", "crafty", "swim", "equake", "mesa", "lucas",
)

#: ``repro.scenarios.SCENARIO_NAMES`` (checked against it at run time).
SCENARIOS: Tuple[str, ...] = (
    "hot_loop", "thermal_virus", "memory_bound", "phase_alternating",
    "imbalanced_cluster", "branch_storm", "fp_saturate", "int_saturate",
    "cache_thrash", "trace_cache_pressure", "idle_crawl",
)

#: Feedback DTM policies the service mix pairs with ``none``.
DTM_POLICIES: Tuple[str, ...] = ("fetch_throttle", "dvfs", "hybrid")

#: The benchmark's default seed; ``paper_gap_pp`` is recorded for it.
DEFAULT_SEED = 1

# Workload sizes, chosen so each workload is steady on a 2-core host.  A
# sweep's physics cost grows with its distinct thermal configurations (each
# convection resistance is a new network to build, factor and solve), while
# leakage-only variants share one and mostly add result writes; so the
# sweeps step convection more finely than leakage, and physics outweighs
# the result cache's writes.
SWEEP_BENCHMARKS: Tuple[str, ...] = ("gzip", "swim")
SWEEP_UOPS = 20_000
SWEEP_INTERVAL = 800
SWEEP_LEAKAGE_STEPS = 2
SWEEP_CONVECTION_STEPS = 8
CHIP_CORES = 16
CHIP_MIXES = 2
CHIP_UOPS = 2_000
CHIP_LEAKAGE_STEPS = 1
CHIP_CONVECTION_STEPS = 8
# Service jobs leave out ``uops`` and so take the submit default (smoke
# scale, 3000 micro-ops per benchmark).
SERVICE_CHIP_CORES = 4


def _rng(*parts) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in parts))


def trace_seed(seed: int) -> int:
    """The program's trace-generation seed for a benchmark seed."""
    return seed % (2**31)


def paper_grid(seed: int) -> Dict:
    """The single campaign of the paper_grid workload."""
    return {
        "configs": list(PAPER_PRESETS),
        "benchmarks": list(QUICK_BENCHMARKS),
        "scale": "quick",
        "seed": trace_seed(seed),
    }


def _physics_variants(rng: random.Random, leakage_steps: int, convection_steps: int,
                      prefix: str) -> List[Dict]:
    """A leakage x convection grid of seeded physics variants on baseline."""
    leakage = sorted(round(rng.uniform(0.008, 0.020), 6) for _ in range(leakage_steps))
    convection = sorted(
        round(rng.uniform(0.12, 0.30), 5) for _ in range(convection_steps)
    )
    return [
        {
            "name": f"{prefix}{i:02d}x{j:02d}",
            "leakage_temperature_coefficient": coefficient,
            "convection_resistance_k_per_w": resistance,
        }
        for i, coefficient in enumerate(leakage)
        for j, resistance in enumerate(convection)
    ]


def physics_sweep(seed: int, round_index: int) -> Dict:
    """Round ``round_index`` of the physics_sweep workload.

    Every round draws new trace seeds and variants, so a later round never
    reuses an earlier round's traces or factorizations.
    """
    rng = _rng("physics_sweep", seed, round_index)
    single = {
        "benchmarks": list(SWEEP_BENCHMARKS),
        "uops": SWEEP_UOPS,
        "interval_cycles": SWEEP_INTERVAL,
        "seed": rng.randrange(1, 2**31),
        "variants": _physics_variants(
            rng, SWEEP_LEAKAGE_STEPS, SWEEP_CONVECTION_STEPS, "sc"
        ),
    }
    # Every mix places the same bag of threads (each scenario at least once)
    # in a seeded order, so the traces to capture are the same in every
    # round and only their placement on the die changes.
    bag = list(SCENARIOS) + list(SCENARIOS[: CHIP_CORES - len(SCENARIOS)])
    mixes = []
    while len(mixes) < CHIP_MIXES:
        order = bag[:]
        rng.shuffle(order)
        if order not in mixes:
            mixes.append(order)
    chip = {
        "cores": CHIP_CORES,
        "mixes": mixes,
        "uops": CHIP_UOPS,
        "seed": rng.randrange(1, 2**31),
        "solver_backend": "sparse",
        "variants": _physics_variants(
            rng, CHIP_LEAKAGE_STEPS, CHIP_CONVECTION_STEPS, "chip"
        ),
    }
    return {"single": single, "chip": chip}


#: Fresh-job kinds in the proportions of the mix (50% SPEC, 30% DTM, 20% chip).
FRESH_KINDS: Tuple[str, ...] = ("spec",) * 5 + ("dtm",) * 3 + ("chip",) * 2


def _fresh_job(rng: random.Random, kind: str, job_seed: int,
               spec_benchmarks: Iterator[str], policies: Iterator[str]) -> Dict:
    if kind == "spec":
        return {
            "name": "spec_pair",
            "configs": ["baseline", "bank_hopping"],
            "benchmarks": [next(spec_benchmarks), next(spec_benchmarks)],
            "seed": job_seed,
        }
    if kind == "dtm":
        return {
            "name": "dtm_pair",
            "configs": ["baseline"],
            "benchmarks": rng.sample(SCENARIOS, 2),
            "dtm_policies": ["none", next(policies)],
            "seed": job_seed,
        }
    return {
        "name": "chip4",
        "configs": ["baseline"],
        "cores": SERVICE_CHIP_CORES,
        "per_core_scenarios": [rng.sample(SCENARIOS, SERVICE_CHIP_CORES)],
        "seed": job_seed,
    }


def _deck(rng: random.Random, cards: Sequence) -> Iterator:
    """Endless shuffled passes over ``cards``: exact proportions per pass."""
    while True:
        order = list(cards)
        rng.shuffle(order)
        yield from order


def service_jobs(seed: int, client: int) -> Iterator[Tuple[str, Dict]]:
    """Client ``client``'s endless job sequence: ``(kind, payload)`` pairs.

    ``kind`` is ``"fresh"`` (a spec nobody submitted before: its trace seed
    is unique to this client and step) or ``"repeat"`` (a copy of one of
    this client's earlier fresh specs, so the service can answer it from
    its cache).  Kinds are dealt from shuffled decks, so every pair of jobs
    holds one repeat and every ten fresh jobs, and every ten repeats once
    each kind has been served, hold the mix's exact shares; the first job is
    always fresh.  SPEC benchmarks and DTM policies are
    dealt from decks too: SPEC jobs differ in length by benchmark, and
    dealing every benchmark equally often keeps a run's fresh-job latency
    from depending on which pairs its seed drew.
    """
    rng = _rng("service_mix", seed, client)
    base = rng.randrange(1, 2**20) * 64 + client
    repeats = _deck(rng, (True, False))
    fresh_kinds = _deck(rng, FRESH_KINDS)
    # Repeats copy kinds in the mix's shares too: a chip job is one cell and
    # the others four, and repeats carry half of a run's cells.
    repeat_kinds = _deck(rng, FRESH_KINDS)
    # Eight cards: a pair never spans two passes, so its two are distinct.
    spec_benchmarks = _deck(rng, QUICK_BENCHMARKS)
    policies = _deck(rng, DTM_POLICIES)
    history: List[Tuple[str, Dict]] = []
    step = 0
    while True:
        if next(repeats) and history:
            kind = next(repeat_kinds)
            same = [job for k, job in history if k == kind]
            yield "repeat", dict(rng.choice(same or [job for _, job in history]))
        else:
            kind = next(fresh_kinds)
            job = _fresh_job(rng, kind, (base + 2 * step) % (2**31),
                             spec_benchmarks, policies)
            history.append((kind, job))
            yield "fresh", dict(job)
        step += 1


def warmup_job(index: int) -> Dict:
    """A one-cell job that warms one service worker (never in the mix)."""
    return {
        "name": "warmup",
        "configs": ["baseline"],
        "benchmarks": ["gzip"],
        "uops": 600,
        "seed": 2**31 - 1 - index,
    }
