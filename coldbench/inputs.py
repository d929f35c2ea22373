"""Workload inputs, generated from the workload seed.

Every clustering of a run gets its own points, party seeds, key seed and
coin namespace, derived from ``(workload, seed, index)``; the program
only ever sees the generated values.  Two runs with one seed therefore
feed the program identical inputs, and no two clusterings of a run
share randomness -- nothing one clustering memoizes can serve another.

Draws are natural: nothing is rejected, so the comparison domain's bit
length varies between clusterings, and so does the number of region
queries -- DBSCAN queries a point again when it seeds a cluster after an
earlier query marked it noise.  :func:`base_comparisons` is what a draw
costs without such re-queries; the program's reported comparison count
above it measures them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from repro.clustering.labels import canonicalize
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.data.generators import gaussian_blobs
from repro.data.workloads import standard_workload
from repro.smc.session import SmcConfig


@dataclass(frozen=True)
class Clustering:
    """One clustering's inputs: partitions, protocol config, party seeds."""

    index: int
    points: dict          # party name -> list of integer points
    config: ProtocolConfig
    seeds: list
    rng_namespace: str
    psk: str


def _blobs_subset(rng: random.Random, parties: int, per_party: int):
    """``standard_workload("blobs", size="small")``, shuffled, dealt."""
    workload = standard_workload("blobs", seed=rng.randrange(1 << 31),
                                 size="small")
    points = list(workload.points)
    rng.shuffle(points)
    return [points[slot * per_party:(slot + 1) * per_party]
            for slot in range(parties)]


def _small_blobs(rng: random.Random, parties: int, per_party: int):
    """Three tight blobs on a coarse grid (scale 10): small comparison
    domains, so daemon sessions stay latency- and scheduling-bound."""
    points = gaussian_blobs(rng, centers=[(0.0, 0.0), (3.5, 3.5),
                                          (0.0, 3.5)],
                            points_per_blob=per_party, spread=0.4,
                            scale=10)
    rng.shuffle(points)
    return [points[slot * per_party:(slot + 1) * per_party]
            for slot in range(parties)]


def clustering(workload: str, seed: int, index: int, *,
               parties: int, per_party: int, key_bits: int,
               key_seed: int | None = None) -> Clustering:
    """Inputs of clustering ``index`` of ``workload`` under ``seed``.

    ``key_seed`` pins the key material (the daemon mesh keeps one key
    per party for its lifetime); by default each clustering draws its
    own.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "mesh-burst":
        draw = functools.partial(_small_blobs, parties=parties,
                                 per_party=per_party)
        eps, min_pts, scale = 1.2, 3, 10
    else:
        draw = functools.partial(_blobs_subset, parties=parties,
                                 per_party=per_party)
        blobs = standard_workload("blobs", size="small")
        eps, min_pts, scale = blobs.eps, blobs.min_pts, 100
    by_slot = draw(rng)
    seeds = [rng.randrange(1, 1 << 30) for __ in range(parties)]
    drawn_key_seed = rng.randrange(1, 1 << 20)
    names = (["alice", "bob"] if workload == "twoparty-inproc"
             else [f"party{slot}" for slot in range(parties)])
    smc = SmcConfig(paillier_bits=key_bits, comparison="bitwise",
                    key_seed=key_seed if key_seed is not None
                    else drawn_key_seed)
    config = ProtocolConfig(eps=eps, min_pts=min_pts, scale=scale, smc=smc,
                            alice_seed=seeds[0], bob_seed=seeds[-1])
    return Clustering(
        index=index,
        points={name: [tuple(p) for p in by_slot[slot]]
                for slot, name in enumerate(names)},
        config=config,
        seeds=seeds,
        rng_namespace=f"coldbench-{workload}-{seed}-{index}",
        psk=f"coldbench-psk-{rng.getrandbits(64):016x}",
    )


def base_comparisons(job: Clustering) -> int:
    """Secure comparisons of a run that queries every point once: each
    query compares against every point of the other parties."""
    total = sum(len(points) for points in job.points.values())
    return sum(len(own) * (total - len(own))
               for own in job.points.values())


def requery_figures(pairs) -> dict:
    """From ``(job, reported comparisons)`` pairs: the share of draws in
    which the program re-queried a point, and the comparisons those
    re-queries added, as a share of the re-query-free count."""
    pairs = list(pairs)
    extra = [comparisons - base_comparisons(job) for job, comparisons in pairs]
    base = sum(base_comparisons(job) for job, __ in pairs)
    return {"draws": len(pairs),
            "requery_share": (sum(1 for value in extra if value > 0)
                              / len(pairs)) if pairs else None,
            "extra_comparisons_frac": sum(extra) / base if base else None}


def fleet_secrets(seed: int, number: int) -> tuple[int, str]:
    """Key seed and PSK of daemon fleet ``number`` of a ``mesh-burst``
    run: a fleet keeps one key per party for its whole life."""
    rng = random.Random(f"mesh-burst/{seed}/fleet{number}")
    return (rng.randrange(1, 1 << 20),
            f"coldbench-psk-{rng.getrandbits(64):016x}")


def ledger_rows(ledger) -> list:
    """A disclosure ledger as JSON-able rows, in order."""
    return [[event.protocol, event.learner, event.disclosure.value,
             event.detail] for event in ledger.events]


def oracle_labels(job: Clustering) -> dict:
    """Plaintext DBSCAN on the union, per party, canonicalized."""
    eps_squared = job.config.eps_squared
    expected = {}
    for name, own in job.points.items():
        others = [p for peer, pts in job.points.items() if peer != name
                  for p in pts]
        result = union_density_dbscan(list(own), others, eps_squared,
                                      job.config.min_pts)
        expected[name] = canonicalize(result.labels.as_tuple())
    return expected


def labels_match(job: Clustering, labels_by_party: dict) -> bool:
    expected = oracle_labels(job)
    return all(canonicalize(tuple(labels_by_party.get(name, ()))) ==
               expected[name] for name in job.points)
