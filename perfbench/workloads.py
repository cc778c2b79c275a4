"""The two benchmark workloads: world settings and the commands each runs.

Every workload runs every command (the harness reports every end-to-end
metric on every workload); the sizes differ so that each workload stresses
the layers it was chosen for:

* ``newswire``: short unique articles in five languages, fixture-sized
  gazetteer, warm cache with an unrelated backlog. ``evaluate`` and ``rank``
  over the whole corpus: the embedding and ranking layers carry the work.
  ``generate-pairs`` over the corpus, then ``train`` for each loss, sized so
  that loss gradients carry the work of each ``train`` command.
* ``kb-cold``: a small one-language world with an empty cache, online
  policy, two workers and the simulated remote endpoint: remote waits carry
  the work. ``rank`` and ``generate-pairs`` then reuse the cache that the
  cold ``evaluate`` filled, fetching only what it did not need. Every
  ``train`` is small: it exists so that the workload reports every metric,
  and its time is mostly the command's fixed cost.

There are only two because wall time on a shared two-vCPU host needs runs of
about a minute to settle, and the benchmark's whole set of runs must fit in
under an hour.
"""

from __future__ import annotations

import dataclasses

from world import Settings, World

LOSSES = ("cosine_mse", "contrastive", "triplet", "infonce")
BATCH_SIZE = 64


@dataclasses.dataclass(frozen=True)
class Plan:
    settings: Settings
    # loss -> (training items wanted, epochs): cosine_mse / contrastive count
    # pairs, triplet counts triplets, infonce counts positive pairs.
    train: dict[str, tuple[int, int]] = dataclasses.field(default_factory=dict)
    cold: bool = False


PLANS = {
    "newswire": Plan(
        Settings(name="newswire", docs_per_language=60, countries=3, cities_per_country=2),
        train={"cosine_mse": (120, 2), "contrastive": (120, 2), "triplet": (30, 2), "infonce": (300, 8)},
    ),
    "kb-cold": Plan(
        Settings(
            name="kb-cold", languages=("de",), docs_per_language=200, countries=2,
            cities_per_country=1, unlocatable=1, dangling=1, backlog=0,
        ),
        train={"cosine_mse": (32, 2), "contrastive": (32, 2), "triplet": (12, 2), "infonce": (32, 2)},
        cold=True,
    ),
}


def world_for(workload: str, seed: int) -> World:
    return World(PLANS[workload].settings, seed)
