"""Counter-based seed derivation for reproducible parallel sampling.

Every sampling task gets its own generator derived from (master_seed, path),
where path is a tuple of small integers identifying the task (experiment
stream, stratum, replicate, ...).  Derivation goes through numpy's
SeedSequence with the path as spawn_key, so results do not depend on the
order in which tasks run or on how they are chunked across workers.
"""

from __future__ import annotations

# numpy loads numpy.random on first attribute access; every run draws
# windows, so importing it here keeps that cost in start-up
from numpy.random import PCG64, Generator, SeedSequence


def seed_sequence(master_seed: int, *path: int) -> SeedSequence:
    return SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))


def generator(master_seed: int, *path: int) -> Generator:
    """Independent PCG64 stream for task `path` under `master_seed`."""
    return Generator(PCG64(seed_sequence(master_seed, *path)))
