"""Deterministic random streams on top of numpy's SFC64 generator.

A :class:`Stream` is a value, not a mutable generator: the same stream always
yields the same draws, and child streams are addressed by ``(seed, path)``.
Each path is its own key: ``SeedSequence(seed, spawn_key=path)`` seeds one
SFC64 generator, so streams are independent of each other and of the order
they are opened in.

Stream layout (version :data:`RNG_LAYOUT`): Monte Carlo code splits trials
into chunks. A chunk holds 4096 trials, or fewer when one trial draws more
than 1024 noise numbers (N*d > 1024), so that a chunk draws at most 2^22 of
them; the chunk size depends only on N*d. Chunk c draws each kind of prior
randomness from the stream ``(seed, salt, c, kind)``, where ``kind`` is one
of the ``KIND_*`` draw kinds below, in one trial-major call. Its noise is
drawn one block of at most ``model.BLOCK`` (64) time steps at a time, as
``model.simulate`` asks for it: block j draws its (count, m, d) noise,
trial-major, from ``(seed, salt, c, KIND_NOISE, j)``.
numpy fills arrays in order, so trial k's draws are the k-th run of draws of
each stream whatever the chunk's trial count. They depend only on
``(seed, salt, k)`` and the chunk size: not on the total trial count, not
on how chunks are spread over workers, and, because every kind and every
block has its own stream, never on how many variates a rejection sampler of
another kind consumed. This is the counter-style addressing of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11), with one key
per block instead of one counter. A salt names a family of draws, not one
experiment: experiments that read the same quantity of the same trials
share its draws. A ``verify`` op draws one noise family, which drives the
trajectories of the configured system and of the Bayes experiment's prior
draws of A, and one prior family, which serves the Bayes experiment and the
prior-score identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# version of the mapping from (seed, config) to draws; bumped whenever the
# same seed starts producing different draws (3: the trajectory experiments
# of a verify op share one set of trajectories; 4: the Bayes trajectories of
# a verify op reuse its noise and prior draws, and a chunk's size depends on
# N*d; 5: a chunk draws its noise one block of time steps at a time, each
# block from its own stream, and streams are SFC64 instead of Philox)
RNG_LAYOUT = 5

# draw kinds, the index after the chunk in a stream path
KIND_NOISE = 0  # standard normal noise (one stream per block), or any plain Gaussian draw
KIND_HAAR_U = 1  # Gaussian stack behind the left Haar factor of a prior draw
KIND_HAAR_V = 2  # Gaussian stack behind the right Haar factor of a prior draw
KIND_SIGMAS = 3  # Beta(d, 3) singular values of a prior draw


@dataclass(frozen=True)
class Stream:
    """Value-like handle for a reproducible random source."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if any(i < 0 for i in self.path):
            raise ValueError(f"stream path indices must be nonnegative, got {self.path!r}")

    def child(self, *indices: int) -> "Stream":
        """Derive the independent stream addressed by ``indices`` under this one."""
        return Stream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator keyed by (seed, path); same key, same draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(ss))
