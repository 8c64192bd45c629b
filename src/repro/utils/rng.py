"""Deterministic random-number-generator plumbing.

All stochastic components in the library accept a ``seed`` argument that may
be ``None``, an ``int``, a :class:`numpy.random.SeedSequence`, or an existing
:class:`numpy.random.Generator`.  :func:`as_generator` normalises all of these
into a generator so that experiment scripts can fix a single integer seed and
obtain bit-for-bit reproducible figures.

The evaluation harness replays the same experiment many times ("simulations"
in the paper's terminology, e.g. ``n_sim = 100``).  Each replication must see
an *independent* random stream while remaining reproducible as a family;
:class:`SeedSequencePool` provides that via NumPy seed-sequence spawning.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

__all__ = ["SeedLike", "as_generator", "SeedSequencePool"]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int``, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Examples
    --------
    >>> g = as_generator(42)
    >>> g2 = as_generator(42)
    >>> float(g.random()) == float(g2.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(
        "seed must be None, an int, a numpy SeedSequence or a numpy Generator; "
        f"got {type(seed).__name__}"
    )


class SeedSequencePool:
    """A pool of reproducible child seeds keyed by insertion order.

    The evaluation harness uses one pool per experiment: replication ``i``
    always receives the ``i``-th child seed regardless of how many
    replications run, so adding more simulations never perturbs earlier ones.

    Parameters
    ----------
    seed:
        Root seed for the pool.
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        elif isinstance(seed, np.random.Generator):
            root = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
            self._root = root if root is not None else np.random.SeedSequence()
        elif seed is None:
            self._root = np.random.SeedSequence()
        else:
            self._root = np.random.SeedSequence(int(seed))
        self._children: List[np.random.SeedSequence] = []

    def __len__(self) -> int:
        return len(self._children)

    def _ensure(self, index: int) -> None:
        while len(self._children) <= index:
            self._children.extend(self._root.spawn(max(1, index + 1 - len(self._children))))

    def sequence(self, index: int) -> np.random.SeedSequence:
        """Return the child :class:`~numpy.random.SeedSequence` for ``index``.

        Seed sequences (unlike generators) are cheap to pickle, which is how
        the parallel evaluation engine ships replication seeds to worker
        processes while staying bit-identical to the serial path:
        ``default_rng(pool.sequence(i))`` and ``pool.generator(i)`` produce
        the same stream.
        """
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        self._ensure(index)
        return self._children[index]

    def generator(self, index: int) -> np.random.Generator:
        """Return the generator for child ``index`` (created lazily)."""
        return np.random.default_rng(self.sequence(index))
