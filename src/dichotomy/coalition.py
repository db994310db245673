"""Equal-opportunity coalition model.

The random employed set S is drawn from {1, ..., n} through three layers of
uncertainty: an inclusion probability p with a Beta(theta, rho) prior, a
coalition size s ~ Binomial(n, p), and a uniform choice among all subsets of
that size.  Marginally every subset T has probability depending on its size
only, which encodes equal opportunity for the players.  Given p, the last
two layers amount to n independent Bernoulli(p) memberships.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import log_beta, log_binom

__all__ = [
    "CoalitionModel",
    "SubsetId",
    "PosteriorRate",
    "size_pmf",
    "subset_pmf",
    "sample_subset",
    "sample_memberships",
    "posterior",
    "log_size_weights",
    "spawn_streams",
]


@dataclass(frozen=True)
class CoalitionModel:
    """Beta-Binomial opportunity distribution over subsets of n players."""

    n: int
    theta: float
    rho: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one player, got n={self.n}")
        if not (0.0 < self.theta < math.inf and 0.0 < self.rho < math.inf):
            raise DomainError(
                f"shape parameters must be positive and finite, got ({self.theta}, {self.rho})"
            )

    @property
    def prior_mean(self) -> float:
        """Prior mean of the employment rate."""
        return self.theta / (self.theta + self.rho)


@dataclass(frozen=True)
class SubsetId:
    """A subset of the player set {1, ..., n}."""

    n: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for i in self.members:
            if not (isinstance(i, int) and 1 <= i <= self.n):
                raise DomainError(f"player {i} outside 1..{self.n}")

    @classmethod
    def of(cls, n: int, members=()) -> "SubsetId":
        return cls(n, frozenset(members))

    @classmethod
    def empty(cls, n: int) -> "SubsetId":
        return cls(n, frozenset())

    @classmethod
    def full(cls, n: int) -> "SubsetId":
        return cls(n, frozenset(range(1, n + 1)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "SubsetId":
        if mask < 0 or mask >> n:
            raise DomainError(f"mask {mask} does not fit {n} players")
        return cls(n, frozenset(i + 1 for i in range(n) if (mask >> i) & 1))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        # Bit i-1 encodes player i; usable for n up to the enumeration regime.
        m = 0
        for i in self.members:
            m |= 1 << (i - 1)
        return m

    def contains(self, i: int) -> bool:
        return i in self.members

    def with_player(self, i: int) -> "SubsetId":
        return SubsetId(self.n, self.members | {i})

    def without_player(self, i: int) -> "SubsetId":
        return SubsetId(self.n, self.members - {i})


@dataclass(frozen=True)
class PosteriorRate:
    """Beta(a, b) posterior of the employment rate after observing size s."""

    a: float
    b: float
    omega: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"posterior shapes must be positive, got ({self.a}, {self.b})")
        if not (0.0 <= self.omega <= 1.0):
            raise DomainError(f"observed rate must lie in [0, 1], got {self.omega}")


def _check_size(model: CoalitionModel, s) -> None:
    if s < 0 or s > model.n:
        raise DomainError(f"size {s} outside 0..{model.n}")


def size_pmf(model: CoalitionModel, s: int) -> float:
    """Probability that the employed set has exactly s members."""
    _check_size(model, s)
    return math.exp(
        log_binom(model.n, s)
        + log_beta(model.theta + s, model.rho + model.n - s)
        - log_beta(model.theta, model.rho)
    )


def subset_pmf(model: CoalitionModel, T: SubsetId) -> float:
    """Probability that the employed set equals T; depends on |T| only."""
    if T.n != model.n:
        raise DomainError(f"subset is over {T.n} players, model has {model.n}")
    t = T.size
    return math.exp(
        log_beta(model.theta + t, model.rho + model.n - t)
        - log_beta(model.theta, model.rho)
    )


def log_size_weights(model: CoalitionModel) -> np.ndarray:
    """log P(S = T) for one subset of each size t = 0..n."""
    n, th, rh = model.n, model.theta, model.rho
    lb0 = log_beta(th, rh)
    return np.array([log_beta(th + t, rh + n - t) - lb0 for t in range(n + 1)])


def posterior(model: CoalitionModel, s: int) -> PosteriorRate:
    """Posterior employment rate after observing |S| = s."""
    _check_size(model, s)
    return PosteriorRate(
        a=model.theta + s, b=model.rho + model.n - s, omega=s / model.n
    )


def sample_subset(model: CoalitionModel, rng: np.random.Generator) -> SubsetId:
    """One draw of S: a single row of ``sample_memberships``."""
    (row,) = sample_memberships(model, rng, 1)
    return SubsetId(model.n, frozenset(int(i) + 1 for i in np.flatnonzero(row)))


def sample_memberships(
    model: CoalitionModel, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) boolean membership matrix of independent draws of S.

    Each row draws p ~ Beta(theta, rho) (numpy's draw stays usable for
    shapes below one), then admits each player alone with probability p.
    This Bernoulli mixture has the row law of ``subset_pmf``.
    """
    p = rng.beta(model.theta, model.rho, size=count)
    return rng.random((count, model.n)) < p[:, None]


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, reproducible generators for parallel workers."""
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]
