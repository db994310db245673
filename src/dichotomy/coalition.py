"""Equal-opportunity coalition model.

The random employed set S is drawn from {1, ..., n} through three layers of
uncertainty: an inclusion probability p with a Beta(theta, rho) prior, a
coalition size s ~ Binomial(n, p), and a uniform choice among all subsets of
that size.  Marginally every subset T has probability depending on its size
only, which encodes equal opportunity for the players.  Given p, the last
two layers amount to n independent Bernoulli(p) memberships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .posterior import _BLOCK, PosteriorRate, _log_mode_factor

__all__ = [
    "CoalitionModel",
    "SubsetId",
    "PosteriorRate",
    "size_pmf",
    "subset_pmf",
    "sample_memberships",
    "posterior",
    "log_size_weights",
    "spawn_streams",
]


@dataclass(frozen=True)
class CoalitionModel:
    """Beta-Binomial opportunity distribution over subsets of n players.

    The size law P(|S| = t), t = 0..n, is computed on first use and held,
    read-only, for the model's lifetime: n + 1 floats, 80 MB at n = 1e7.
    """

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
        # The size law multiplies sizes by shapes; past this its ratios overflow.
        if not math.isfinite(self.n * (self.theta + self.rho + self.n)):
            raise DomainError(
                f"n (theta + rho + n) must be finite, got n = {self.n} and "
                f"({self.theta}, {self.rho})"
            )

    @property
    def prior_mean(self) -> float:
        """Prior mean of the employment rate."""
        return self.theta / (self.theta + self.rho)

    @cached_property
    def _size_pmf(self) -> np.ndarray:
        # Not a field: kept out of ==, hash and repr, and set by cached_property
        # in the instance dict, past the frozen __setattr__.
        p = _log_size_law(self)
        np.exp(p, out=p)
        p /= p.sum()
        p.setflags(write=False)
        return p


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


def _running_sum(d: np.ndarray, backward: bool = False) -> np.ndarray:
    """[0, d[0], d[0] + d[1], ..., sum(d)], summed blockwise; backward, the
    sums run from the end and are negated, [-sum(d), ..., -d[-1], 0].  A d
    that fits one block is summed in one sequential cumsum, which gives the
    bits of the zero-padded block."""
    k = len(d)
    blocks = -(-k // _BLOCK)
    out = np.zeros((blocks * _BLOCK if blocks > 1 else k) + 1)
    out[1 : k + 1] = d[::-1] if backward else d
    body = out[1:].reshape(max(blocks, 1), -1)
    np.cumsum(body, axis=1, out=body)
    if blocks > 1:
        body[1:] += np.cumsum(body[:-1, -1])[:, None]
    out = out[: k + 1]
    return np.negative(out, out=out)[::-1] if backward else out


def _log_size_law(model: CoalitionModel) -> np.ndarray:
    """log P(|S| = t) for t = 0..n, less its largest value.

    Neighbouring sizes have the ratio (n - t)(theta + t) / ((t + 1)(rho +
    n - 1 - t)); its excess over one has the numerator (n - t)(theta - 1) -
    (t + 1)(rho - 1), which is linear in t, so the law is unimodal (theta +
    rho >= 2) or U-shaped.  The logs of the ratios are summed away from
    each maximum: outward from the mode, or inward from both ends to the
    trough.  The integer n - 1 - t is formed before rho is added.
    """
    n, th, rh = model.n, model.theta, model.rho
    t = np.arange(n, dtype=float)
    rest = t[::-1]  # n - 1 - t
    num = (rest + 1.0) * (th - 1.0) - (t + 1.0) * (rh - 1.0)
    d = (t + 1.0) * (rh + rest)
    with np.errstate(over="ignore"):  # an overflowing excess is handled below
        np.divide(num, d, out=d)
    # Where the ratio is below one half, log1p of its excess would magnify
    # the rounding of the excess, and where the excess overflows it is lost:
    # there, take the logs of the ratio's two sides.
    far = np.flatnonzero((d < -0.5) | (d == np.inf))
    tf, rf = t[far], rest[far]
    np.log1p(d, out=d, where=(d >= -0.5) & (d < np.inf))
    d[far] = np.log((rf + 1.0) * (th + tf)) - np.log((tf + 1.0) * (rh + rf))
    unimodal = th + rh >= 2.0
    split = int(np.count_nonzero(num > 0.0 if unimodal else num < 0.0))
    left = _running_sum(d[:split], backward=unimodal)
    right = _running_sum(d[split:], backward=not unimodal)
    right += left[-1] - right[0]
    law = np.concatenate((left, right[1:]))
    law -= law.max()
    return law


def _size_pmf_vector(model: CoalitionModel) -> np.ndarray:
    """P(|S| = t) for every size t = 0..n, from the ratios of neighbouring
    sizes: the model's own read-only array, computed on first use."""
    return model._size_pmf


def _bd0(x: float, m: float, d: float) -> float:
    """x log(x / m) + m - x for the difference d = x - m (Loader's deviance
    term); near x = m it is summed as a series in v = d / (x + m)."""
    if x == 0.0:
        return m
    v = d / (x + m)
    if abs(v) >= 0.5:
        # m underflows only beside a tiny shape x, where x log(x / m) is negligible.
        return x * math.log(x / max(m, math.ulp(0.0))) - d
    total, term = d * v, 2.0 * x * v
    for j in range(3, 57, 2):  # |v| < 1/2: the last term is below 2^-52 of the first
        term *= v * v
        total += term / j
    return total


def _log_pmf_core(model: CoalitionModel, s: int) -> float:
    """log P(|S| = s) - log C(n, s) + n H(s / n), with H the binary entropy.

    With a = theta + s, b = rho + n - s and mu = a / (a + b), the terms of
    order n cancel exactly into four deviance terms, all of one sign, and
    what is left are the mode factors of the posterior and of the prior.
    """
    n, th, rh = model.n, model.theta, model.rho
    a, b = th + s, rh + (n - s)
    total = a + b
    d = (s * rh - (n - s) * th) / total  # s - n mu, without cancellation
    deviance = (
        _bd0(s, n * a / total, d) + _bd0(n - s, n * b / total, -d)
        + _bd0(th, (th + rh) * a / total, -d) + _bd0(rh, (th + rh) * b / total, d)
    )
    return -deviance - _log_mode_factor(a, b) + _log_mode_factor(th, rh)


def _check_size(model: CoalitionModel, s) -> None:
    if s < 0 or s > model.n:
        raise DomainError(f"size {s} outside 0..{model.n}")


def size_pmf(model: CoalitionModel, s: int) -> float:
    """Probability that the employed set has exactly s members."""
    _check_size(model, s)
    n = model.n
    log_p = _log_pmf_core(model, s)
    if 0 < s < n:  # log C(n, s) - n H(s / n)
        log_p += _log_mode_factor(s, n - s) + math.log(n / (s * (n - s)))
    return math.exp(log_p)


def subset_pmf(model: CoalitionModel, T: SubsetId) -> float:
    """Probability that the employed set equals T; depends on |T| only."""
    if T.n != model.n:
        raise DomainError(f"subset is over {T.n} players, model has {model.n}")
    n, t = model.n, T.size
    entropy = sum(k * math.log1p((n - k) / k) for k in (t, n - t) if k)
    return math.exp(_log_pmf_core(model, t) - entropy)


def log_size_weights(model: CoalitionModel) -> np.ndarray:
    """log P(S = T) for one subset of each size t = 0..n."""
    n = model.n
    law = _log_size_law(model)
    law -= math.log(np.exp(law).sum())
    j = np.arange(n // 2, dtype=float)
    half = _running_sum(np.log((n - j) / (j + 1.0)))  # log C(n, t) for t <= n / 2
    return law - np.concatenate((half, half[n - n // 2 - 1 :: -1]))


def posterior(model: CoalitionModel, s: int) -> PosteriorRate:
    """Posterior employment rate after observing |S| = s."""
    _check_size(model, s)
    return PosteriorRate(
        a=model.theta + s, b=model.rho + model.n - s, omega=s / model.n
    )


def sample_memberships(
    model: CoalitionModel, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) boolean membership matrix of independent draws of S.

    Each row draws p ~ Beta(theta, rho) (numpy's draw stays usable for
    shapes below one), then admits each player alone with probability p.
    This Bernoulli mixture has the row law of ``subset_pmf``.

    A cell takes one raw random byte B, not a float: with k = min(floor(256
    p), 255) and r = 256 p - k, both exact, the player is a member when
    B < k, and on the tie B = k when a uniform float is below r.  So P(member
    | p) = k / 256 + ceil(r 2^53) / 2^61, within 2^-61 of p; p = 1 admits
    every player and p = 0 none.
    """
    n = model.n
    p = rng.beta(model.theta, model.rho, size=count)
    p *= 256.0
    k = np.minimum(np.floor(p), 255.0)
    p -= k  # r, the fraction of the tie that admits
    k = k.astype(np.uint8)[:, None]
    cells = count * n
    raw = rng.bit_generator.random_raw(-(-cells // 8)).view(np.uint8)
    draws = raw[:cells].reshape(count, n)
    members = draws < k
    # flatnonzero of the flat mask: nonzero of the 2-D one takes ten times longer.
    ties = np.flatnonzero(draws == k)
    members.reshape(-1)[ties] = rng.random(len(ties)) < p[ties // n]
    return members


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent, reproducible generators for parallel workers."""
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in seq.spawn(count)]
