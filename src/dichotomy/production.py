"""Production functions over coalitions.

A game assigns a real value v(T) to every subset T of the n players, with
v(empty) = 0.  A dense table covers arbitrary games up to the enumeration
cap; the closed-form families avoid 2^n storage so that large labor markets,
voting bodies and component systems stay tractable.
"""

from __future__ import annotations

import json
import math
import operator
import warnings

import numpy as np

from .coalition import SubsetId
from .errors import CapacityError, DataError, DomainError, RangeError

__all__ = [
    "Game",
    "DenseTableGame",
    "SizeSymmetricGame",
    "WeightedVotingGame",
    "KOutOfNGame",
    "AdditiveGame",
    "uniformly_outperforms",
    "is_symmetric_pair",
    "game_from_json_dict",
    "load_dense_game",
    "random_dense_game",
    "random_monotone_game",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 24
_ENUMERATION_WARN = 20
# Integer voting games are counted, not enumerated, while every count fits
# int64 (C(66, 33) < 2^63 <= C(67, 33)) and the count table holds at most
# 2^22 int64 cells (32 MB).
_COUNT_MAX_N = 66
_COUNT_CELLS = 1 << 22


class Game:
    """Production function v(T) = _phi(sum of the weights _w over T); dense
    tables weigh player i by the bit 2^(i-1) and look up the bitmask."""

    n: int
    # True when v(T) depends on |T| only, which unlocks the large-n paths.
    size_only = False

    def _phi(self, stat: np.ndarray) -> np.ndarray:
        """v from an array of fresh weight sums, which it may overwrite."""
        raise NotImplementedError

    def _weight_sums(self, members: np.ndarray) -> np.ndarray:
        return members @ self._w

    def value(self, T: SubsetId) -> float:
        """v(T), by the same code that Monte Carlo uses."""
        if T.n != self.n:
            raise DomainError(f"subset over {T.n} players, game has {self.n}")
        row = np.zeros((1, self.n), dtype=bool)
        row[0, [i - 1 for i in T.members]] = True
        return float(self.values_for_memberships(row)[0])

    def values_for_memberships(self, members: np.ndarray, *, _sums=None) -> np.ndarray:
        """Vectorized v over a (k, n) boolean membership matrix.

        Monte Carlo passes the rows' weight sums as ``_sums`` when it has them
        already; they may be overwritten.
        """
        return self._phi(self._weight_sums(members) if _sums is None else _sums)

    def _flip_stats(self, sums: np.ndarray, members: np.ndarray) -> np.ndarray:
        """(k, n) weight sums of every T xor {i}, from the sum s of each row T:
        s - w_i for a member, s + w_i for an outsider (the same IEEE
        operation as s + (-w_i)).  Unlike a fresh evaluation of the flipped
        set, ``_phi`` of these may round a non-integer weighted game at an
        exact quota tie to the other side."""
        stat = (1 - 2 * members.view(np.int8)) * self._w  # -w_i in T, +w_i outside
        stat += sums[:, None]
        return stat

    def _swing_rows(self, sums: np.ndarray) -> np.ndarray | None:
        """The rows, by their weight sums, where a single flip may change v;
        None when any row may.  v(T xor {i}) = v(T) on every other row."""
        return None

    def value_bound(self) -> float:
        """An upper bound on |v(T)| over every coalition T."""
        raise NotImplementedError

    def value_by_size(self) -> np.ndarray:
        """v as a function of coalition size (size-symmetric games only)."""
        raise DomainError(f"{type(self).__name__} is not size-symmetric")

    def dense_values(self) -> np.ndarray:
        """v over all 2^n bitmasks; capped at the enumeration limit."""
        if self.n > ENUMERATION_CAP:
            raise CapacityError(
                f"dense enumeration limited to n <= {ENUMERATION_CAP}, got {self.n}"
            )
        if self.n > _ENUMERATION_WARN:
            warnings.warn(
                f"enumerating 2^{self.n} subsets; expect noticeable cost above "
                f"n = {_ENUMERATION_WARN}",
                stacklevel=2,
            )
        if self.size_only:
            return _mask_weights(self.value_by_size())
        if _sums_are_exact(self._w):
            # Any order of addition gives the same sums, so doubling matches
            # the matrix product bit for bit without the (2^n, n) matrix.
            return self._phi(_subset_sums(self._w))
        masks = np.arange(1 << self.n, dtype=np.int64)
        members = (masks[:, None] >> np.arange(self.n)[None, :]) & 1
        return self.values_for_memberships(members.astype(bool))


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """Sum of w over every bitmask of len(w) bits (bit k weighs w[k]), in
    w's dtype: the masks holding bit k are those below 2^k, plus w[k]."""
    out = np.zeros(1 << len(w), dtype=w.dtype)
    for k, wk in enumerate(w):
        np.add(out[: 1 << k], wk, out=out[1 << k : 2 << k])
    return out


def _voting_counts(game: Game, swings: bool = True):
    """(wins, swings) counts of an integer-weight voting game, or None.

    ``wins[t]`` is the number of winning coalitions of t players, and
    ``swings[i, t]`` the number of coalitions of t players without player
    i + 1 that lose, but win once i + 1 joins; ``swings`` is None when not
    asked for.  Both come from C[t, W], the number of coalitions of t players
    and weight W, built one player at a time (the generating-function count
    of Matsui & Matsui 2000).  Only losing weights W < quota are kept: wins
    are C(n, t) minus the losing counts, and removing one player of weight w
    from C is the exact deconvolution D[t] = C[t] - shift_w(D[t - 1]).  Every
    count is an exact int64, so nothing cancels.  None unless the weights
    are integers with exact sums, n <= _COUNT_MAX_N, and the table fits
    within _COUNT_CELLS cells.
    """
    n = game.n
    if not (
        isinstance(game, WeightedVotingGame)
        and n <= _COUNT_MAX_N
        and _sums_are_exact(game.weights)
    ):
        return None
    w = game.weights.astype(np.int64)
    # The lightest winning weight; past the total when nobody can win.
    top = min(math.ceil(game.quota), int(w.sum()) + 1)
    if (n + 1) * top > _COUNT_CELLS:
        return None
    losing = np.zeros((n + 1, top), np.int64)
    losing[0, 0] = 1
    reach = 0  # the weight of all the players added so far
    for k, wk in enumerate(w):
        width = min(reach + 1, top - wk)
        if width > 0:  # numpy reads an overlapping operand before writing
            losing[1 : k + 2, wk : wk + width] += losing[: k + 1, :width]
        reach += wk
    coalitions = np.array([math.comb(n, t) for t in range(n + 1)], np.int64)
    wins = coalitions - losing.sum(axis=1)
    if not swings:
        return wins, None
    swings = np.zeros((n, n), np.int64)
    # A player of weight 0 never swings.  (np.unique would cost a lazy
    # import of about 10 ms on a cold start.)
    for wk in set(w[w > 0].tolist()):
        others = losing[:n].copy()  # D[t, W]: the other n - 1 players
        lo = max(top - wk, 0)  # losing without the player, winning with them
        if lo:
            for t in range(1, n):
                others[t, wk:] -= others[t - 1, :lo]
        swings[w == wk] = others[:, lo:].sum(axis=1)
    return wins, swings


def _reaches(weights: list[int], lo: int, hi: int) -> bool:
    """Whether some subset of the non-negative integer weights weighs in
    [lo, hi): bit W of ``reach`` records a subset of weight W < hi."""
    if hi <= max(lo, 0):
        return False
    reach, below = 1, (1 << hi) - 1
    for w in weights:
        reach |= (reach << w) & below
    return reach >> max(lo, 0) != 0


def _popcounts(n: int) -> np.ndarray:
    """|T| for every bitmask T of n bits, as intp: numpy's index type, so
    indexing by it converts no copy."""
    return _subset_sums(np.ones(n, np.intp))


def _mask_weights(f: np.ndarray) -> np.ndarray:
    """f[|T|] for every bitmask T of len(f) - 1 bits, in mask order, with no
    index of 2^n entries: row a of a small table holds f[a + |low|] over the
    low half of the bits, and the rows are gathered by |high| of the rest."""
    n = len(f) - 1
    k = n // 2
    rows = f[np.arange(n - k + 1)[:, None] + _popcounts(k)]
    return rows[_popcounts(n - k)].reshape(-1)


def _sums_are_exact(w: np.ndarray) -> bool:
    """Whether every subset sum of w is exact in floats: integer weights whose
    absolute values sum below 2^53 (fsum rounds correctly, so a larger
    total cannot pass)."""
    return bool(np.all(w == np.trunc(w))) and math.fsum(np.abs(w)) < 2.0**53


def _largest_magnitude(values: np.ndarray) -> float:
    return float(max(values.max(), -values.min()))


def _player_weights(values, what: str) -> np.ndarray:
    """Read-only weight vector whose every partial sum is finite."""
    w = np.asarray(values, dtype=float)
    if w.ndim != 1 or len(w) < 1:
        raise DomainError(f"{what} must be a non-empty vector")
    if not np.isfinite(w).all():
        raise DomainError(f"{what} must be finite")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(w).sum()):
            raise RangeError(f"sum of |{what}| overflows the float range")
    w.setflags(write=False)
    return w


def _check_table_size(n: int) -> None:
    """Raise unless a table of 2^n values is within the enumeration cap."""
    if n < 1:
        raise DomainError("need at least one player")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"dense tables limited to n <= {ENUMERATION_CAP}, got {n}"
        )


class DenseTableGame(Game):
    """Explicit table of 2^n values indexed by bitmask (bit i-1 = player i)."""

    def __init__(self, n: int, values):
        _check_table_size(n)
        values = np.asarray(values, dtype=float)
        if values.shape != (1 << n,):
            raise DomainError(f"expected {1 << n} values, got {values.shape}")
        if not np.isfinite(values).all():
            raise DomainError("game values must be finite")
        if values[0] != 0.0:
            raise DomainError("value of the empty coalition must be 0")
        self.n = n
        self.table = values
        self.table.setflags(write=False)
        self._w = 1 << np.arange(n, dtype=np.int64)

    def _phi(self, stat):
        return self.table[stat]

    def _flip_stats(self, sums, members):
        return sums[:, None] ^ self._w  # bit i - 1 cleared in T, set outside

    def value_bound(self) -> float:
        return _largest_magnitude(self.table)

    def dense_values(self) -> np.ndarray:
        return self.table


class SizeSymmetricGame(Game):
    """v(T) = u(|T|) for a tabulated u with u(0) = 0."""

    size_only = True

    def __init__(self, n: int, by_size):
        by_size = np.asarray(by_size, dtype=float)
        if n < 1 or by_size.shape != (n + 1,):
            raise DomainError(f"need n+1 size values, got {by_size.shape} for n={n}")
        if not np.isfinite(by_size).all():
            raise DomainError("size values must be finite")
        if by_size[0] != 0.0:
            raise DomainError("value of the empty coalition must be 0")
        self.n = n
        self.by_size = by_size
        self.by_size.setflags(write=False)
        self._w = np.ones(n, dtype=np.int64)

    def _phi(self, stat):
        return self.by_size[stat]

    def value_bound(self) -> float:
        return _largest_magnitude(self.by_size)

    def _weight_sums(self, members):
        # Unit weights: a count, with no int64 copy of the membership matrix.
        return members.sum(axis=1)

    def _swing_rows(self, sums):
        # Size t can swing when u(t - 1), u(t) and u(t + 1) are not all equal.
        steps = self.by_size[1:] != self.by_size[:-1]
        swings = np.zeros(self.n + 1, dtype=bool)
        swings[1:] |= steps
        swings[:-1] |= steps
        return swings[sums]

    def value_by_size(self) -> np.ndarray:
        return self.by_size


class KOutOfNGame(SizeSymmetricGame):
    """v(T) = 1 when |T| >= k, else 0; the redundant-system benchmark."""

    def __init__(self, n: int, k: int):
        if n < 1 or not (1 <= k <= n):
            raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
        super().__init__(n, np.arange(n + 1) >= k)
        self.k = k


class WeightedVotingGame(Game):
    """v(T) = 1 when the weight of T reaches the quota, else 0."""

    def __init__(self, weights, quota: float):
        weights = _player_weights(weights, "weights")
        if np.any(weights < 0):
            raise DomainError("negative weights would break monotonicity")
        if not 0.0 < quota < math.inf:
            # A positive quota makes the empty coalition lose.
            raise DomainError(f"quota must be positive and finite, got {quota}")
        self.n = len(weights)
        self.weights = self._w = weights
        self.quota = float(quota)

    def _phi(self, stat):
        # 1.0 or 0.0 over the weight sums, a temporary: no second 8-byte array.
        return np.greater_equal(stat, self.quota, out=stat)

    def _swing_rows(self, sums):
        # Rounding is monotone, so every flip stat fl(s -+ w_i) lies between
        # fl(s - w_max) and fl(s + w_max), which may overflow to inf.
        w_max = self._w.max()
        with np.errstate(over="ignore"):
            return (sums - w_max < self.quota) & (sums + w_max >= self.quota)

    def value_bound(self) -> float:
        return 1.0


class AdditiveGame(Game):
    """v(T) = sum of per-player values over T."""

    def __init__(self, player_values):
        self.player_values = self._w = _player_weights(player_values, "player values")
        self.n = len(self.player_values)

    def _phi(self, stat):
        return stat

    def value_bound(self) -> float:
        return float(np.abs(self._w).sum())  # finite, as _player_weights checked


def _compare_pair(game: Game, i: int, j: int, op) -> bool:
    """Whether op(v(Z + i), v(Z + j)) holds for every Z avoiding both players."""
    if i == j:
        raise DomainError("players must be distinct")
    for p in (i, j):
        if not 1 <= p <= game.n:
            raise DomainError(f"player {p} outside 1..{game.n}")
    if game.size_only:
        return True
    if isinstance(game, AdditiveGame):
        return bool(op(game.player_values[i - 1], game.player_values[j - 1]))
    if isinstance(game, WeightedVotingGame):
        decided = _integer_voting_pair(game, i, j, op)
        if decided is not None:
            return decided
    table = game.dense_values()
    # Axes (high bits, bit hi, middle bits, bit lo, low bits) of the masks.
    lo, hi = sorted((i - 1, j - 1))
    t = table.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    with_i, with_j = t[:, 0, :, 1], t[:, 1, :, 0]  # z + lo, z + hi
    if lo != i - 1:
        with_i, with_j = with_j, with_i
    return bool(np.all(op(with_i, with_j)))


def _integer_voting_pair(game: WeightedVotingGame, i: int, j: int, op) -> bool | None:
    """_compare_pair from the weights of a voting game, with no table; None
    unless the weights are integers and n times the width of the reach
    bitset stays within _COUNT_CELLS."""
    if not _sums_are_exact(game.weights):
        return None
    wi, wj = int(game.weights[i - 1]), int(game.weights[j - 1])
    others = [int(w) for k, w in enumerate(game.weights) if k not in (i - 1, j - 1)]
    # Z + i and Z + j decide apart exactly when the weight of Z reaches
    # ceil(q) with the heavier of the two but not with the lighter; no Z
    # weighs more than the others together.
    top = min(math.ceil(game.quota), sum(others) + max(wi, wj) + 1)
    lo, hi = top - max(wi, wj), top - min(wi, wj)
    if game.n * hi > _COUNT_CELLS:
        return None
    if not _reaches(others, lo, hi):
        return True  # v(Z + i) = v(Z + j) for every Z: a tie
    # Some Z wins with the heavier player only, and none the other way.
    return bool(op(float(wi > wj), float(wj > wi)))


def uniformly_outperforms(game: Game, i: int, j: int) -> bool:
    """Whether player i's marginal contribution dominates j's.

    Dominance must hold both when the two players would join a coalition
    containing neither, and when they would leave one containing both; the
    two requirements reduce to the same comparison over coalitions avoiding
    the pair.  Ties count as outperforming.
    """
    return _compare_pair(game, i, j, operator.ge)


def is_symmetric_pair(game: Game, i: int, j: int) -> bool:
    """Whether i and j are interchangeable in v (mutual outperformance)."""
    return _compare_pair(game, i, j, operator.eq)


def game_from_json_dict(spec: dict) -> DenseTableGame:
    """Dense game from {"n": int, "values": [2^n reals by bitmask]}.

    Malformed data raises DataError; a table beyond the cap, CapacityError.
    """
    try:
        return DenseTableGame(int(spec["n"]), spec["values"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed game object: {exc}") from exc


def load_dense_game(path: str) -> DenseTableGame:
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise DataError(f"malformed game file {path}: {exc}") from exc
    return game_from_json_dict(spec)


def random_dense_game(n: int, rng: np.random.Generator) -> DenseTableGame:
    """Uniform random values on all non-empty coalitions."""
    _check_table_size(n)
    values = rng.random(1 << n)
    values[0] = 0.0
    return DenseTableGame(n, values)


def random_monotone_game(n: int, rng: np.random.Generator) -> DenseTableGame:
    """Random monotone game: positive mix of 2n unanimity requirements.

    Each term pays a positive amount once a required subset is fully hired;
    sums of such terms are monotone nondecreasing in set inclusion.

    A term adds its pay only to the coalitions that hold every bit of
    ``need``: one strided view of 2^(n - |need|) entries, where axis
    n - 1 - j of the (2,) * n table is bit j.  So the 2n terms cost 2n adds
    over sub-cubes, with no array of masks.  The table is the one that adding
    each term's 0/pay vector over all 2^n masks gives, bit for bit: every pay
    is >= 0, x + 0.0 = x for x >= +0.0, and each entry sums its pays in term
    order.  The draws are the same too: ``need``, then ``pay``, per term.
    """
    _check_table_size(n)
    values = np.zeros(1 << n)
    cube = values.reshape((2,) * n)
    for _ in range(2 * n):
        need = int(rng.integers(1, 1 << n))
        pay = float(rng.random())
        cube[tuple(1 if need >> (n - 1 - a) & 1 else slice(None) for a in range(n))] += pay
    values[0] = 0.0
    return DenseTableGame(n, values)
