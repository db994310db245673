"""Per-player valuation under the random bipartition.

Each player carries two numbers: the expected marginal gain when employed
(the production lost if they left the employed set) and the expected
marginal loss when unemployed (the production gained if the market hired
them).  Exact evaluation rewrites each expectation as a difference of two
subset sums, which needs a single pass over coalitions; closed-form
aggregates and Monte Carlo estimators cover the regimes where full
enumeration is out of reach.  ``_exact`` alone picks a game's exact path
(size law, additive, integer-vote counts or the 2^n table) and serves the
valuation, the by-size totals of the closed forms, or both from one pass.
A table valuation sums each player's steps v(T + i) - v(T) by |T|, pair by
pair.  In an integer table whose sums stay below 2^53 every sum is exact, so
the steps are also A_i(t + 1) - (Tot(t) - A_i(t)), a difference of by-size
sums of the values, which one-hot products give bit for bit in a fraction
of the walk's time (``_integer_sums``); over floats that difference cancels,
so other tables keep the walk.
Monte Carlo on a table game that draws at least 2^n samples draws how often
each coalition comes up, a multinomial over P(S = T) drawn as sizes then
uniform ranks within each size, and weighs each (T, T + i) pair once by
those counts; ``_exact``, whose P(S = T) depends on |T| alone, sums the
pairs by |T| and weighs each size once.  Every other game samples rows,
whose membership cells come from raw random bytes (``sample_memberships``):
an additive game, whose marginals are its player values, counts how often
each player is drawn inside, and the rest flip their rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coalition import CoalitionModel, _size_pmf_vector, sample_memberships, spawn_streams
from .errors import CapacityError, DomainError, InvariantViolation, SingularSystemError
from .production import (
    AdditiveGame,
    DenseTableGame,
    ENUMERATION_CAP,
    Game,
    _COUNT_MAX_N,
    _popcounts,
    _voting_counts,
    uniformly_outperforms,
)

__all__ = [
    "Valuation",
    "OrderingReport",
    "exact_valuation",
    "aggregate_gain_closed_form",
    "aggregate_loss_closed_form",
    "expected_production",
    "mc_valuation",
    "ordering_check",
]

# Membership cells (rows x players) per Monte Carlo chunk, or one row when n
# is larger; the chunk depends on n only, not on the worker count.
_MC_CELLS = 1 << 16
# Each stream is a generator of about 1 KB that takes about 18 us to spawn.
_MAX_STREAMS = 1 << 10
# Sample counts and their sums are exact in floats below 2^53.
_MAX_SAMPLES = 1 << 53
# Monte Carlo sums squares of values and marginals.  A game whose values may
# reach 2**_MC_MAX_EXP is scaled by a power of two, which is exact, so that
# |marginal| < 2**401 and the sums of squares stay finite up to 2**220 samples.
_MC_MAX_EXP = 400
# Pairs per block of the pair walk, and entries per table block of the sums
# by size (``_size_sums``, ``_integer_sums``), both laid as (2^(k-h), 2^h)
# with h = k // 2.  A block's slices of the table and the counts stay in L2
# while every player runs over them.  A power of two of at least 128, so that
# the block sums fold to the bits of numpy's pairwise sum, which splits a
# contiguous array down to 128 entries.  Each block's product is 2^17
# multiply-adds, below the 65,536 * 4 where OpenBLAS's dgemm starts its
# thread pool (a whole-table product at n = 20 does, and adds about 3 MB of
# peak RSS).  The last products, which gather the sums by size, pass it from
# n = 23: at n = 24 the walk's steps take 24 * 640 * 24 = 368,640 and the
# integer sums 15 * 704 * 25 = 264,000.
_PAIR_BLOCK = 1 << 14
# Draws per coalition up to which a size's count is spread by uniform ranks
# rather than one multinomial call, which makes a binomial draw per
# coalition.  Ranks are the faster up to 16 to 28 draws per coalition at
# C(n, t) = 1,820 to 184,756; at 8 their int64 array holds at most
# 8 C(n, t), 1.6 tables of 2^n floats at n = 16 and less at larger n.
_RANK_DRAWS = 8
# Membership cells per Monte Carlo worker thread; below two threads' worth
# the streams run in the calling thread.  A chunk's numpy calls are short,
# and each hands the interpreter lock to the other thread.  On a 2-core host
# (8 streams, each worker count in its own process, best of 15), a second
# thread ran 0.35-0.96x as fast up to 2^20 cells in all (1.02x on additive
# n = 100), and from 2^21 0.84-1.11x on voting games and 1.05-1.46x on
# additive ones.  A table game's rows gather from its 2^n values in calls
# long enough that a second thread pays from an eighth of the cells:
# 0.77-0.91x at 2^17, 1.13-1.31x at 2^18 and 1.45-1.98x from 2^19.  So a
# table's row cells count eight times.
_POOL_CELLS = 1 << 20


@dataclass(frozen=True)
class Valuation:
    """Per-player marginal gains and losses plus their aggregates."""

    gain: np.ndarray
    loss: np.ndarray
    aggregate_gain: float
    aggregate_loss: float
    expected_production: float
    method: str
    samples: int | None = None
    seed: int | None = None
    streams: int | None = None
    gain_se: np.ndarray | None = None
    loss_se: np.ndarray | None = None
    expected_production_se: float | None = None

    def to_json_dict(self) -> dict:
        # tolist() gives Python floats from the float64 arrays, as float() does.
        out = {
            "method": self.method,
            "gamma": self.gain.tolist(),
            "lambda": self.loss.tolist(),
            "aggregate_gamma": float(self.aggregate_gain),
            "aggregate_lambda": float(self.aggregate_loss),
            "expected_production": float(self.expected_production),
        }
        if self.method == "mc":
            out["samples"] = self.samples
            out["seed"] = self.seed
            out["streams"] = self.streams
            out["std_error"] = {
                "gamma": self.gain_se.tolist(),
                "lambda": self.loss_se.tolist(),
                "expected_production": float(self.expected_production_se),
            }
        return out


def _check_model_game(model: CoalitionModel, game: Game) -> None:
    if model.n != game.n:
        raise DomainError(f"model has {model.n} players, game has {game.n}")


def _subset_weights(pmf: np.ndarray) -> np.ndarray:
    """P(S = T) for one coalition T of each size, from the size pmf; the
    binomial coefficients are exact integers, whose floats may round (by at
    most half an ulp) once they pass 2^53, from n = 57 on."""
    n = len(pmf) - 1
    return pmf / np.array([math.comb(n, t) for t in range(n + 1)], dtype=float)


def _pair_walk(*arrays: np.ndarray):
    """Every pair (T, T + i) of 2^n-entry arrays, a block of pairs at a time.

    Pair c of player i + 1 is (T, T + i), where T = c + (c >> i << i) spreads
    the bits of c around bit i, so T has |c| members.  The pair indices are
    cut into aligned blocks of ``_PAIR_BLOCK`` (one block when 2^(n-1) is no
    larger), and each block runs every player in turn, so that its slices of
    the arrays stay in cache.  Yields (i, pairs, views, buffers) for each
    block and bit i: ``pairs`` slices the block out of the pair indices,
    ``views`` holds the (T, T + i) views of each array, and ``buffers`` the
    walk's two block-long scratch buffers, the same two at every step, each as
    (flat, laid): ``laid`` shapes ``flat`` as the views, so that ufuncs called
    with ``order="C"`` match each pair with its own entry of ``flat``.
    """
    n = len(arrays[0]).bit_length() - 1
    size = min(1 << (n - 1), _PAIR_BLOCK)
    flats = np.empty((2, size))
    # Pair c is [c >> i, :, c % 2^i] of the (-1, 2, 2^i) view: a block holds
    # size >> i whole runs of 2^i pairs, or lies within one run.
    players = []
    for i in range(n):
        rows = max(1, size >> i)
        laid = flats.reshape(2, rows, -1)
        if i in (1, 2):  # runs of 2 and 4 pairs are walked across, in long inner loops
            laid = laid.transpose(0, 2, 1)
        shaped = [x.reshape(-1, 2, 1 << i) for x in arrays]
        players.append((rows, shaped, list(zip(flats, laid))))
    for start in range(0, 1 << (n - 1), size):
        pairs = slice(start, start + size)
        for i, (rows, shaped, buffers) in enumerate(players):
            a, b = divmod(start, 1 << i)
            without, with_ = ((slice(a, a + rows), side, slice(b, b + size)) for side in (0, 1))
            views = [(x[without], x[with_]) for x in shaped]
            if i in (1, 2):
                views = [(lo.T, hi.T) for lo, hi in views]
            yield i, pairs, views, buffers


def _fold(sums: list, n: int) -> np.ndarray:
    """The per-player totals of a pair walk's sums: ``sums`` holds one tuple
    per block and player, and entry k of the result is the (n,) totals of
    entry k of the tuples.  Each player's block sums are added pairwise, as
    numpy's sum adds the aligned power-of-two chunks of a contiguous array,
    so they total to the bits of one sum over all the pairs."""
    sums = np.asarray(sums)
    sums = sums.reshape(-1, n, sums.shape[-1]).T
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0].copy()


@functools.cache
def _one_hot(bits: int) -> np.ndarray:
    """(2^bits, bits + 1) floats: row j is 1 in column |j| and 0 elsewhere.
    Built once per bit count and read-only."""
    out = (np.bitwise_count(np.arange(1 << bits))[:, None] == np.arange(bits + 1)).astype(float)
    out.setflags(write=False)
    return out


@functools.cache
def _members(bits: int) -> np.ndarray:
    """(2^bits, (bits + 1)^2) floats: column (g, w) of row j is 1 where
    |j| = w and j holds bit g, and for g = bits where |j| = w, so those last
    bits + 1 columns are ``_one_hot(bits)``.  Built once per bit count and
    read-only."""
    j = np.arange(1 << bits)
    holds = np.c_[(j[:, None] >> np.arange(bits) & 1) == 1, np.ones(1 << bits, dtype=bool)]
    sized = np.bitwise_count(j)[:, None] == np.arange(bits + 1)
    out = (holds[:, :, None] & sized[:, None, :]).reshape(1 << bits, -1).astype(float)
    out.setflags(write=False)
    return out


@functools.cache
def _gather_sizes(*bits: int) -> np.ndarray:
    """The one-hot that adds sizes: row (x_1, ..., x_m), each x_j from 0 to
    bits[j] in C order, is 1 in column x_1 + ... + x_m.  Built once per
    layout and read-only."""
    sizes = functools.reduce(np.add.outer, [np.arange(b + 1) for b in bits])
    out = (sizes.reshape(-1, 1) == np.arange(sum(bits) + 1)).astype(float)
    out.setflags(write=False)
    return out


def _size_gather(m: int, k: int) -> np.ndarray:
    """The last one-hot of ``_size_sums`` over 2^m entries in blocks of 2^k:
    row (|start|, |high|, |low|) is 1 in column |start| + |high| + |low|."""
    return _gather_sizes(m - k, k - k // 2, k // 2)


def _size_sums(blocks, rows: int, m: int) -> np.ndarray:
    """Sums of ``rows`` vectors of 2^m entries by the popcount of the index:
    entry [r, t] sums entry j of vector r over the j with |j| = t.

    ``blocks`` yields (r, start, x), where x holds entries start onward of
    vector r, in aligned blocks of 2^k = min(2^m, _PAIR_BLOCK) entries, and
    may be a buffer that the next block overwrites.  With h = k // 2, x laid
    as (2^(k-h), 2^h) times the one-hot of h bits sums each row by its low
    bits, into an accumulator picked by |start|, which is |start + j| - |j|.
    The one-hot of the k - h high bits is applied once at the end, and the
    sizes |start| + |high| + |low| are gathered by a last one-hot.  Every
    product is a sum of entries, so a sum of finite entries that overflows
    reads inf or nan.
    """
    k = min(m, _PAIR_BLOCK.bit_length() - 1)
    h = k // 2
    low = _one_hot(h)
    acc = np.zeros((rows, m - k + 1, 1 << (k - h), h + 1))
    product = np.empty(acc.shape[2:])
    for r, start, x in blocks:
        np.matmul(x.reshape(-1, 1 << h), low, out=product)
        acc[r, start.bit_count()] += product
    parts = _one_hot(k - h).T @ acc  # [r, |start|, |high|, |low|]
    return parts.reshape(rows, -1) @ _size_gather(m, k)


def _table_sums(table: np.ndarray, n: int, players: bool):
    """(steps, totals) of a 2^n table: steps[i, t] sums v(T + i) - v(T)
    over the T of t members that avoid player i + 1 (None unless
    ``players``), and totals[t] sums v(T) over the T of t members."""
    steps = None
    if players:

        def step_blocks():
            for i, pairs, [(lo, hi)], [(step, laid), _] in _pair_walk(table):
                np.subtract(hi, lo, out=laid, order="C")
                yield i, pairs.start, step

        steps = _size_sums(step_blocks(), n, n - 1)
    size = min(1 << n, _PAIR_BLOCK)
    value_blocks = ((0, start, table[start : start + size]) for start in range(0, 1 << n, size))
    return steps, _size_sums(value_blocks, 1, n)[0]


def _integer_sums(table: np.ndarray, n: int):
    """``_table_sums(table, n, True)`` bit for bit, from one-hot products,
    when every value is an integer and 2^n max|v| < 2^53; else None.

    Then every sum of values is an exact integer in any order, and so is
    steps[i, t] = A_i(t + 1) - (Tot(t) - A_i(t)), where A_i(s) sums v(S)
    over the S of s members that hold bit i, and Tot(s) over all of them:
    the sum of v(T + i) - v(T) that the pair walk forms.  Over floats this
    difference of large sums would cancel, which is why the walk exists.

    Each aligned block of 2^k entries, laid out as in ``_size_sums``, is
    checked (a float table is turned away by its last 64 values, before any
    block), then summed into acc by |start|: S = start + j has |start| + |j|
    members, so every block of one |start| shares the sums of its k low
    bits.  For each of the high bits that start holds, the block's entries
    summed by |j|, from the one-hot of their h lowest bits, are added by
    |start| + |low|.  At the end, acc laid as (2^(k-h), 2^h) per |start|
    meets the one-hot of its row bits and ``_members(h)``, for the totals
    and the h lowest bits, and the one-hot of h bits and ``_members(k - h)``,
    for the row bits; every sum by size is gathered as in ``_size_sums``.
    """
    if not all(v.is_integer() for v in table[-64:].tolist()):
        return None
    bound = math.ldexp(1.0, 53 - n)
    k = min(n, _PAIR_BLOCK.bit_length() - 1)
    h = k // 2
    rows = 1 << (k - h)
    lows = _one_hot(h)
    acc = np.zeros((n - k + 1, rows, 1 << h))  # [|start|, row, low]
    high = np.zeros((n - k, n - k + h + 1, rows))  # [bit - k, |start| + |low|, row]
    part = np.empty((h + 1, rows))
    buf = np.empty(1 << k)
    same = np.empty(1 << k, dtype=bool)
    for start in range(0, 1 << n, 1 << k):
        x = table[start : start + (1 << k)]
        if not (
            np.abs(x, out=buf).max() < bound
            and np.equal(np.rint(x, out=buf), x, out=same).all()
        ):
            return None
        laid = x.reshape(rows, -1)
        c = start.bit_count()
        acc[c] += laid
        if c:
            np.matmul(lows.T, laid.T, out=part)
            for i in range(n - k):
                if start >> (k + i) & 1:
                    high[i, c : c + h + 1] += part
    u = k - h + 1
    by_rows = (_one_hot(k - h).T @ acc @ _members(h)).reshape(-1, u, h + 1, h + 1)
    by_lows = (_members(k - h).T @ (acc @ lows)).reshape(-1, u, u, h + 1)
    # [bits 0 to h - 1, bits h to k - 1, all][|start|, |row|, |low|]
    parts = np.concatenate(
        [
            by_rows.transpose(2, 0, 1, 3)[:h],
            by_lows[:, :-1].transpose(1, 0, 2, 3),
            by_rows[None, :, :, h],
        ]
    )
    sums = parts.reshape(k + 1, -1) @ _size_gather(n, k)
    highs = (high @ _one_hot(k - h)).reshape(n - k, (n - k + h + 1) * u)
    members = np.concatenate([sums[:k], highs @ _gather_sizes(n - k + h, k - h)])
    totals = sums[k]
    return members[:, 1:] - (totals[:-1] - members[:, :-1]), totals


def _exact(
    model: CoalitionModel, game: Game, players: bool = True, totals: bool = True
) -> tuple[Valuation | None, np.ndarray | None]:
    """The one place that picks a game's exact path: the size law for
    size-symmetric games, the prior mean for additive ones, counts for
    integer voting weights, else enumeration of the 2^n table.  P(S = T) is
    f(|T|), so the table pass needs sums by size alone (``_table_sums``):
    each player's steps v(T + i) - v(T), one per pair, summed over the T of
    each size, and v(T) summed over the T of each size.  When the valuation
    is asked and every value is an integer with 2^n max|v| < 2^53,
    ``_integer_sums`` takes the same bytes, at any n, from one-hot products
    of the walk's table blocks: each step sum is then a difference of exact
    integer sums by size, which over floats would cancel.  The gain weighs the
    steps of size t by f(t + 1), the loss by f(t), and the totals take f(t)
    once per size.  The valuation's expected production is the number
    ``expected_production`` returns: the sum of those totals, or for an
    additive game ``_additive_production``, which needs no size law.  The
    size law is the model's own (``_size_pmf_vector``): computed on the
    first call that needs it and held read-only for the model's lifetime,
    so every exact call on one model reads one law.

    Returns the Valuation when ``players`` and, when ``totals``, P(S = T)
    times the sum of v(T) over the coalitions T of each size t (the last
    entry is P(S = N) v(N)); the other is None.
    """
    _check_model_game(model, game)
    n = game.n
    additive = isinstance(game, AdditiveGame)
    # An additive valuation needs no size law.
    pmf = None if additive and not totals else _size_pmf_vector(model)
    by_size = None
    if game.size_only:
        if players:
            step = np.diff(game.value_by_size())  # u(t + 1) - u(t)
            inside = np.arange(n + 1) / n  # C(n-1, t-1) / C(n, t)
            outside = inside[::-1]  # C(n-1, t) / C(n, t)
            # fsum only the sizes where u steps; it is slow over all n.
            moves = step != 0
            gain = np.full(n, math.fsum((pmf[1:] * inside[1:] * step)[moves]))
            loss = np.full(n, math.fsum((pmf[:-1] * outside[:-1] * step)[moves]))
            del step, inside, outside, moves  # freed before the size totals
        by_size = pmf * game.value_by_size()
        production = float(by_size.sum())
    elif additive:
        if players:
            gain = game.player_values * model.prior_mean
            # rho / (theta + rho), not 1 - prior_mean, which cancels when rho << theta.
            loss = game.player_values * (model.rho / (model.theta + model.rho))
            production = _additive_production(model, game)
        if totals:
            # Each player sits in C(n-1, t-1) of the C(n, t) coalitions of size t.
            by_size = pmf * (np.arange(n + 1) / n) * float(game.player_values.sum())
    elif (counts := _voting_counts(game, swings=players)) is not None:
        # A swing of player i + 1 from a coalition T of t others weighs
        # P(S = T + i) in the gain and P(S = T) in the loss.
        wins, swings = counts
        f = _subset_weights(pmf)
        by_size = f * wins
        production = float(by_size.sum())
        if players:
            gain, loss = swings @ f[1:], swings @ f[:-1]
    else:
        if n > ENUMERATION_CAP:
            raise CapacityError(
                f"exact valuation by enumeration limited to n <= {ENUMERATION_CAP}; "
                f"integer voting weights are counted up to n = {_COUNT_MAX_N}"
            )
        table = game.dense_values()
        unscale = 1.0
        summed = _integer_sums(table, n) if players else None
        if summed is not None:
            steps, sums = summed
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is met below
                steps, sums = _table_sums(table, n, players)
        if not (np.isfinite(sums).all() and (steps is None or np.isfinite(steps).all())):
            # The values are finite, so a sum of them overflowed.  No sum of
            # 2^n values below 2^1024 / 2^(n + 1) does, and a power of two
            # scales them exactly.
            unscale = math.ldexp(1.0, n + 1)
            steps, sums = _table_sums(table / unscale, n, players)
        # P(S = T) is f(|T|), so a step of T weighs f(|T| + 1) in the gain
        # and f(|T|) in the loss.
        f = _subset_weights(pmf)
        if players:
            gain, loss = _scaled(steps @ f[1:], unscale), _scaled(steps @ f[:-1], unscale)
        by_size = _scaled(f * sums, unscale)
        production = float(by_size.sum())
    if not players:
        return None, by_size
    gain.setflags(write=False)
    loss.setflags(write=False)
    return Valuation(
        gain=gain,
        loss=loss,
        aggregate_gain=float(gain.sum()),
        aggregate_loss=float(loss.sum()),
        expected_production=production,
        method="exact",
    ), by_size if totals else None


def _additive_production(model: CoalitionModel, game: AdditiveGame) -> float:
    """theta / (theta + rho) times the correctly rounded sum of the values:
    each player is inside with the prior mean, so no size law is needed."""
    return model.prior_mean * math.fsum(game.player_values)


def expected_production(model: CoalitionModel, game: Game) -> float:
    """Mean of v(S) under the coalition model, the valuation's own number."""
    if isinstance(game, AdditiveGame):
        _check_model_game(model, game)
        return _additive_production(model, game)
    return float(_exact(model, game, players=False)[1].sum())


def exact_valuation(model: CoalitionModel, game: Game) -> Valuation:
    """Exact per-player valuation.

    Enumerates coalitions up to the cap, and counts those of each size and
    weight for integer-weight voting games up to n = 66; size-symmetric and
    additive games take closed-form routes that scale to any n.
    """
    return _exact(model, game, totals=False)[0]


def _fsum_nonzero(terms: np.ndarray) -> float:
    """math.fsum of the terms, over the non-zero ones alone: fsum is exact,
    so zeros change no bit, and they are half the terms of a majority game.
    When every term is zero, all are summed, so even the sign of the zero is
    that of the full sum."""
    nonzero = terms[terms != 0.0]
    return math.fsum(nonzero if len(nonzero) else terms)


def _closed_form(model: CoalitionModel, weighted: np.ndarray, which: str) -> float:
    """One aggregate from the by-size totals of _exact."""
    n, th, rh = model.n, model.theta, model.rho
    t = np.arange(n + 1, dtype=float)
    if which == "gain":
        denom = rh + (n - 1.0 - t)  # the integer part first, so rho keeps its digits
        if np.any(np.abs(denom[:n]) < 1e-12):
            raise SingularSystemError(
                "coefficient denominator rho + n - t - 1 vanishes"
            )
        coef = np.empty(n + 1)
        coef[:n] = (t[:n] * (th + rh - 1.0) - n * th) / denom[:n]
        coef[n] = n  # the grand coalition's own term, n P(S = N) v(N)
        return _fsum_nonzero(coef * weighted)
    denom = th + (t - 1.0)
    if np.any(np.abs(denom[1:]) < 1e-12):
        raise SingularSystemError("coefficient denominator theta + t - 1 vanishes")
    coef = np.zeros(n + 1)
    coef[1:] = (t[1:] * (th + rh - 1.0) - n * (th - 1.0)) / denom[1:]
    # v(empty) = 0 by construction, so the empty coalition adds no term.
    return _fsum_nonzero(coef * weighted)


def aggregate_gain_closed_form(model: CoalitionModel, game: Game) -> float:
    """Sum of all marginal gains via the observable reformulation."""
    return _closed_form(model, _exact(model, game, players=False)[1], "gain")


def aggregate_loss_closed_form(model: CoalitionModel, game: Game) -> float:
    """Sum of all marginal losses via the observable reformulation."""
    return _closed_form(model, _exact(model, game, players=False)[1], "loss")


def _scaled(values: np.ndarray, scale: float) -> np.ndarray:
    # A power of two, so exact; ordinary games (scale 1) do no array work.
    return values if scale == 1.0 else values * scale


def _mc_stream(model: CoalitionModel, game: Game, rng, count: int, scale: float) -> np.ndarray:
    """Sums for one stream: gain, gain^2, loss and loss^2 (a block of n each),
    then production, production^2 and the sample count, all in values
    multiplied by ``scale``.

    In an additive game the marginal of player i is w_i, inside T or out, so
    a draw adds w_i to the gain of each member and to the loss of each
    outsider: the stream counts how often each player is drawn inside, and
    each sum is that exact count times w_i (or w_i^2), rounded once.
    """
    n = model.n
    acc = np.zeros(4 * n + 3)
    per_player = acc[: 4 * n].reshape(2, 2, n)
    rows = max(1, _MC_CELLS // n)
    additive = isinstance(game, AdditiveGame)
    inside = np.zeros(n, dtype=np.int64)
    for done in range(0, count, rows):
        members = sample_memberships(model, rng, min(rows, count - done))
        sums = game._weight_sums(members)
        if additive:
            inside += members.sum(axis=0)
        else:
            # Marginals only on the rows where a flip may swing v: every other
            # row adds +-0 to the column sums below, which run row by row, so
            # they keep their bits.  A single column is summed in unrolled
            # lanes, whose grouping depends on the row count, so n = 1 keeps
            # every row.
            swing = game._swing_rows(sums) if n > 1 else None
            kept = slice(None) if swing is None else swing
            flipped = _scaled(game._phi(game._flip_stats(sums[kept], members[kept])), scale)
        # Every row is evaluated here, and the sums may be overwritten.
        v_s = _scaled(game.values_for_memberships(members, _sums=sums), scale)
        if not additive:
            # v(T) - v(T xor {i}): the gain of a member, minus the loss of an outsider.
            diff = np.subtract(v_s[kept, None], flipped, out=flipped)
            gain = diff * members[kept]
            for block, x in zip(per_player, (gain, np.subtract(gain, diff, out=diff))):
                # Column sums of x and x^2; einsum needs no x * x temporary.
                block += np.einsum("ij->j", x), np.einsum("ij,ij->j", x, x)
        acc[4 * n :] += (v_s.sum(), (v_s * v_s).sum(), len(v_s))
    if additive:
        w = _scaled(game.player_values, scale)
        # Counts below 2^53 are exact floats, so each product rounds once.
        for block, k in zip(per_player, (inside, count - inside)):
            block += w * k, (w * w) * k
    return acc


def _mc_table_sums(game: DenseTableGame, drawn: np.ndarray, scale: float) -> np.ndarray:
    """The sums of _mc_stream from the draw counts of a table game.

    A row S = T + i adds the step v(T + i) - v(T) to the gain of player
    i + 1, and a row S = T adds it to the loss, so each pair (T, T + i) is
    weighed once, by the count of T + i and by the count of T, where
    ``_exact`` weighs the step sums of each size by P(S = T + i) and
    P(S = T).  The pairs are walked block by block with every player per
    block in the walk's own two buffers, and the block sums fold to the bits
    of one sum per player.
    """
    n = game.n
    acc = np.zeros(4 * n + 3)
    count = drawn.astype(float)  # exact below 2^53 samples
    values = _scaled(game.table, scale)
    sums = []
    walk = _pair_walk(values, count)
    for _, _, [(lo, hi), (outside, inside)], [(step, laid), (weighed, weighed_laid)] in walk:
        np.subtract(hi, lo, out=laid, order="C")
        row = []
        for rows in (inside, outside):  # the gain by count(T + i), the loss by count(T)
            np.multiply(rows, laid, out=weighed_laid, order="C")
            row.append(weighed.sum())
            weighed *= step
            row.append(weighed.sum())
        sums.append(row)
    # Added into the zeroed sums, as _mc_stream adds its column sums.
    acc[: 4 * n] += _fold(sums, n).reshape(-1)
    count *= values  # in place: c v, then c v^2
    production = count.sum()
    count *= values
    acc[4 * n :] += (production, count.sum(), drawn.sum())
    return acc


def _draw_counts(model: CoalitionModel, rng: np.random.Generator, samples: int) -> np.ndarray:
    """How often each coalition comes up in ``samples`` draws of S, in mask
    order: a Multinomial(samples, P(S = T)), drawn as sizes then ranks.

    The counts of each size are Multinomial(samples, P(|S| = t)), and those
    of size t spread over its C(n, t) equally likely coalitions as a uniform
    multinomial, drawn by ``bincount`` of uniform ranks up to
    ``_RANK_DRAWS`` per coalition, and by one multinomial call above.  Rank
    r of size t is the r-th mask of t members in mask order.
    """
    n = model.n
    by_rank = np.zeros(1 << n, dtype=np.int64)  # size 0's counts, then size 1's, ...
    start = 0
    for t, c in enumerate(rng.multinomial(samples, _size_pmf_vector(model)).tolist()):
        m = math.comb(n, t)
        if c:
            if c <= _RANK_DRAWS * m:
                counts = np.bincount(rng.integers(0, m, c), minlength=m)
            else:
                counts = rng.multinomial(c, np.full(m, 1.0 / m))
            by_rank[start : start + m] = counts
        start += m
    return _in_mask_order(by_rank, n)


def _in_mask_order(by_rank: np.ndarray, n: int) -> np.ndarray:
    """The entries of ``by_rank``, which holds one entry per mask of n bits
    by size and then rank in mask order, laid out in mask order, each moved
    once.  A mask splits into its k = n // 2 low bits l and its high bits h:
    its rank among the masks of its size t is the number of those whose high
    part is below h, plus the rank of l among the low parts of size t - |h|.
    A small (2^(n-k), k + 1) table holds the first rank of each high part
    and low size, and the masks are gathered a block of rows at a time, so
    no index of 2^n entries is built."""
    k = n // 2
    high, low = _popcounts(n - k), _popcounts(k)
    sizes = np.arange(k + 1)
    rows = np.arange(1 << (n - k))[:, None]
    of_size = low[:, None] == sizes
    low_rank = (np.cumsum(of_size, axis=0) - of_size)[np.arange(1 << k), low]
    # per_high[t, h]: the C(k, t - |h|) masks of size t with high part h; the
    # masks before them in (size, high part) order start their ranks.
    per_high = np.zeros((n + 1, 1 << (n - k)), dtype=np.intp)
    per_high[high[:, None] + sizes, rows] = [math.comb(k, b) for b in sizes]
    per_high = per_high.reshape(-1)
    starts = (np.cumsum(per_high) - per_high).reshape(n + 1, -1).T
    first = starts[rows, high[:, None] + sizes]  # [h, |l|]
    out = np.empty((1 << (n - k), 1 << k), dtype=by_rank.dtype)
    step = max(1, _PAIR_BLOCK >> k)
    for r in range(0, 1 << (n - k), step):
        index = np.take(first[r : r + step], low, axis=1)
        index += low_rank
        np.take(by_rank, index, out=out[r : r + step])
    return out.reshape(-1)


def _tree_reduce(parts: list[np.ndarray]) -> np.ndarray:
    while len(parts) > 1:
        merged = [parts[k] + parts[k + 1] for k in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def _se(sum_x: np.ndarray, sum_x2: np.ndarray, count: int) -> np.ndarray:
    mean = sum_x / count
    if count < 2:
        return np.zeros_like(mean)
    var = np.maximum(sum_x2 - count * mean * mean, 0.0) / (count - 1)
    return np.sqrt(var / count)


def mc_valuation(
    model: CoalitionModel,
    game: Game,
    samples: int,
    seed: int,
    streams: int = 8,
    max_workers: int = 1,
) -> Valuation:
    """Monte Carlo valuation with per-entry standard errors.

    Samples are split across ``streams`` independent generators spawned from
    the seed (at most 1024), and stream partials are combined by a fixed
    pairwise tree, so the result depends on (seed, streams) but not on
    ``max_workers``, which is an upper bound: the pool holds at most one
    thread per stream and per ``_POOL_CELLS`` = 2^20 membership cells
    (samples times n, counted eight times for a table game's rows), as a
    second thread was measured to pay only from about 2^21 cells, and from
    2^18 on a table; below two threads the streams run in the calling
    thread.  Samples number 1 to 2^53 - 1, so that their counts are exact in
    floats.

    A table game drawn at least 2^n times (``1 << n <= samples``) draws no
    rows: how often each coalition is drawn is one Multinomial(samples,
    P(S = T)), drawn by the first spawned generator, which is the same for
    every stream count.  P(S = T) depends on |T| alone, so the draw takes
    the sizes first and then spreads each size's count over its coalitions
    by uniform ranks (``_draw_counts``).  One pass over the table then
    weighs each (T, T + i) pair by those counts, so the result depends on
    the seed alone.
    """
    _check_model_game(model, game)
    if not 1 <= samples < _MAX_SAMPLES:
        raise DomainError(f"need 1 to {_MAX_SAMPLES - 1} samples, got {samples}")
    if not 1 <= streams <= _MAX_STREAMS:
        raise DomainError(f"need 1 to {_MAX_STREAMS} streams, got {streams}")
    if max_workers < 1:
        raise DomainError(f"need at least one worker thread, got {max_workers}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    n = model.n
    streams = min(streams, samples)
    shift = max(0, math.frexp(game.value_bound())[1] - _MC_MAX_EXP)
    scale, unscale = math.ldexp(1.0, -shift), math.ldexp(1.0, shift)
    if isinstance(game, DenseTableGame) and 1 << n <= samples:
        # Independent multinomials over the same cells sum to one multinomial,
        # so one draw over P(S = T) stands for every stream.
        drawn = _draw_counts(model, spawn_streams(seed, 1)[0], samples)
        acc = _mc_table_sums(game, drawn, scale)
    else:
        rngs = spawn_streams(seed, streams)
        base, extra = divmod(samples, streams)
        counts = [base + (1 if k < extra else 0) for k in range(streams)]

        def work(k):
            return _mc_stream(model, game, rngs[k], counts[k], scale)

        cells = samples * n << (3 if isinstance(game, DenseTableGame) else 0)
        workers = min(max_workers, streams, cells // _POOL_CELLS)
        if workers > 1:
            # Imported here: a module-level import costs every cold start 4 ms.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(work, range(streams)))
        else:
            parts = [work(k) for k in range(streams)]
        acc = _tree_reduce(parts)
    total = int(acc[4 * n + 2])
    gain_sum, gain_sq, loss_sum, loss_sq = acc[: 4 * n].reshape(4, n)
    gain = gain_sum / total * unscale
    loss = loss_sum / total * unscale
    for arr in (gain, loss):
        arr.setflags(write=False)
    return Valuation(
        gain=gain,
        loss=loss,
        aggregate_gain=float(gain.sum()),
        aggregate_loss=float(loss.sum()),
        expected_production=float(acc[4 * n] / total * unscale),
        method="mc",
        samples=total,
        seed=seed,
        streams=streams,
        gain_se=_se(gain_sum, gain_sq, total) * unscale,
        loss_se=_se(loss_sum, loss_sq, total) * unscale,
        expected_production_se=float(
            _se(acc[4 * n : 4 * n + 1], acc[4 * n + 1 : 4 * n + 2], total)[0] * unscale
        ),
    )


@dataclass(frozen=True)
class OrderingReport:
    """Marginal values of a player pair and the implied ordering checks."""

    i: int
    j: int
    outperforms: bool
    gain_i: float
    gain_j: float
    loss_i: float
    loss_j: float
    gain_ordered: bool
    loss_ordered: bool


def ordering_check(model: CoalitionModel, game: Game, i: int, j: int) -> OrderingReport:
    """Verify that uniform outperformance carries over to the valuation.

    When i uniformly outperforms j, both the gain and the loss of i must be
    at least j's; a breach would be a defect of the library, so it raises
    rather than being reported quietly.
    """
    val = exact_valuation(model, game)
    outp = uniformly_outperforms(game, i, j)
    gi, gj = float(val.gain[i - 1]), float(val.gain[j - 1])
    li, lj = float(val.loss[i - 1]), float(val.loss[j - 1])
    tol_g = 1e-12 * max(1.0, abs(gi), abs(gj))
    tol_l = 1e-12 * max(1.0, abs(li), abs(lj))
    gain_ok = gi >= gj - tol_g
    loss_ok = li >= lj - tol_l
    if outp and not (gain_ok and loss_ok):
        raise InvariantViolation(
            f"player {i} outperforms {j} but valuation ordering fails: "
            f"gain {gi} vs {gj}, loss {li} vs {lj}"
        )
    return OrderingReport(
        i=i,
        j=j,
        outperforms=outp,
        gain_i=gi,
        gain_j=gj,
        loss_i=li,
        loss_j=lj,
        gain_ordered=gain_ok,
        loss_ordered=loss_ok,
    )
