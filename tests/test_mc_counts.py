"""Monte Carlo on a table game that draws at least 2^n samples.

Such a game draws no rows: how often each coalition is drawn is one
Multinomial(samples, P(S = T)), and one pass weighs each (T, T + i) pair by
the counts.  On an integer-valued table, where every sum is exact in any
order, the output is byte for byte that of flipping the rows the counts
stand for; on any table the means stay within rounding of the exact means
of the same counts.  The counts follow the subset law, depend on the seed
alone, and take memory independent of the stream count; the sample count,
the stream count and the thread pool are bounded before anything starts.
"""

import concurrent.futures
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from dichotomy import cli, dvalue, production
from dichotomy.coalition import CoalitionModel
from dichotomy.dvalue import mc_valuation
from dichotomy.errors import DomainError
from dichotomy.production import (
    AdditiveGame,
    DenseTableGame,
    Game,
    KOutOfNGame,
    SizeSymmetricGame,
    WeightedVotingGame,
    random_dense_game,
)

from _oracles import peak_tables, signed_table, subset_prob, unblocked_mc_table_sums


class _Rows(Game):
    """A table game that is not a DenseTableGame, so Monte Carlo flips its rows."""

    def __init__(self, table: DenseTableGame):
        self.n, self._w, self._table = table.n, table._w, table

    def _phi(self, stat):
        return self._table._phi(stat)

    def _flip_stats(self, sums, members):
        return self._table._flip_stats(sums, members)

    def value_bound(self):
        return self._table.value_bound()


def _twin(game) -> DenseTableGame:
    return DenseTableGame(game.n, game.dense_values())


def _integers_and_signed_zeros(n: int) -> DenseTableGame:
    rng = np.random.default_rng(8)
    values = rng.integers(-3, 4, 1 << n).astype(float)
    values[rng.random(1 << n) < 0.3] = -0.0
    values[0] = 0.0
    return DenseTableGame(n, values)


_VOTING = WeightedVotingGame([5, 3, 3, 2, 1, 1, 4, 2, 6], 13)
_KOFN = KOutOfNGame(10, 4)
_SIZE_ZEROS = SizeSymmetricGame(6, [0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 0.0])
_HUGE = SizeSymmetricGame(7, (np.arange(8) >= 3) * 2.0**1000)
_MIXED = _integers_and_signed_zeros(7)
# Every step of player 1 is -0.0 - 0.0 = -0.0, and every other step 0.0.
_ZEROS = DenseTableGame(6, np.where(np.arange(64) & 1, -0.0, 0.0))
_DUMMY = DenseTableGame(6, np.tile(KOutOfNGame(5, 2).dense_values(), 2))  # player 6 adds 0

# The table each case counts, and a game that samples the same values row by
# row: the family game the table was built from, or the table behind _Rows.
CASES = {
    "k-of-n": (_twin(_KOFN), _KOFN),
    "voting-integer": (_twin(_VOTING), _VOTING),
    "size-signed-zeros": (_twin(_SIZE_ZEROS), _SIZE_ZEROS),
    "k-of-n-huge": (_twin(_HUGE), _HUGE),
    "table-signed-zeros": (_MIXED, _Rows(_MIXED)),
    "table-of-zeros": (_ZEROS, _Rows(_ZEROS)),
    "dummy-player": (_DUMMY, _Rows(_DUMMY)),
}


def _json(v) -> str:
    return json.dumps(v.to_json_dict())  # keeps the sign of a zero


def _recording(fn, calls):
    def recorded(*args):
        calls.append(args)
        return fn(*args)

    return recorded


def _rows_of(drawn: np.ndarray, n: int) -> np.ndarray:
    """The membership rows the counts stand for: mask T, count(T) times."""
    masks = np.repeat(np.arange(1 << n), drawn)
    return ((masks[:, None] >> np.arange(n)) & 1) == 1


def _handing_out(rows: np.ndarray):
    """A ``sample_memberships`` stand-in that hands out ``rows`` in turn,
    whichever stream or thread asks."""
    lock, start = threading.Lock(), [0]

    def sample(model, rng, count):
        with lock:
            begin = start[0]
            start[0] += count
        return rows[begin : begin + count]

    return sample


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("streams, workers", [(1, 1), (8, 1), (8, 2)])
def test_integer_tables_print_the_bytes_of_the_rows(name, streams, workers, monkeypatch):
    # The rows route, fed the rows that the drawn counts stand for, adds the
    # same integers in another order.
    table, rows = CASES[name]
    seen = []
    monkeypatch.setattr(dvalue, "_mc_table_sums", _recording(dvalue._mc_table_sums, seen))
    for theta, rho in ((2.0, 3.0), (0.4, 0.6)):
        model = CoalitionModel(table.n, theta, rho)
        samples = (1 << table.n) + 3 * max(1, dvalue._MC_CELLS // table.n) + 17
        got = mc_valuation(model, table, samples, 5, streams, workers)
        ((_, drawn, _),) = seen  # the table took the counted route
        with monkeypatch.context() as m:
            m.setattr(dvalue, "sample_memberships", _handing_out(_rows_of(drawn, table.n)))
            want = mc_valuation(model, rows, samples, 5, streams, workers)
        assert len(seen) == 1  # the rows did not
        seen.clear()
        assert _json(got) == _json(want)
        # A sum of -0.0 terms is added into the zeroed sums: it prints 0.0.
        for x in (got.gain, got.loss, got.gain_se, got.loss_se):
            assert not np.signbit(x[x == 0.0]).any()


@pytest.mark.parametrize(
    "n, block",
    [(n, None) for n in (1, 2, 3)] + [(n, 128) for n in range(8, 13)] + [(16, None), (17, None)],
)
def test_pair_walk_keeps_the_bits_of_one_pass_per_player(n, block, monkeypatch):
    # Below n = 4 the one block is shorter than _PAIR_BLOCK; blocks of 128
    # pairs make n = 8 one block and n = 12 sixteen; at the real block n = 16
    # is two blocks and n = 17 four.  The block sums fold pairwise, as numpy
    # adds the aligned chunks of one sum over all the pairs.
    if block:
        monkeypatch.setattr(dvalue, "_PAIR_BLOCK", block)
    drawn = np.random.default_rng(n).integers(0, 1000, 1 << n)
    for game in (signed_table(n), _integers_and_signed_zeros(n)):
        for scale in (1.0, 2.0**-3):
            got = dvalue._mc_table_sums(game, drawn, scale)
            assert got.tobytes() == unblocked_mc_table_sums(game, drawn, scale).tobytes()


def _exact_means(table, drawn, n):
    """Exact sample means of the gains, losses and production of the drawn
    coalitions, with their mean absolute terms, from Fractions."""
    total = int(drawn.sum())
    v = [Fraction(float(x)) for x in table]
    gain, loss = [Fraction(0)] * n, [Fraction(0)] * n
    gain_abs, loss_abs = [Fraction(0)] * n, [Fraction(0)] * n
    production = production_abs = Fraction(0)
    for mask in np.flatnonzero(drawn).tolist():
        c = int(drawn[mask])
        production += c * v[mask]
        production_abs += c * abs(v[mask])
        for i in range(n):
            bit = 1 << i
            if mask & bit:  # employed: v(T) - v(T - i)
                step = v[mask] - v[mask ^ bit]
                gain[i] += c * step
                gain_abs[i] += c * abs(step)
            else:  # unemployed: v(T + i) - v(T)
                step = v[mask | bit] - v[mask]
                loss[i] += c * step
                loss_abs[i] += c * abs(step)
    scale = Fraction(1, total)
    return (
        [(g * scale, a * scale) for g, a in zip(gain, gain_abs)],
        [(l * scale, a * scale) for l, a in zip(loss, loss_abs)],
        (production * scale, production_abs * scale),
    )


def _oracle_cases(count=20):
    rng = np.random.default_rng(2024)
    for k in range(count):
        n = 3 + k % 10
        game = random_dense_game(n, rng)
        theta, rho = (float(x) for x in rng.uniform(0.3, 4.0, 2))
        samples = (1 << n) + int(rng.integers(0, 3000))
        yield n, game, CoalitionModel(n, theta, rho), samples, int(rng.integers(0, 2**31))


@pytest.mark.parametrize("streams", [1, 8])
def test_within_rounding_of_the_exact_mean_of_the_same_draws(streams, monkeypatch):
    # The counts are those _mc_table_sums was given.  A pairwise sum of m
    # terms is within about log2(m) eps of its absolute sum; the products and
    # the division add two more roundings.
    seen = []
    monkeypatch.setattr(dvalue, "_mc_table_sums", _recording(dvalue._mc_table_sums, seen))
    eps = np.finfo(float).eps
    for n, game, model, samples, seed in _oracle_cases():
        seen.clear()
        val = mc_valuation(model, game, samples, seed, streams)
        ((_, drawn, _),) = seen
        assert drawn.sum() == samples
        gain, loss, production = _exact_means(game.table, drawn, n)
        bound = (n + 4) * eps
        for got, (mean, scale) in [
            *zip(val.gain, gain), *zip(val.loss, loss), (val.expected_production, production),
        ]:
            assert abs(Fraction(float(got)) - mean) <= bound * scale


@pytest.mark.parametrize("theta, rho", [(0.05, 0.05), (1.0, 1e6), (1e6, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("n", range(3, 9))
def test_counts_follow_the_subset_law(n, theta, rho, monkeypatch):
    seen = []
    monkeypatch.setattr(dvalue, "_mc_table_sums", _recording(dvalue._mc_table_sums, seen))
    samples = 1_000_000
    game = random_dense_game(n, np.random.default_rng(n))
    mc_valuation(CoalitionModel(n, theta, rho), game, samples, 11)
    ((_, drawn, _),) = seen
    assert drawn.sum() == samples
    p = np.array([subset_prob(n, bin(mask).count("1"), theta, rho) for mask in range(1 << n)])
    se = np.sqrt(samples * p * (1.0 - p))
    assert np.all(np.abs(drawn - samples * p) <= 5.0 * se)


@pytest.mark.parametrize("theta, rho, per_mask", [(1.0, 1.0, 16), (2.0, 3.0, 64)])
def test_counts_follow_the_subset_law_on_both_rank_branches(theta, rho, per_mask, monkeypatch):
    # At 16 or 64 draws per mask on average, the sizes of few coalitions take
    # one multinomial each and the middle sizes of (1, 1) spread by ranks.
    seen = []
    monkeypatch.setattr(dvalue, "_mc_table_sums", _recording(dvalue._mc_table_sums, seen))
    n = 10
    samples = per_mask << n
    game = random_dense_game(n, np.random.default_rng(n))
    mc_valuation(CoalitionModel(n, theta, rho), game, samples, 13)
    ((_, drawn, _),) = seen
    assert drawn.sum() == samples
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    per_size = np.bincount(sizes, weights=drawn)
    ranked = per_size <= dvalue._RANK_DRAWS * np.array([math.comb(n, t) for t in range(n + 1)])
    assert ranked.any() == (per_mask == 16) and not ranked.all()
    expected = samples * np.array([subset_prob(n, t, theta, rho) for t in sizes])
    assert expected.min() >= 5.0
    stat = ((drawn - expected) ** 2 / expected).sum()
    assert stat < stats.chi2.ppf(0.9999, df=(1 << n) - 1)


def test_ranks_spread_each_size_uniformly():
    # At 4 draws per mask every size of n = 6 but the empty and the full
    # coalition spreads by ranks; summed over 500 draws, each of its masks
    # comes up equally often given the size's total.
    n = 6
    model = CoalitionModel(n, 1.0, 1.0)
    rng = np.random.default_rng(17)
    drawn = sum(dvalue._draw_counts(model, rng, 4 << n) for _ in range(500))
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    for t in range(1, n):
        counts = drawn[sizes == t]
        expected = counts.sum() / len(counts)
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.9999, df=len(counts) - 1), t


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 13, 16])
def test_ranks_land_on_the_masks_of_their_size_in_mask_order(n):
    # Entries laid by size and then rank go to the masks of each size in
    # mask order, as a boolean scatter size by size puts them.
    by_rank = np.random.default_rng(n).integers(0, 1 << 40, 1 << n)
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    want = np.empty_like(by_rank)
    start = 0
    for t in range(n + 1):
        m = math.comb(n, t)
        want[sizes == t] = by_rank[start : start + m]
        start += m
    got = dvalue._in_mask_order(by_rank, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("offset", [-2000, 2000])
def test_counts_at_the_rank_crossover_stay_within_the_table_budget(offset, monkeypatch):
    # With (1, 1) every size holds a 17th of the draws, so the middle size of
    # n = 16 takes about 8 C(16, 8) + offset of them: ranks just below the
    # crossover, the multinomial just above it.
    n = 16
    middle = 8 * math.comb(n, n // 2) + offset
    game = random_dense_game(n, np.random.default_rng(3))
    seen = []
    monkeypatch.setattr(dvalue, "_mc_table_sums", _recording(dvalue._mc_table_sums, seen))
    run = lambda: mc_valuation(CoalitionModel(n, 1.0, 1.0), game, 17 * middle, 7)  # noqa: E731
    assert peak_tables(run, n) <= 3.5
    ((_, drawn, _),) = seen
    sizes = production._subset_sums(np.ones(n, np.uint8))
    drawn_middle = int(drawn[sizes == n // 2].sum())
    assert (drawn_middle <= dvalue._RANK_DRAWS * math.comb(n, n // 2)) == (offset < 0)


def test_counted_output_depends_on_the_seed_alone():
    model = CoalitionModel(6, 2.0, 3.0)
    game = random_dense_game(6, np.random.default_rng(5))

    def body(streams, workers):
        out = mc_valuation(model, game, 1000, 9, streams, workers).to_json_dict()
        assert out.pop("streams") == streams
        return json.dumps(out)

    want = body(1, 1)
    for streams in (1, 8, 64):
        for workers in (1, 2):
            assert body(streams, workers) == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("streams", [8, 64])
def test_counts_take_memory_independent_of_the_stream_count(workers, streams):
    # One int64 count table, and while drawing it the table of P(S = T); the
    # final pass adds a float copy of the counts and two half tables.  No
    # worker holds a chunk of rows.
    n = 16
    model = CoalitionModel(n, 2.0, 3.0)
    game = random_dense_game(n, np.random.default_rng(3))
    run = lambda: mc_valuation(model, game, 1 << n, 7, streams, workers)  # noqa: E731
    assert peak_tables(run, n) <= 3.5


def _no_spawn(seed, count):
    raise AssertionError(f"spawned {count} generators")


def test_stream_limit_rejects_before_spawning(monkeypatch):
    monkeypatch.setattr(dvalue, "spawn_streams", _no_spawn)
    model, game = CoalitionModel(3, 1.0, 1.0), KOutOfNGame(3, 2)
    with pytest.raises(DomainError, match="1 to 1024 streams, got 1025"):
        mc_valuation(model, game, 10_000_000, 0, streams=1025)
    monkeypatch.setattr(dvalue, "_MAX_STREAMS", 4)
    with pytest.raises(DomainError, match="1 to 4 streams, got 5"):
        mc_valuation(model, game, 100, 0, streams=5)


@pytest.mark.parametrize("game", [KOutOfNGame(2, 1), _twin(KOutOfNGame(2, 1))], ids=["rows", "counts"])
@pytest.mark.parametrize("samples", [0, 2**53, 2**63])
def test_sample_limit_rejects_before_spawning(game, samples, monkeypatch):
    # Counts and their sums are exact in floats below 2^53.
    monkeypatch.setattr(dvalue, "spawn_streams", _no_spawn)
    with pytest.raises(DomainError, match=f"need 1 to {2**53 - 1} samples, got {samples}"):
        mc_valuation(CoalitionModel(2, 1.0, 1.0), game, samples, 0)


@pytest.mark.parametrize("samples", [2**53, 2**63])
def test_cli_sample_limit_is_one_line_and_exit_2(samples, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dvalue, "spawn_streams", _no_spawn)
    path = tmp_path / "table.json"
    path.write_text('{"n": 2, "values": [0, 1, 2, 4]}')
    argv = ["dvalue", "--game", str(path), "--theta", "1", "--rho", "1", "--method", "mc",
            "--samples", str(samples)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: need 1 to {2**53 - 1} samples, got {samples}\n"


def test_cli_stream_limit_is_one_line_and_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(dvalue, "spawn_streams", _no_spawn)
    argv = ["dvalue", "--game", "majority:5", "--theta", "1", "--rho", "1", "--method", "mc",
            "--samples", "10000000", "--streams", "10000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need 1 to 1024 streams, got 10000000\n"


class _InlinePool:
    """A ThreadPoolExecutor stand-in that records its size and starts no thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "game, samples, threaded",
    [
        (KOutOfNGame(6, 3), 500, False),
        (_twin(KOutOfNGame(6, 3)), 500, False),
        (random_dense_game(10, np.random.default_rng(4)), 500, False),
        (random_dense_game(16, np.random.default_rng(4)), 60_000, True),
    ],
    ids=["rows", "counts", "small-table-rows", "table-rows"],
)
@pytest.mark.parametrize(
    "streams, threads, pool", [(3, 1000, 3), (8, 2, 2), (1, 64, None), (5, 1, None)]
)
def test_pool_holds_at_most_one_thread_per_stream(
    game, samples, threaded, streams, threads, pool, monkeypatch
):
    # A table of 2^16 drawn 60,000 times flips its rows, whose gathers from
    # the table count eight cells each: 7.68M cells, enough for three
    # threads.  3,000 cells of another game and 5,000 of a table's rows run
    # in the calling thread, and a table drawn 500 >= 2^6 times draws none.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    model = CoalitionModel(game.n, 2.0, 3.0)
    got = mc_valuation(model, game, samples, 3, streams, threads)
    assert _InlinePool.sizes == ([pool] if threaded and pool else [])
    assert _json(got) == _json(mc_valuation(model, game, samples, 3, streams, 1))


class _CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.mark.parametrize(
    "game",
    [KOutOfNGame(6, 3), WeightedVotingGame([3, 1, 2, 2, 1, 4], 7), AdditiveGame([0.5, 2, 1, 3, 0.25, 1])],
    ids=["kofn", "weighted", "additive"],
)
@pytest.mark.parametrize("pool_cells, pool", [(None, None), (3000, None), (1500, 2), (1000, 3), (1, 4)])
def test_other_games_start_one_thread_per_pool_cells(game, pool_cells, pool, monkeypatch):
    # 500 samples of 6 players are 3,000 cells, asked on 8 threads over 4
    # streams: at most one thread per _POOL_CELLS cells and per stream, and
    # none below two.  The threads are real, and move no bit.
    if pool_cells is not None:
        monkeypatch.setattr(dvalue, "_POOL_CELLS", pool_cells)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "sizes", [])
    model = CoalitionModel(6, 2.0, 3.0)
    got = mc_valuation(model, game, 500, 3, 4, 8)
    assert _CountingPool.sizes == ([] if pool is None else [pool])
    assert _json(got) == _json(mc_valuation(model, game, 500, 3, 4, 1))
