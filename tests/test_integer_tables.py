"""Integer tables valued from one-hot products against the pair walk.

When every value of a table is an integer and 2^n max|v| < 2^53, every sum
of values is exact, and ``dvalue._integer_sums`` gives the walk's step sums
and totals by size bit for bit.  Every other table takes the walk.
"""

import hashlib
import json

import numpy as np
import pytest

from dichotomy import cli, dvalue
from dichotomy.coalition import CoalitionModel
from dichotomy.production import DenseTableGame, WeightedVotingGame

_SHAPES = [(2.5, 1.5), (1.0, 1e6), (1e6, 1.0), (0.05, 0.05)]


def _voting(n, rng):
    w = rng.integers(1, 10, n).astype(float)
    return WeightedVotingGame(w, float(w.sum() // 2 + 1)).dense_values()


def _signed(n, rng):
    return rng.integers(-1000, 1001, 1 << n).astype(float)


def _signed_zeros(n, rng):
    return np.where(rng.random(1 << n) < 0.5, -0.0, 0.0)


def _top(n):
    return 2.0 ** (53 - n)


def _below_2_53(n, rng):
    # 2^n max|v| = 2^53 - 2^n.
    values = _signed(n, rng) * (_top(n) / 1024)
    values[-1] = _top(n) - 1.0
    return values


def _at_2_53(n, rng):
    values = _signed(n, rng)
    values[-1] = _top(n)
    return values


def _one_fraction_in_the_last_block(n, rng):
    values = _signed(n, rng)
    values[(1 << n) - min(1 << n, dvalue._PAIR_BLOCK) + 1] += 0.5
    return values


_PRODUCTS = {
    "voting": _voting,
    "signed": _signed,
    "signed-zeros": _signed_zeros,
    "below-2^53": _below_2_53,
}
_WALK = {"at-2^53": _at_2_53, "one-fraction": _one_fraction_in_the_last_block}


def _table(name, n):
    values = {**_PRODUCTS, **_WALK}[name](n, np.random.default_rng([n, len(name)]))
    values[0] = 0.0
    return DenseTableGame(n, values)


def _digest(model, game):
    val, by_size = dvalue._exact(model, game)
    scalars = [
        val.aggregate_gain,
        val.aggregate_loss,
        val.expected_production,
        dvalue.aggregate_gain_closed_form(model, game),
        dvalue.aggregate_loss_closed_form(model, game),
        dvalue.expected_production(model, game),
    ]
    alone = dvalue.exact_valuation(model, game)
    parts = [val.gain, val.loss, by_size, alone.gain, alone.loss, np.array(scalars)]
    return hashlib.sha256(b"".join(x.tobytes() for x in parts)).hexdigest()


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("name", [*_PRODUCTS, *_WALK])
def test_products_keep_the_bytes_of_the_walk(name, n, monkeypatch):
    game = _table(name, n)
    integer_sums = dvalue._integer_sums
    summed = integer_sums(game.table, n)
    if name in _WALK:
        assert summed is None
    else:
        steps, totals = dvalue._table_sums(game.table, n, True)
        assert summed[0].tobytes() == steps.tobytes()
        assert summed[1].tobytes() == totals.tobytes()
    taken = []

    def recording(table, n):
        out = integer_sums(table, n)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(dvalue, "_integer_sums", recording)
    models = [CoalitionModel(n, *shape) for shape in _SHAPES]
    got = [_digest(model, game) for model in models]
    # Valued by the products wherever they apply.
    assert any(taken) == (name in _PRODUCTS)
    monkeypatch.setattr(dvalue, "_integer_sums", lambda table, n: None)
    assert got == [_digest(model, game) for model in models]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("name", list(_PRODUCTS))
def test_small_blocks_keep_the_bytes_of_the_walk(name, n, monkeypatch):
    # Blocks of 2^6 entries laid as (2^3, 2^3): from n = 7 on a table takes
    # several blocks, and the high bits of each block's start are summed too.
    monkeypatch.setattr(dvalue, "_PAIR_BLOCK", 1 << 6)
    table = _table(name, n).table
    steps, totals = dvalue._integer_sums(table, n)
    want_steps, want_totals = dvalue._table_sums(table, n, True)
    assert steps.tobytes() == want_steps.tobytes()
    assert totals.tobytes() == want_totals.tobytes()


@pytest.mark.filterwarnings("ignore:enumerating")
@pytest.mark.parametrize("n", [22, 24])
@pytest.mark.parametrize("name", ["voting", "below-2^53"])
def test_products_keep_the_bytes_of_the_walk_past_n_20(name, n):
    # From n = 15 on a table takes several blocks of 2^14 entries, and from
    # n = 23 the products that gather the sums by size are large enough for
    # OpenBLAS to thread.
    table = _table(name, n).table
    steps, totals = dvalue._integer_sums(table, n)
    want_steps, want_totals = dvalue._table_sums(table, n, True)
    assert steps.tobytes() == want_steps.tobytes()
    assert totals.tobytes() == want_totals.tobytes()


@pytest.mark.parametrize("values", [np.full(64, 0.5), np.r_[0.0, np.full(63, np.nan)]])
def test_a_fractional_or_nan_tail_turns_the_table_away(values):
    table = np.zeros(1 << 16)
    table[-64:] = values
    assert dvalue._integer_sums(table, 16) is None


# Digests of the stdout these commands printed from the pair walk, before
# integer tables took the products, for a 20-player 0/1 voting table.
_CLI_DIGESTS = {
    ("dvalue", "2", "3"): "f96a90335bdcb2b659fcb0b31b9314f7defff5fa412bb159e5fffb9c792b4507",
    ("dvalue", "0.05", "0.05"): "2ba67c4fa9fb1492c923c38356f2f281a4a4b0a72f63bc6086e3e3758d7e0ea7",
    ("apps voting", "2", "3"): "74e545565f4d7286099c642bc0837ec7e932e6a0c730bd661ad3d2a780f2b502",
    ("apps voting", "0.05", "0.05"):
        "4e752ca441b0f8aa42ebda7fcf7efffaa14e86683ee80a9d7bb5309eed064196",
}


def test_cli_prints_the_walks_bytes_for_a_voting_table_file(tmp_path, capsys):
    n = 20
    w = np.random.default_rng(20).integers(1, 10, n).astype(float)
    values = WeightedVotingGame(w, float(w.sum() // 2 + 1)).dense_values()
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "values": values.tolist()}))
    for (command, theta, rho), digest in _CLI_DIGESTS.items():
        argv = command.split() + ["--game", str(path), "--theta", theta, "--rho", rho]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
