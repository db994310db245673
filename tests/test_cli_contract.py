"""The CLI contract, as a property over every subcommand.

Random argument lists, drawn from a pool of edge values and small input
files, run through ``cli.main`` in process.  Whatever the input, the exit
code is one of the documented ones; on success stdout is strict JSON or a
CSV whose rows all have the header's field count; and every handled error
is one ``error:`` line on stderr.  Sizes stay small (n <= 1,000, at most
3,000 samples, grids of at most 20 x 20), so the test runs in seconds.
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dichotomy import cli
from dichotomy.production import WeightedVotingGame

# Edge values of every float flag: zeros of both signs, the smallest
# subnormal, huge and non-finite values, negatives and non-numbers; and as
# many ordinary values, so that most commands get past their checks.
_EDGES = [
    "0", "-0", "5e-324", "1e-300", "1e16", "1e17", "1e300", "1e999", "-1", "-0.3", "-1e300",
    "inf", "-inf", "nan", "abc", "",
]
_reals = st.sampled_from(["0.05", "0.1", "0.5", "0.9", "1", "2", "3.5", "1e6"])
_reals |= st.sampled_from(_EDGES)
_counts = st.sampled_from(["1", "2", "7", "12", "30", "1000"])
_counts |= st.sampled_from(["0", "-3", "2.5", "x"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(15)
    n = 6
    w = rng.integers(1, 10, n).astype(float)
    voting = WeightedVotingGame(w, float(w.sum() // 2 + 1)).dense_values()
    flipped = voting.copy()
    flipped[-1] = 0.0
    integer = np.r_[0.0, rng.integers(-50, 51, (1 << n) - 1)]
    floats = np.r_[0.0, rng.random((1 << n) - 1)]
    texts = {
        "@voting": json.dumps({"n": n, "values": voting.tolist()}),
        "@integer": json.dumps({"n": n, "values": integer.tolist()}),
        "@float": json.dumps({"n": n, "values": floats.tolist()}),
        "@not-monotone": json.dumps({"n": n, "values": flipped.tolist()}),
        "@bad-json": '{"n": 2, "values": [0, 1,',
        "@too-few": json.dumps({"n": 3, "values": [0.0, 1.0]}),
        "@rates": "period,omega,delta\np1,0.3,\np2,0.8,0.05\np3,0.95,-0.2\n",
        "@bad-rates": "period,omega\np1,1.5\np1,0.3\np2,x\n",
        "@toll": '{"n": 500, "omega": 0.4, "g": {"type": "power", "exponent": 2}}',
        "@bad-toll": '{"n": 500, "g": {"type": "linear"}}',
    }
    paths = {"@missing": str(root / "missing.json")}
    for name, text in texts.items():
        path = root / (name[1:] + ".txt")
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _weighted(parts):
    *weights, quota = parts
    return "weighted:" + ",".join(weights) + ":" + quota


_games = st.one_of(
    st.builds("majority:{}".format, _counts),
    st.builds("unanimity:{}".format, _counts),
    st.builds("kofn:{}:{}".format, _counts, _counts),
    st.builds(_weighted, st.lists(_reals, min_size=2, max_size=7)),
    st.builds(lambda v: "additive:" + ",".join(v), st.lists(_reals, min_size=1, max_size=6)),
    st.sampled_from(
        ["@voting", "@integer", "@float", "@not-monotone", "@bad-json", "@too-few", "@missing",
         "nosuch:3", "majority", "weighted:1,2", "weighted:2,3,4:5", "kofn:12:7"]
    ),
    # 25 weights whose scaled sum passes 2^53: beyond the enumeration cap.
    st.just("weighted:" + ",".join(["1e17"] * 25) + ":1e18"),
)


def _flags(**pools):
    """Each flag with a value from its pool, or left out when it may be."""
    return st.fixed_dictionaries(
        {}, optional={f"--{name.replace('_', '-')}": pool for name, pool in pools.items()}
    )


def _with(required, optional):
    """The flags of a dict of strategies (or a strategy of dicts), then the
    optional ones; a range is written FLAG=LO:HI, as LO may be negative."""
    if isinstance(required, dict):
        required = st.fixed_dictionaries(required)

    def argv(parts):
        out = []
        for flag, value in [*parts[0].items(), *parts[1].items()]:
            out += [f"{flag}={value}"] if flag.endswith("-range") else [flag, value]
        return out

    return st.tuples(required, optional).map(argv)


_shape = {"--game": _games, "--theta": _reals, "--rho": _reals}
_sampling = _flags(
    method=st.sampled_from(["exact", "mc", "other"]),
    samples=st.sampled_from(["0", "1", "100", "3000", "-1"]),
    seed=st.sampled_from(["0", "7", "-1"]),
    streams=st.sampled_from(["1", "8", "0"]),
    threads=st.sampled_from(["1", "2", "0"]),
)
_ranges = st.builds("{}:{}".format, _reals, _reals)
_ranges |= st.sampled_from(["0.1", "a:b", "0.2:0.1:0.3"])
_ladders = st.lists(
    st.sampled_from(["1000", "100000000", "100000000000000000", "0", "-5", "1e5", "x"]),
    min_size=1, max_size=3,
).map(",".join)

_COMMANDS = {
    "tax-rate": _with({"--omega": _reals, "--delta": _reals}, _flags(n=_reals)),
    "series": st.tuples(
        st.sampled_from(["@rates", "@bad-rates", "@missing", "@voting"]),
        _with({"--delta": _reals, "--n": _reals}, _flags()),
    ).map(lambda p: [p[0], *p[1]]),
    "dvalue": _with(_shape, _sampling),
    "sweep": _with(
        {},
        _flags(
            n=_reals, delta=_reals, omega_range=_ranges, tau_range=_ranges,
            resolution=st.sampled_from(["0", "1", "2", "5", "20", "-1"]),
        ),
    ),
    "verify": _with(
        st.fixed_dictionaries(
            {
                "--theorem": st.sampled_from(["2", "3", "4", "5", "6", "7"]),
                "--omega": _reals, "--delta": _reals, "--tau": _reals,
            }
        )
        | st.builds(
            lambda t: {"--theorem": t, "--omega": "0.9", "--delta": "0.1", "--tau": "0.5"},
            st.sampled_from(["2", "3", "4", "5", "6"]),
        ),
        _flags(n_list=_ladders),
    ),
    "apps voting": _with(_shape, _sampling),
    "apps insurance": _with({**_shape, "--surcharge": _reals}, _flags()),
    "apps toll": _with(
        {},
        _flags(
            scenario=st.sampled_from(["@toll", "@bad-toll", "@missing"]),
            g=st.sampled_from(
                ["power:2", "power:0.5:3", "linear:1", "linear:-1", "cubic:1", "power:x"]
            ),
            n=_counts, omega=_reals,
        ),
    ),
}
_JSON = ("dvalue", "apps voting", "apps insurance", "apps toll")


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error, and nothing else
            assert exc.code == 2, argv
            return None, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(list(_COMMANDS)).flatmap(lambda c: st.tuples(st.just(c), _COMMANDS[c])))
def test_every_leaf_keeps_the_cli_contract(files, case):
    command, rest = case
    argv = command.split() + [files.get(token, token) for token in rest]
    code, out, err = _run(argv)
    if code is None:
        assert "usage:" in err and out == ""
        return
    assert code in (0, 2, 3, 4, 5, 6), argv
    # Exits 3 of tax-rate and 4 of series may follow partial output.
    if out:
        if command in _JSON:
            json.loads(out, parse_constant=_strict)
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and all(len(row) == len(rows[0]) for row in rows), argv
    if code == 0:
        assert out, argv
    if command == "series" and code == 4 and err.startswith("rejected rows:\n"):
        # Its documented partial exit: the good rows, then one line per bad row.
        assert all(line.startswith("  line ") for line in err.splitlines()[1:]), argv
    elif code in (2, 3, 4, 5):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
