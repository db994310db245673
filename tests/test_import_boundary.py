"""The package and its CLI load without scipy, numpy.random or a thread pool,
and the scalar commands without numpy.

Importing scipy costs tens of megabytes and a third of a second.  Only
``posterior.beta_median``, which no CLI command calls, imports
``scipy.special``, when it runs, so no CLI command loads scipy.  The sampler (``numpy.random``) and the thread pool
load only when Monte Carlo runs, under ``--method mc``.  Importing numpy adds
about 0.09 s to every cold start (138 ms against 50 ms for an empty
interpreter on a shared 2-core x86-64 host), so the package re-exports its
names lazily and the CLI loads the array layer only in the handlers that
need arrays.  Each check runs in a fresh interpreter, since this test
process has numpy and scipy loaded already.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import dichotomy
from dichotomy import cli

SRC = str(Path(dichotomy.__file__).resolve().parents[1])


def _run(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def _loaded_after(imports: str) -> set[str]:
    return set(_run(f"import sys\n{imports}\nprint('\\n'.join(sys.modules))").split())


def test_core_modules_load_no_scipy():
    loaded = _loaded_after(
        "import dichotomy, dichotomy.apps, dichotomy.dvalue, dichotomy.taxpolicy"
    )
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_cli_loads_no_scipy_integrate():
    loaded = _loaded_after("import dichotomy.cli")
    assert "scipy.integrate" not in loaded


def test_cli_loads_no_sampler_or_thread_pool():
    # No CLI subcommand but --method mc samples or starts threads, and these
    # two imports cost 15 to 30 ms of every cold start.
    loaded = _loaded_after("import dichotomy.cli")
    assert "numpy.random" not in loaded
    assert "concurrent.futures" not in loaded


def test_exact_array_commands_load_no_sampler():
    # The commands that build arrays but sample nothing: only --method mc
    # loads numpy.random (and secrets and hashlib with it).
    shape = ["--theta", "2.5", "--rho", "1.5"]
    commands = [
        ["dvalue", "--game", "weighted:5,4,3,2,1:8", *shape],
        ["apps", "voting", "--game", "weighted:5,4,3,2,1:8", *shape],
        ["apps", "insurance", "--game", "additive:1.5,0.5", *shape, "--surcharge", "0.1"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from dichotomy import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' in sys.modules, argv\n"
        "    assert 'numpy.random' not in sys.modules, argv\n"
        "print('ok')"
    )
    assert _run(code).strip() == "ok"


def test_small_monte_carlo_starts_no_thread_pool():
    # 2,000 samples of 40 players are 80,000 cells, too few for a second
    # thread to pay on a game that is not a table: the streams run in the
    # calling thread, so the pool's module is never imported.
    code = (
        "import contextlib, io, sys\n"
        "from dichotomy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['dvalue', '--game', 'majority:40', '--theta', '2', '--rho', '3',\n"
        "        '--method', 'mc', '--samples', '2000', '--threads', '2']) == 0\n"
        "print('\\n'.join(sys.modules))"
    )
    loaded = set(_run(code).split())
    assert "numpy.random" in loaded
    assert "concurrent.futures" not in loaded


def test_cli_and_posterior_load_no_scipy():
    loaded = _loaded_after("import dichotomy.cli, dichotomy.posterior")
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


_NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"


def test_semivariances_and_verify_4_load_no_scipy():
    from dichotomy.posterior import semivariances

    code = (
        "import contextlib, io, sys\n"
        "import dichotomy.cli\n"
        "from dichotomy.posterior import semivariances\n"
        "value = repr(semivariances(3.5, 7.25))\n"
        + _NO_SCIPY
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = dichotomy.cli.main(['verify', '--theorem', '4', '--omega', '0.9',\n"
        "        '--delta', '0.1', '--tau', '0.5',\n"
        "        '--n-list', '1000,10000,100000,1000000,10000000,100000000'])\n"
        "assert code == 0\n"
        + _NO_SCIPY
        + "print(value)"
    )
    assert _run(code).strip() == repr(semivariances(3.5, 7.25))


def test_cli_commands_load_no_scipy(tmp_path):
    # Each subcommand the cli benchmark workload runs, with its kind of input.
    rates = tmp_path / "rates.csv"
    rates.write_text("period,omega,delta\np1,0.3,\np2,0.8,0.05\n")
    toll = tmp_path / "toll.json"
    toll.write_text(
        '{"n": 500, "omega": 0.4, "g": {"type": "power", "exponent": 2, "coefficient": 1}}'
    )
    base = ["--omega", "0.5556274555107865", "--delta", "0.040982460171519484"]
    shape = ["--theta", "2.5", "--rho", "1.5"]
    commands = [
        ["tax-rate", *base],
        ["tax-rate", *base, "--n", "5000"],
        ["series", str(rates), "--delta", "0.1", "--n", "5000"],
        ["sweep", "--n", "5000", "--resolution", "5"],
        *(
            ["verify", "--theorem", str(t), *base, "--tau", "0.7194898391631132",
             "--n-list", "1000,100000,10000000,100000000"]
            for t in (2, 3, 4, 5, 6)
        ),
        ["dvalue", "--game", "weighted:5,4,3,2,1:8", *shape],
        ["apps", "voting", "--game", "weighted:5,4,3,2,1:8", *shape],
        ["apps", "insurance", "--game", "additive:1.5,0.5", *shape, "--surcharge", "0.1"],
        ["apps", "toll", "--scenario", str(toll)],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from dichotomy import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        + _NO_SCIPY
    )
    _run(code)


def test_package_import_loads_no_numpy():
    loaded = _loaded_after("import dichotomy")
    assert "numpy" not in loaded


def test_star_import_binds_every_exported_name():
    # The package and each of its modules but __main__, which runs the CLI.
    # perfbench's tracer reads each ``__all__`` name with a None default, so
    # a name left in an ``__all__`` after its definition goes would drop out
    # of tracing without an error.
    modules = ["dichotomy"] + [
        f"dichotomy.{path.stem}"
        for path in sorted(Path(dichotomy.__file__).parent.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    code = (
        "import importlib\n"
        "import dichotomy\n"
        f"for module_name in {modules!r}:\n"
        "    module = importlib.import_module(module_name)\n"
        "    names = {}\n"
        "    exec(f'from {module_name} import *', names)\n"
        "    for name in getattr(module, '__all__', ()):\n"
        "        source = getattr(module, '_EXPORTS', {}).get(name)\n"
        "        value = getattr(importlib.import_module('dichotomy.' + source) if source else module, name)\n"
        "        assert names[name] is value, (module_name, name)\n"
        "    print(module_name, len(getattr(module, '__all__', ())))"
    )
    counts = dict(line.split() for line in _run(code).splitlines())
    assert list(counts) == modules
    assert int(counts["dichotomy"]) == len(dichotomy.__all__)


def test_scalar_commands_load_no_numpy(tmp_path):
    # tax-rate, series, verify 2, 3, 5 and 6 and apps toll solve scalars
    # only; they run one after another in one interpreter, with their
    # stdout checked against this process's run of the same command.
    rates = tmp_path / "rates.csv"
    rates.write_text("period,omega,delta\np1,0.3,\np2,0.8,0.05\n")
    toll = tmp_path / "toll.json"
    toll.write_text(
        '{"n": 500, "omega": 0.4, "g": {"type": "power", "exponent": 2, "coefficient": 1}}'
    )
    base = ["--omega", "0.5556274555107865", "--delta", "0.040982460171519484"]
    commands = [
        ["tax-rate", *base],
        ["tax-rate", *base, "--n", "5000"],
        ["series", str(rates), "--delta", "0.1", "--n", "5000"],
        *(
            ["verify", "--theorem", str(t), *base, "--tau", "0.7194898391631132",
             "--n-list", "1000,100000,10000000,100000000"]
            for t in (2, 3, 5, 6)
        ),
        ["apps", "toll", "--scenario", str(toll)],
        ["apps", "toll", "--g", "power:1.5:2", "--n", "100", "--omega", "0.4"],
        ["apps", "toll", "--g", "linear:3", "--n", "100", "--omega", "0.4"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from dichotomy import cli\n"
        "outs = []\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps(outs))"
    )
    outs = json.loads(_run(code))
    for argv, out in zip(commands, outs, strict=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        assert out == buf.getvalue(), argv


def test_rule_commands_load_no_apps_or_posterior(tmp_path):
    # tax-rate, series and sweep use neither module, which load in the
    # handlers of verify and apps.
    rates = tmp_path / "rates.csv"
    rates.write_text("period,omega,delta\np1,0.3,\np2,0.8,0.05\n")
    commands = [
        ["tax-rate", "--omega", "0.55", "--delta", "0.04", "--n", "5000"],
        ["series", str(rates), "--delta", "0.1", "--n", "5000"],
        ["sweep", "--n", "5000", "--resolution", "5"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from dichotomy import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert not {'dichotomy.apps', 'dichotomy.posterior'} & set(sys.modules), argv\n"
        "print('ok')"
    )
    assert _run(code).strip() == "ok"
