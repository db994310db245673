"""The package and its CLI load without scipy, numpy.random or a thread pool.

Importing scipy costs tens of megabytes and a third of a second, so only the
two ``posterior`` functions that need an incomplete beta import
``scipy.special``, when they run.  The sampler and the thread pool load when
Monte Carlo runs.  Each check runs in a fresh interpreter,
since this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import dichotomy

SRC = str(Path(dichotomy.__file__).resolve().parents[1])


def _loaded_after(imports: str) -> set[str]:
    code = f"import sys\n{imports}\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


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


def test_cli_and_posterior_load_no_scipy():
    loaded = _loaded_after("import dichotomy.cli, dichotomy.posterior")
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_semivariances_import_scipy_when_called():
    from dichotomy.posterior import semivariances

    code = (
        "import sys\n"
        "import dichotomy.cli\n"
        "from dichotomy.posterior import semivariances\n"
        "assert 'scipy' not in sys.modules\n"
        "print(repr(semivariances(3.5, 7.25)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == repr(semivariances(3.5, 7.25))
