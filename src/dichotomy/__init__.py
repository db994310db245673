"""Dichotomous valuation under a Beta-Binomial bipartition.

The package values every player of a cooperative game by the expected
marginal gain when inside the random coalition and the expected marginal
loss when outside, derives the balanced-budget tax system those values
imply, and verifies the large-market behaviour of the posterior employment
rate numerically.

The names below load with their module on first use (PEP 562), so
``import dichotomy`` and the scalar commands load no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each re-exported name, by the module that defines or re-exports it.
_EXPORTS = {
    "CoalitionModel": "coalition",
    "PosteriorRate": "posterior",
    "SubsetId": "coalition",
    "Valuation": "dvalue",
    "exact_valuation": "dvalue",
    "mc_valuation": "dvalue",
    "Game": "production",
    "DenseTableGame": "production",
    "SizeSymmetricGame": "production",
    "WeightedVotingGame": "production",
    "KOutOfNGame": "production",
    "AdditiveGame": "production",
    "TaxSolution": "taxpolicy",
    "asymptotic_tax_rule": "taxpolicy",
    "corrected_tax_rule": "taxpolicy",
    "solve_theta_rho": "taxpolicy",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
