"""Independent brute-force and quadrature oracles.

Everything here works from first principles (direct set enumeration, scipy
primitives and mpmath quadrature), deliberately avoiding the code paths under
test.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import betaln


def subset_prob(n: int, t: int, theta: float, rho: float) -> float:
    """Probability of one particular coalition of size t."""
    return math.exp(betaln(theta + t, rho + n - t) - betaln(theta, rho))


def mask_size(mask: int) -> int:
    return bin(mask).count("1")


def brute_valuation(n, theta, rho, v):
    """Definitional per-player gains and losses for v: mask -> value."""
    gain = np.zeros(n)
    loss = np.zeros(n)
    probs = [subset_prob(n, t, theta, rho) for t in range(n + 1)]
    for mask in range(1 << n):
        p = probs[mask_size(mask)]
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                gain[i] += p * (v(mask) - v(mask ^ bit))
            else:
                loss[i] += p * (v(mask | bit) - v(mask))
    return gain, loss


def brute_expected_production(n, theta, rho, v) -> float:
    return sum(
        subset_prob(n, mask_size(mask), theta, rho) * v(mask) for mask in range(1 << n)
    )


def brute_outperforms(n, v, i, j) -> bool:
    """Both dominance conditions, enumerated literally (players 1-based)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    others = [k for k in range(n) if k not in (i - 1, j - 1)]
    for picks in itertools.chain.from_iterable(
        itertools.combinations(others, r) for r in range(len(others) + 1)
    ):
        z = 0
        for k in picks:
            z |= 1 << k
        if v(z | bi) - v(z) < v(z | bj) - v(z):
            return False
        t = z | bi | bj
        if v(t) - v(t ^ bi) < v(t) - v(t ^ bj):
            return False
    return True


def beta_logpdf(x: float, a: float, b: float) -> float:
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - betaln(a, b)


def beta_pdf(x: float, a: float, b: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp(beta_logpdf(x, a, b))


def quad_raw_moment(a: float, b: float, k: int) -> float:
    val, _ = integrate.quad(
        lambda x: x**k * beta_pdf(x, a, b), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300
    )
    return val


def quad_mad(a: float, b: float) -> float:
    mu = a / (a + b)
    below, _ = integrate.quad(
        lambda x: (mu - x) * beta_pdf(x, a, b), 0.0, mu,
        epsabs=1e-14, epsrel=1e-13, limit=300,
    )
    return 2.0 * below


def quad_lower_semivariance(a: float, b: float) -> float:
    mu = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    lo = max(0.0, mu - 60.0 * sd)
    val, _ = integrate.quad(
        lambda x: (x - mu) ** 2 * beta_pdf(x, a, b), lo, mu,
        epsabs=0.0, epsrel=1e-12, limit=300,
    )
    return val


def mp_lower_semivariance(a: float, b: float):
    """Lower semivariance of Beta(a, b) by mpmath quadrature of the density.

    The integral runs in standardized coordinates z = (x - mu) / sd, so the
    integrand stays O(1) at every shape size, and the quadrature works at 30
    digits.  The terms of the log-density grow like a log b, about 5e13 at
    (2^36, 1e300), and cancel to order one: the density is formed at 30
    digits plus one per decade of the larger shape.  Returns an
    ``mpmath.mpf``.
    """
    wide = 30 + math.ceil(math.log10(max(a, b)))
    with mpmath.workdps(wide):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        mu = a / (a + b)
        sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        ln_norm = mpmath.log(sd) - mpmath.log(mpmath.beta(a, b))
        z_lo = max(-mu / sd, mpmath.mpf(-60))

    def integrand(z):
        with mpmath.workdps(wide):
            x = mu + sd * z
            y = z * z * mpmath.exp(
                ln_norm + (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x)
            )
        return +y

    with mpmath.workdps(30):
        knots = [z_lo] + [z for z in (-30, -15, -8, -4, -2, -1) if z > z_lo] + [0]
        # Where z_lo = -mu / sd, x may round below 0 near it, and the log
        # adds an imaginary part far below the last digit: drop it.
        return +(sd * sd * mpmath.re(mpmath.quad(integrand, knots)))


def mp_semivariances(a: float, b: float):
    """Lower and upper semivariances of Beta(a, b) from mpmath, as mpf.

    While a shape is below 10, from mpmath's regularized incomplete beta, as
    var I_mu(a, b) + dens mu (2 mu - 1) / (a (a + b + 1)).  The two terms are
    of order a/b for a << b while the lower side is of order (a/b)^2, so they
    cancel about one digit per decade between the shapes: the sum runs at 50
    digits plus two per decade, 210 at (1e-280, 1e-200).  When both are
    larger, mpmath's hypergeometric series for the incomplete beta cancels
    too much to converge, and the lower side comes from
    ``mp_lower_semivariance``; at shapes from 2 up the two agree to 20
    digits.  The upper side is the variance less the lower.
    """
    spread = abs(math.log10(a) - math.log10(b))
    with mpmath.workdps(50 + math.ceil(2 * spread)):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        mu = ma / (ma + mb)
        var = ma * mb / ((ma + mb) ** 2 * (ma + mb + 1))
        if min(a, b) < 10:
            dens = mpmath.exp(
                ma * mpmath.log(mu) + mb * mpmath.log1p(-mu) - mpmath.log(mpmath.beta(ma, mb))
            )
            lower = var * mpmath.betainc(ma, mb, 0, mu, regularized=True) + dens * mu * (
                2 * mu - 1
            ) / (ma * (ma + mb + 1))
        else:
            lower = mp_lower_semivariance(a, b)
        return lower, var - lower


def mp_semivariances_euler(a: float, b: float):
    """Lower and upper semivariances of Beta(a, b) from mpmath, as mpf,
    without the cancellation of ``mp_semivariances``.

    The smaller side is the lower side of Beta(lo, hi), lo <= hi (the upper
    side of Beta(a, b) when a > b, by x -> 1 - x).  With x = mu u, Euler's
    integral (DLMF 15.6.1) gives it as
    mu^(lo + 2) B(lo, 3) 2F1(1 - hi, lo; lo + 3; mu) / B(lo, hi), mu =
    lo / (lo + hi), at 50 digits plus one per decade of the larger shape.
    Below lo = 10 the series' terms, of alternating sign when hi is large,
    cancel a few digits at most (it agrees with itself at 60 more digits to
    1e-50); from 10 up the side comes from ``mp_lower_semivariance``.  The
    other side is the variance less it.
    """
    lo, hi = sorted((a, b))
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(hi)))):
        ml, mh = mpmath.mpf(lo), mpmath.mpf(hi)
        total = ml + mh
        var = ml * mh / (total**2 * (total + 1))
        if lo < 10:
            mu = ml / total
            side = (
                mu ** (ml + 2) * 2 / (ml * (ml + 1) * (ml + 2))
                * mpmath.hyp2f1(1 - mh, ml, ml + 3, mu) / mpmath.beta(ml, mh)
            )
        else:
            side = mp_lower_semivariance(lo, hi)
        return (side, var - side) if a <= b else (var - side, side)


def mp_theta_rho(n, omega, delta, tau, prec=10_000):
    """(theta, rho) solving the two balance identities at s = n*omega, as
    ``mpmath.mpf`` at ``prec`` bits.

    Each identity is linear in (theta, rho) once its denominator is
    multiplied out:
      benefits  (1 - tau)(rho + n - s - 1) = s(theta + rho - 1) - n*theta
      welfare   (tau - delta)(theta + s - 1) = s(theta + rho - 1) - n(theta - 1)
    and the 2x2 system is solved by Cramer's rule, without the shorthand
    polynomials of the library's closed form.  Every product and sum before
    the two divisions has degree at most 4 in the inputs, so from doubles
    and integers below 2^80 the default width takes them exactly.  The
    determinant cancels terms of order n^2 down to order n, so 600 bits
    would lose it past n = 1e165.
    """
    with mpmath.workprec(prec):
        n, w, e, t = (mpmath.mpf(x) for x in (n, omega, delta, tau))
        s = n * w
        a, b, c = s - n, s - 1 + t, s + (1 - t) * (n - s - 1)
        p, q, r = s - n - t + e, s, s - n + (t - e) * (s - 1)
        det = a * q - b * p
        return (c * q - b * r) / det, (a * r - c * p) / det


# --- the balanced-budget sweep, one scalar cell at a time ---------------------
#
# The per-cell solve as the library did it before the array solver: Python
# float shorthands for the band test and the sign-change marks, longdouble
# shorthands for theta and rho, longdouble residuals at the rounded solution,
# and the CSV rule with its explicit nan/inf branches.

SWEEP_HEADER = (
    "omega,tau,delta,n,theta,rho,d,valid,residual_benefits,residual_welfare,singular"
)


def _scalar_den(n, omega, delta, tau) -> tuple[float, float]:
    """d and n*d + d3 in Python floats."""
    w, t, e = float(omega), float(tau), float(delta)
    d = w + t - e * w - 1.0
    d3 = e - t - e * t + t * t
    return d, n * d + d3


def _scalar_solve(n, omega, delta, tau):
    """(theta, rho, residual_benefits, residual_welfare, valid) of one cell."""
    ld = np.longdouble
    n_, w, t, e = ld(n), ld(omega), ld(tau), ld(delta)
    d = w + t - e * w - 1.0
    d1 = e * w - w - t + 2.0
    d2 = e * w * t - 2.0 * e * w - w * t * t + 2.0 * w * t + t - 1.0
    d3 = e - t - e * t + t * t
    d4 = (-e * w * t + e * w + e * t - 2.0 * e + w * t * t - 2.0 * w * t + w
          - t * t + 3.0 * t - 1.0)
    den = n_ * d + d3
    theta = float((n_ * n_ * w * d1 + n_ * d2 + d3) / den)
    rho = float((n_ * n_ * (1.0 - w) * d1 + n_ * d4 + d3) / den)
    s_, th, rh = n_ * w, ld(theta), ld(rho)
    scale = max(1.0, abs(float(tau)))
    den8 = rh + n_ - s_ - 1.0
    if den8 == 0:
        r8 = math.inf
    else:
        r8 = float(abs(1.0 - (s_ * (th + rh - 1.0) - n_ * th) / den8 - t)) / scale
    den9 = th + s_ - 1.0
    if den9 == 0:
        r9 = math.inf
    else:
        r9 = float(abs(e + (s_ * (th + rh - 1.0) - n_ * (th - 1.0)) / den9 - t)) / scale
    valid = theta > 0.0 and rho > 0.0 and 0.0 <= tau <= 1.0
    return theta, rho, r8, r9, valid


def scalar_probe_row(n, omega, delta, taus) -> list[list]:
    """The sweep's fields for every cell of one omega row."""
    taus = [float(t) for t in taus]
    dens = [_scalar_den(n, omega, delta, t)[1] for t in taus]
    singular = [abs(den) < 1e-12 * n for den in dens]
    for k in range(len(taus) - 1):
        if dens[k] * dens[k + 1] < 0.0:
            singular[k if abs(dens[k]) <= abs(dens[k + 1]) else k + 1] = True
    rows = []
    for tau, den, flag in zip(taus, dens, singular):
        d = _scalar_den(n, omega, delta, tau)[0]
        if abs(den) < 1e-12 * n:
            theta = rho = r8 = r9 = math.nan
            valid = False
        else:
            theta, rho, r8, r9, valid = _scalar_solve(n, omega, delta, tau)
        rows.append([
            float(omega), tau, float(delta), float(n), theta, rho, d,
            valid and not flag, r8, r9, flag,
        ])
    return rows


def _scalar_fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def scalar_csv_line(fields) -> str:
    parts = []
    for f in fields:
        if isinstance(f, bool):
            parts.append("true" if f else "false")
        elif isinstance(f, float):
            parts.append(_scalar_fmt(f))
        else:
            parts.append(str(f))
    return ",".join(parts)


def scalar_sweep(n, delta, omegas, taus) -> str:
    """The sweep's CSV text over the given omega and tau grids."""
    lines = [SWEEP_HEADER]
    for omega in omegas:
        lines += [scalar_csv_line(r) for r in scalar_probe_row(n, omega, delta, taus)]
    return "\n".join(lines) + "\n"


# --- enumeration through the (2^n, n) membership matrix -----------------------
#
# The table build as the library did it before it built tables by doubling:
# a bit matrix through ``values_for_memberships``.  The exact valuation of a
# table sums its steps and values by size on Python ints, one boolean mask
# per player, and takes the library's own floats as P(S = T), so only the
# library's sums round.

def bit_matrix_values(game) -> np.ndarray:
    """v over all 2^n bitmasks from the (2^n, n) membership matrix."""
    masks = np.arange(1 << game.n, dtype=np.int64)
    members = (masks[:, None] >> np.arange(game.n)[None, :]) & 1
    return game.values_for_memberships(members.astype(bool))


def _library_weights(model) -> np.ndarray:
    """The library's P(S = T) for one T of each size."""
    from dichotomy.coalition import _size_pmf_vector
    from dichotomy.dvalue import _subset_weights

    return _subset_weights(_size_pmf_vector(model))


_ULP = 1 << 1074  # every float is an integer multiple of 2^-1074


def sums_by_size(table):
    """Exact sums by coalition size of a 2^n table, as Fraction lists:
    (steps, step_magnitudes, values, value_magnitudes).  steps[i][t] sums
    v(T + i) - v(T) over the T of t players avoiding player i + 1, values[t]
    sums v(T) over the T of t players, and the magnitudes sum the absolute
    values of the same terms.  The sums run on Python ints in units of
    2^-1074, so nothing rounds."""
    n = len(table).bit_length() - 1
    ints = np.array(
        [a * (_ULP // b) for a, b in map(float.as_integer_ratio, np.asarray(table).tolist())],
        dtype=object,
    )
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)

    def by_size(x, s, count):
        return [Fraction(int(x[s == t].sum()), _ULP) for t in range(count)]

    steps, step_magnitudes = [], []
    for i in range(n):
        out = masks[masks >> i & 1 == 0]
        step = ints[out | 1 << i] - ints[out]
        steps.append(by_size(step, sizes[out], n))
        step_magnitudes.append(by_size(np.abs(step), sizes[out], n))
    return steps, step_magnitudes, by_size(ints, sizes, n + 1), by_size(np.abs(ints), sizes, n + 1)


def exact_table_valuation(model, sums):
    """(gain, loss, by-size totals, expected production) of a table from its
    ``sums_by_size``, each as (value, scale) float arrays.  A value is the
    exact sum, with the library's floats as P(S = T), rounded once: gain_i
    weighs the steps of size t by f(t + 1), loss_i by f(t), and the totals
    take f(t).  Its scale is the same sum over the absolute terms, the size
    of the rounding of a float sum of them."""
    f = [Fraction(float(x)) for x in _library_weights(model)]
    steps, step_magnitudes, values, value_magnitudes = sums

    def rounded(rows, weights):
        return np.array([float(sum(w * x for w, x in zip(weights, row))) for row in rows])

    def per_size(row):
        return np.array([float(w * x) for w, x in zip(f, row)])

    return (
        (rounded(steps, f[1:]), rounded(step_magnitudes, f[1:])),
        (rounded(steps, f[:-1]), rounded(step_magnitudes, f[:-1])),
        (per_size(values), per_size(value_magnitudes)),
        (rounded([values], f)[0], rounded([value_magnitudes], f)[0]),
    )


def masked_outperforms(table, n, i, j, op) -> bool:
    """op(v(Z + i), v(Z + j)) for every Z avoiding both players (1-based)."""
    masks = np.arange(1 << n, dtype=np.int64)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    z = masks[masks & (bi | bj) == 0]
    return bool(np.all(op(table[z | bi], table[z | bj])))


def masked_is_monotone(table, n) -> bool:
    """Whether adding any player never lowers v."""
    masks = np.arange(1 << n, dtype=np.int64)
    return not any(
        np.any(table[masks | (1 << i)] < table[masks & ~(1 << i)]) for i in range(n)
    )


def peak_tables(fn, n) -> float:
    """Peak traced allocation of fn(), in tables of 2^n floats."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((1 << n) * 8)


def masked_monotone_values(n, rng) -> np.ndarray:
    """``random_monotone_game``'s table, as the library built it before it
    added each term on its sub-cube: every term adds its pay times the 0/1
    indicator of ``need`` over all 2^n masks, drawing need, then pay."""
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n)
    for _ in range(2 * n):
        need = int(rng.integers(1, 1 << n))
        pay = float(rng.random())
        values += pay * ((masks & need) == need)
    values[0] = 0.0
    return values


# --- weighted voting, counted coalition by coalition --------------------------

def voting_counts_by_masks(weights, quota):
    """(wins[t], swings[i][t]) as Python ints, deciding each coalition with
    exact rationals: wins counts the winning coalitions of t players, swings
    the losing coalitions of t players without i + 1 that i + 1 turns."""
    n = len(weights)
    w = [Fraction(float(x)) for x in weights]
    q = Fraction(float(quota))
    wins = [0] * (n + 1)
    swings = [[0] * n for _ in range(n)]
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        total = sum((w[i] for i in members), Fraction(0))
        if total >= q:
            wins[len(members)] += 1
            continue
        for i in range(n):
            if not mask >> i & 1 and total + w[i] >= q:
                swings[i][len(members)] += 1
    return wins, swings


def mp_voting_valuation(counts, theta, rho, dps=40):
    """Gains, losses, expected production and the size totals P(S = T) times
    the wins of each size, from ``voting_counts_by_masks``, as
    ``mpmath.mpf`` at ``dps`` digits."""
    wins, swings = counts
    n = len(wins) - 1
    with mpmath.workdps(dps):
        norm = mpmath.beta(theta, rho)
        f = [mpmath.beta(theta + t, rho + n - t) / norm for t in range(n + 1)]
        gain = [mpmath.fsum(s * f[t + 1] for t, s in enumerate(row)) for row in swings]
        loss = [mpmath.fsum(s * f[t] for t, s in enumerate(row)) for row in swings]
        totals = [c * f[t] for t, c in enumerate(wins)]
        return gain, loss, mpmath.fsum(totals), totals


# --- Monte Carlo, every row flipped --------------------------------------------
#
# The Monte Carlo stream as the library ran it before it skipped the rows
# where no flip can swing v: two weight-sum passes per chunk, and every row
# flipped as s + (-w_i) inside T and s + w_i outside.  The sampling, chunk
# size and column sums are the library's, so with ``dvalue._mc_stream``
# swapped for this one, ``mc_valuation`` must give the same bytes.

def moved_flips(game, members) -> np.ndarray:
    """v(T xor {i}) for every row and player, as s + sign * w_i."""
    sign = 1 - 2 * members.view(np.int8)  # -1 inside T, +1 outside
    return game._phi(game._weight_sums(members)[:, None] + sign * game._w)


def flip_every_row_stream(model, game, rng, count, scale) -> np.ndarray:
    from dichotomy.coalition import sample_memberships
    from dichotomy.dvalue import _MC_CELLS
    from dichotomy.production import AdditiveGame

    def scaled(values):
        return values if scale == 1.0 else values * scale

    n = model.n
    rows = max(1, _MC_CELLS // n)
    acc = np.zeros(4 * n + 3)
    per_player = acc[: 4 * n].reshape(2, 2, n)
    for done in range(0, count, rows):
        members = sample_memberships(model, rng, min(rows, count - done))
        v_s = scaled(game.values_for_memberships(members))
        if isinstance(game, AdditiveGame):
            w = scaled(game.player_values)
            diff = np.where(members, w, -w)
        else:
            diff = v_s[:, None] - scaled(moved_flips(game, members))
        gain = diff * members
        for sums, x in zip(per_player, (gain, gain - diff)):
            sums += np.einsum("ij->j", x), np.einsum("ij,ij->j", x, x)
        acc[4 * n :] += (v_s.sum(), (v_s * v_s).sum(), len(v_s))
    return acc


# --- the counted Monte Carlo pass, one player at a time ----------------------
#
# ``dvalue._mc_table_sums`` as the library ran it before it walked the pairs
# in blocks: each player's pairs through one reshape of the whole table, and
# each sum over all 2^(n-1) pairs at once.

def signed_table(n: int):
    """A table of both signs over six decades, seeded by n."""
    from dichotomy.production import DenseTableGame

    rng = np.random.default_rng(n)
    values = rng.standard_normal(1 << n) * 10.0 ** rng.uniform(-3, 3, 1 << n)
    values[0] = 0.0
    return DenseTableGame(n, values)


def unblocked_mc_table_sums(game, drawn, scale) -> np.ndarray:
    n = game.n
    acc = np.zeros(4 * n + 3)
    per_player = acc[: 4 * n].reshape(2, 2, n)
    count = drawn.astype(float)
    values = game.table if scale == 1.0 else game.table * scale
    half = 1 << (n - 1)
    step, weighed = np.empty(half), np.empty(half)
    for i in range(n):
        t, c = values.reshape(-1, 2, 1 << i), count.reshape(-1, 2, 1 << i)
        np.subtract(t[:, 1], t[:, 0], out=step.reshape(-1, 1 << i))
        for block, rows in zip(per_player, (c[:, 1], c[:, 0])):
            np.multiply(rows, step.reshape(-1, 1 << i), out=weighed.reshape(-1, 1 << i))
            block[0, i] += weighed.sum()
            weighed *= step
            block[1, i] += weighed.sum()
    count *= values
    production = count.sum()
    count *= values
    acc[4 * n :] += (production, count.sum(), drawn.sum())
    return acc


# --- semivalues ---------------------------------------------------------------

def shapley_by_permutations(n, v) -> list[float]:
    """The Shapley value of v: mask -> value, as each player's marginal on
    joining the players before it, averaged over all n! orders in exact
    rationals (n <= 8, 40,320 orders).  The marginals add up on Python ints
    in units of 2^-1074."""
    if n > 8:
        raise ValueError(f"{math.factorial(n)} orders are too many; n <= 8")
    ratios = (float(v(mask)).as_integer_ratio() for mask in range(1 << n))
    value = [a * (_ULP // b) for a, b in ratios]
    total = [0] * n
    for order in itertools.permutations(range(n)):
        mask = 0
        for i in order:
            total[i] += value[mask | 1 << i] - value[mask]
            mask |= 1 << i
    return [float(Fraction(x, _ULP * math.factorial(n))) for x in total]


# --- the Beta semivalue ---------------------------------------------------------
#
# P(S = T + i) + P(S = T) = w(t) = B(theta + t, rho + n - 1 - t) / B(theta, rho)
# for |T| = t, so gain_i + loss_i weighs each marginal v(T + i) - v(T) over
# the T avoiding i by w(|T|); gain_i takes the share (theta + t) /
# (theta + rho + n - 1) of each term and loss_i the rest.  theta + t is
# formed in mpmath: a float 500000 + 0.05 already moves the weights.

def mp_beta_semivalue(by_size, theta, rho, dps=40):
    """Per player, gain_i and loss_i as the two shares of the Beta semivalue,
    and the same sums over |v(T + i) - v(T)| (the scale of a float sum's
    rounding), from the steps and step magnitudes of ``sums_by_size``, as
    ``mpmath.mpf`` lists."""
    sums, magnitudes = by_size
    n = len(sums)
    with mpmath.workdps(dps):
        th, rh = mpmath.mpf(theta), mpmath.mpf(rho)
        norm, top = mpmath.beta(th, rh), th + rh + n - 1
        w = [mpmath.beta(th + t, rh + n - 1 - t) / norm for t in range(n)]
        gain_w = [w[t] * (th + t) / top for t in range(n)]
        loss_w = [w[t] * (rh + n - 1 - t) / top for t in range(n)]

        def dot(weights, row):
            return mpmath.fsum(x * mpmath.mpf(f.numerator) / f.denominator
                               for x, f in zip(weights, row))

        return (
            [dot(gain_w, row) for row in sums],
            [dot(loss_w, row) for row in sums],
            [dot(gain_w, row) for row in magnitudes],
            [dot(loss_w, row) for row in magnitudes],
        )


def mp_size_semivalue(by_size, theta, rho, dps=50):
    """gain, loss and their scale for every player of the size-symmetric game
    v(T) = u(|T|), u = by_size, at any n: sum_s BB_{n-1}(s; theta, rho)
    (u(s + 1) - u(s)), split into the two shares, and the same sum over
    |u(s + 1) - u(s)|.  One mpmath term per step where u changes, its weight
    from log-gammas, which keep 40 of the 50 digits up to n = 1e9."""
    n = len(by_size) - 1
    with mpmath.workdps(dps):
        th, rh = mpmath.mpf(theta), mpmath.mpf(rho)
        top = th + rh + n - 1
        log_norm = mpmath.loggamma(n) - mpmath.loggamma(top) - mpmath.log(mpmath.beta(th, rh))
        gain, loss, scale = [], [], []
        u = np.asarray(by_size, dtype=float)
        for s in np.flatnonzero(u[1:] != u[:-1]).tolist():
            step = mpmath.mpf(u[s + 1]) - mpmath.mpf(u[s])
            bb = mpmath.exp(
                log_norm - mpmath.loggamma(s + 1) - mpmath.loggamma(n - s)
                + mpmath.loggamma(th + s) + mpmath.loggamma(rh + n - 1 - s)
            )
            gain.append(bb * step * (th + s) / top)
            loss.append(bb * step * (rh + n - 1 - s) / top)
            scale.append(bb * abs(step))
        return mpmath.fsum(gain), mpmath.fsum(loss), mpmath.fsum(scale)
