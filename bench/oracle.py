"""Independent oracle for every output the benchmark checks.

Nothing here imports ``igf``.  Sums are ``math.fsum`` over the generated
arrays; ``normalize`` output must match an independently rendered canonical
document byte for byte; closed forms are checked against ``mpmath`` when it
can be imported (it is not a declared dependency), otherwise against a
direct sum plus its analytic Euler-Maclaurin tail.  The CLI's own
``--check`` ``direct:`` line is checked like any other output, never used
as a reference: its geometric sum drops a tail of up to 1e-13, and its
beta-power sum has no tail at all.

Tolerances follow the error budgets the README documents:

* FSUM_RTOL: every sum is taken with ``math.fsum``, which keeps 1e-12
  relative tolerances honest for vectors up to 1e6 entries.
* IDENTITY_RTOL: the scaling identity is declared verified at 1e-10
  relative.
* ZETA_ABS / ZETA_DERIVATIVE_ABS: the in-house zeta has absolute error
  below 1e-12 for beta >= 1.001, its derivative below 1e-10 for
  beta >= 1.01.  Closed-form values built on them get the first-order
  propagation of those budgets, plus a few ulps of rounding.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

from workloads import CURVE_STEPS, CURVE_T_MAX, CURVE_T_MIN, FAMILY_TRUNCATION

try:
    import mpmath
except ImportError:  # the fallback below needs only the stdlib
    mpmath = None

EPS = 2.0**-52
FSUM_RTOL = 1e-12
IDENTITY_RTOL = 1e-10
ZETA_ABS = 1e-12
ZETA_DERIVATIVE_ABS = 1e-10
GEOMETRIC_CHECK_TAIL = 1e-13  # tail the CLI's geometric --check sum leaves out
MEASURES = ("weighted", "golomb", "hooda_bhaker")


@dataclass
class Outcome:
    """What checking one op's outputs found."""

    checked: int = 0
    unchecked: int = 0
    max_rel_err: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def close(self, what: str, value: float, ref: float, atol: float) -> None:
        self.checked += 1
        err = abs(value - ref)
        rel = err / abs(ref) if ref else err
        if rel == rel:
            self.max_rel_err = max(self.max_rel_err, rel)
        if not err <= atol:
            self.failures.append(f"{what}: got {value!r}, oracle {ref!r}")

    def close_rel(self, what: str, value: float, ref: float, rtol: float) -> None:
        self.close(what, value, ref, rtol * abs(ref))

    def equal(self, what: str, got: object, want: object) -> None:
        self.checked += 1
        if got != want:
            self.failures.append(f"{what}: got {str(got)[:80]!r}, want {str(want)[:80]!r}")

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def merge(self, other: "Outcome") -> None:
        self.checked += other.checked
        self.unchecked += other.unchecked
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.failures.extend(other.failures)


# ------------------------------------------------------------- sums over arrays


def _exponent(u: float, t: float) -> float:
    return 1.0 - u * (1.0 - t)


def weighted(probs, utils, t):
    return math.fsum(p ** _exponent(u, t) for p, u in zip(probs, utils) if p > 0.0)


def golomb(probs, t):
    return math.fsum(p**t for p in probs if p > 0.0)


def hooda_bhaker(probs, utils, t):
    return math.fsum(u * p**t for p, u in zip(probs, utils) if p > 0.0)


def entropy(probs, utils):
    return -math.fsum(u * p * math.log(p) for p, u in zip(probs, utils) if p > 0.0)


def moment(probs, utils, r):
    if r == 0:
        return math.fsum(probs)
    return math.fsum(p * (-u * math.log(p)) ** r for p, u in zip(probs, utils) if p > 0.0)


def derivative(probs, utils, t, r):
    return math.fsum(
        (u * math.log(p)) ** r * p ** _exponent(u, t)
        for p, u in zip(probs, utils) if p > 0.0
    )


def escort(probs, beta):
    powered = [p**beta for p in probs]
    mass = math.fsum(powered)
    return [w / mass for w in powered], mass


def power_sum(probs, e):
    return math.fsum(p**e for p in probs if p > 0.0)


def canonical_json(probs, utils) -> str:
    def row(xs):
        return ", ".join(format(x, ".17g") for x in xs)

    return (
        '{\n  "probabilities": [' + row(probs) + '],\n  "utilities": ['
        + row(utils) + '],\n  "kind": "complete"\n}\n'
    )


def curve_grid(t_min: float, t_max: float, steps: int) -> list[float]:
    step = (t_max - t_min) / (steps - 1)
    return [t_max if k == steps - 1 else t_min + k * step for k in range(steps)]


# ------------------------------------------------------------- closed forms


def _precision():
    return mpmath.workdps(40) if mpmath else contextlib.nullcontext()


_DIRECT_TERMS = 10_000


def _zeta(x):
    if mpmath:
        return mpmath.zeta(x)
    n = _DIRECT_TERMS
    head = math.fsum(k**-x for k in range(1, n))
    # Euler-Maclaurin tail from n on; the next term is below 1e-18 here
    return head + n ** (1 - x) / (x - 1) + 0.5 * n**-x + x / 12 * n ** (-x - 1)


def _zeta_derivative(x):
    if mpmath:
        return mpmath.zeta(x, 1, 1)
    n = _DIRECT_TERMS
    ln = math.log(n)
    head = math.fsum(math.log(k) * k**-x for k in range(1, n))
    tail = (
        n ** (1 - x) * (ln / (x - 1) + 1 / (x - 1) ** 2)
        + 0.5 * ln * n**-x
        - n ** (-x - 1) * (1 - x * ln) / 12
    )
    return -(head + tail)


def zeta(x: float) -> float:
    with _precision():
        return float(_zeta(x))


def beta_power_igf(beta: float, u: float, t: float) -> tuple[float, float]:
    """Value and error budget of zeta(beta*s) / zeta(beta)**s."""
    s = _exponent(u, t)
    with _precision():
        z1, z = _zeta(beta * s), _zeta(beta)
        value = float(z1 / z**s)
        slope = float(1 / z**s + s * z1 / z ** (s + 1))
    return value, ZETA_ABS * slope + 8 * EPS * abs(value)


def beta_power_entropy(beta: float, u: float) -> tuple[float, float]:
    """Value and error budget of u * (ln zeta(beta) - beta * zeta'(beta) / zeta(beta))."""
    with _precision():
        z, d = _zeta(beta), _zeta_derivative(beta)
        value = float(u * (_log(z) - beta * d / z))
        by_z = float(abs(u * (1 / z + beta * d / z**2)))
        by_d = float(abs(u * beta / z))
    return value, ZETA_ABS * by_z + ZETA_DERIVATIVE_ABS * by_d + 8 * EPS * abs(value)


def _log(x):
    return mpmath.log(x) if mpmath else math.log(x)


def geometric_igf(p: float, u: float, t: float) -> float:
    """sum_i ((1-p) p**i)**s for i >= 0."""
    s = _exponent(u, t)
    if mpmath:
        with _precision():
            mp_p = mpmath.mpf(p)
            return float((1 - mp_p) ** s / (1 - mp_p**s))
    # direct sum until p**(k s) < 1e-17, then the analytic geometric tail
    k = math.ceil(math.log(1e-17) / (s * math.log(p)))
    q = 1.0 - p
    return math.fsum((q * p**i) ** s for i in range(k)) + (q * p**k) ** s / (1.0 - p**s)


# ------------------------------------------------------------- the checks


def _number(text: str) -> float:
    return float(text.strip())


class Oracle:
    """Checks outputs of ops on one generated scheme, caching what repeats."""

    def __init__(self, probs: list[float], utils: list[float]):
        self.probs, self.utils = probs, utils
        self._memo: dict = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def check_cli(self, check: tuple, returncode: int, stdout: str, out_file: str | None) -> Outcome:
        got = Outcome()
        if returncode != 0:
            got.fail(f"{check[0]}: exit code {returncode}")
            return got
        kind, *args = check
        try:
            getattr(self, "_" + kind)(got, stdout, out_file, *args)
        except (ValueError, IndexError, OSError) as exc:
            got.fail(f"{kind}: unreadable output ({exc})")
        return got

    def _weighted(self, got, stdout, _, t):
        ref = self._cached(("weighted", t), lambda: weighted(self.probs, self.utils, t))
        got.close_rel("eval", _number(stdout), ref, FSUM_RTOL)

    def _entropy(self, got, stdout, _):
        ref = self._cached("entropy", lambda: entropy(self.probs, self.utils))
        got.close_rel("entropy", _number(stdout), ref, FSUM_RTOL)

    def _moments(self, got, stdout, _, r_max):
        rows = stdout.splitlines()
        got.equal("moments rows", len(rows), r_max + 1)
        for r, row in enumerate(rows):
            order, value = row.split("\t")
            got.equal("moment order", order, str(r))
            ref = self._cached(("moment", r), lambda: moment(self.probs, self.utils, r))
            got.close_rel(f"moment {r}", _number(value), ref, FSUM_RTOL)

    def _normalize(self, got, stdout, _):
        want = self._cached("canonical", lambda: canonical_json(self.probs, self.utils))
        got.equal("normalize document", stdout, want)

    def _escort(self, got, stdout, _, beta, u, t):
        esc, mass = self._cached(("escort", beta), lambda: escort(self.probs, beta))
        line = self._cached(
            ("escort line", beta), lambda: "escort: " + " ".join(format(e, ".17g") for e in esc)
        )
        rows = dict(row.split(": ", 1) for row in stdout.splitlines()[:-1])
        if "escort: " + rows["escort"] == line:
            got.checked += 1
        else:
            values = rows["escort"].split(" ")
            got.equal("escort length", len(values), len(esc))
            for v, e in zip(values, esc):
                got.close_rel("escort entry", float(v), e, FSUM_RTOL)
        got.close_rel("mass", _number(rows["mass"]), mass, FSUM_RTOL)
        s = _exponent(u, t)
        gen = self._cached(("generalized", beta, u, t), lambda: power_sum(esc, s))
        got.close_rel("generalized_igf", _number(rows["generalized_igf"]), gen, FSUM_RTOL)
        lhs_ref = self._cached(("lhs", beta, u, t), lambda: power_sum(self.probs, beta * s))
        lhs, rhs = _number(rows["lhs"]), _number(rows["rhs"])
        got.close_rel("lhs", lhs, lhs_ref, FSUM_RTOL)
        got.close_rel("rhs", rhs, lhs_ref, IDENTITY_RTOL)
        got.equal("abs_diff", rows["abs_diff"], format(abs(lhs - rhs), ".6e"))
        got.equal("verdict", stdout.splitlines()[-1], "PASS")
        got.unchecked += len(rows.keys() - {"escort", "mass", "generalized_igf", "lhs", "rhs", "abs_diff"})

    def _curve(self, got, text, probs, utils, rtol_at):
        rows = text.splitlines()
        got.equal("curve header", rows[0], "t," + ",".join(MEASURES))
        grid = curve_grid(CURVE_T_MIN, CURVE_T_MAX, CURVE_STEPS)
        got.equal("curve rows", len(rows) - 1, len(grid))
        for t, row in zip(grid, rows[1:]):
            cells = row.split(",")
            got.equal("curve t", cells[0], repr(t))
            refs = (weighted(probs, utils, t), golomb(probs, t), hooda_bhaker(probs, utils, t))
            for name, cell, ref in zip(MEASURES, cells[1:], refs):
                got.close_rel(f"curve {name} at t={t}", float(cell), ref, rtol_at(t))

    def _curve_scheme(self, got, _, out_file):
        self._curve(got, out_file, self.probs, self.utils, lambda t: FSUM_RTOL)

    def _curve_beta_power(self, got, _, out_file, beta):
        z = zeta(beta)
        probs = [i**-beta / z for i in range(1, FAMILY_TRUNCATION + 1)]
        # each p_i carries the relative zeta error, raised to the power t
        self._curve(got, out_file, probs, [1.0] * len(probs),
                    lambda t: FSUM_RTOL + t * (ZETA_ABS / z + 4 * EPS))

    def _curve_geometric(self, got, _, out_file, p):
        probs = [(1.0 - p) * p**i for i in range(FAMILY_TRUNCATION)]
        self._curve(got, out_file, probs, [1.0] * len(probs), lambda t: FSUM_RTOL)

    def _beta_power_igf(self, got, stdout, _, beta, u, t):
        ref, atol = beta_power_igf(beta, u, t)
        got.close("closed-form beta-power igf", _number(stdout), ref, atol)

    def _beta_power_entropy(self, got, stdout, _, beta, u):
        ref, atol = beta_power_entropy(beta, u)
        got.close("closed-form beta-power entropy", _number(stdout), ref, atol)

    def _geometric_check(self, got, stdout, _, p, u, t):
        rows = dict(row.split(": ", 1) for row in stdout.splitlines())
        ref = geometric_igf(p, u, t)
        value, direct = _number(rows["closed_form"]), _number(rows["direct"])
        got.close_rel("closed-form geometric igf", value, ref, FSUM_RTOL)
        got.close("geometric direct sum", direct, ref, GEOMETRIC_CHECK_TAIL + 16 * EPS * ref)
        got.equal("geometric abs_diff", rows["abs_diff"], format(abs(value - direct), ".6e"))
        got.unchecked += len(rows.keys() - {"closed_form", "direct", "abs_diff"})

    def check_lib(self, x, out: dict) -> Outcome:
        """Check one lib_small_64 cycle (see workloads.lib_cycle); the
        Oracle's own arrays are unused, each cycle brings its scheme."""
        got = Outcome()
        p, u = x.probs, x.utils
        for t in x.ts:
            got.close_rel("weighted_igf", out["weighted", t], weighted(p, u, t), FSUM_RTOL)
            got.close_rel("golomb_igf", out["golomb", t], golomb(p, t), FSUM_RTOL)
            got.close_rel("hooda_bhaker_igf", out["hooda_bhaker", t],
                          hooda_bhaker(p, u, t), FSUM_RTOL)
        got.close_rel("weighted_entropy", out["entropy"], entropy(p, u), FSUM_RTOL)
        for r in range(5):
            got.close_rel(f"moment {r}", out["moment", r], moment(p, u, r), FSUM_RTOL)
        for r in (1, 2):
            got.close_rel(f"derivative {r}", out["derivative", r],
                          derivative(p, u, 1.0, r), FSUM_RTOL)
        esc, mass = escort(p, x.escort_beta)
        values, got_mass = out["escort"]
        got.equal("escort length", len(values), len(esc))
        for v, e in zip(values, esc):
            got.close_rel("escort entry", v, e, FSUM_RTOL)
        got.close_rel("escort mass", got_mass, mass, FSUM_RTOL)
        lhs, rhs, passed = out["identity"]
        lhs_ref = power_sum(p, x.escort_beta * _exponent(x.escort_u, x.ts[0]))
        got.close_rel("identity lhs", lhs, lhs_ref, FSUM_RTOL)
        got.close_rel("identity rhs", rhs, lhs_ref, IDENTITY_RTOL)
        got.equal("identity verdict", passed, True)
        ref, atol = self._cached(("beta_power", x.beta, x.beta_t),
                                 lambda: beta_power_igf(x.beta, 1.0, x.beta_t))
        got.close("beta_power_igf", out["beta_power"], ref, atol)
        return got
