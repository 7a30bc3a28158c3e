"""Binary proper scoring rules generated by a threshold-weight density.

Every rule in this family is described by a nonnegative weight density
rho(eta) over decision thresholds eta in (0, 1) that integrates to 1.
Reporting probability q for a trial costs

    target:      integral over [q, 1] of rho(eta) / eta        d eta
    non-target:  integral over [0, q] of rho(eta) / (1 - eta)  d eta

Both costs are nonnegative and may be +inf at the extreme probabilities
(q = 0 for targets, q = 1 for non-targets); +inf is an ordinary value
here, not an error.  The rules are proper: the expected cost under a true
target probability r is minimized at q = r.

Provided members:

  Logarithmic   rho = 1            costs (-ln q, -ln(1 - q))
  Brier         rho = 6 eta(1-eta) costs (3(1-q)^2, 3q^2)
  CostAt(t)     rho = delta at t   a single hard decision cost
  DiracMixture  finite mix of CostAt spikes
  CustomDensity any user density, costs by adaptive quadrature

Point masses sitting exactly at q belong to the non-target integral (its
range [0, q] is closed at q, the target range (q, 1] is open at q), so a
CostAt rule charges the non-target side at q == t and not the target side.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .pav import _CHUNK, Labels, _items, _target_flags
from .types import Label, WeightPair, as_weights

_INF = math.inf

# Quadrature knobs for CustomDensity: the absolute and relative tolerance
# each cost integral asks for.
_QUAD_ABS_TOL = 1e-10
_NORMALIZATION_TOL = 1e-6


class ScoringRule:
    """Base class; subclasses implement _costs, one side's costs elementwise."""

    def cost(self, label: Label, q: float) -> float:
        """Cost of reporting probability q for a trial with this label."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"probability {q!r} outside [0, 1]")
        if not isinstance(label, Label):
            raise TypeError(f"label must be a Label, got {label!r}")
        return self._costs(np.array([q], float), label is Label.TARGET)[0].item()

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        """Target (or non-target) cost of each probability in q, all in [0, 1]."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Logarithmic(ScoringRule):
    """rho = 1: cost is the negative log of the probability given to the truth."""

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        # math.log, not np.log: numpy picks its kernel by CPU, and on some
        # inputs it differs from the C library's in the last bit.
        x = q.copy() if target else 1.0 - q
        zero = x == 0.0
        x[zero] = 1.0  # any value math.log accepts; these costs are +inf
        out = np.fromiter(map(math.log, memoryview(x)), float, x.size)
        out[zero] = -_INF
        return np.negative(out, out=out)

    def __str__(self) -> str:
        return "log"


@dataclass(frozen=True, slots=True)
class Brier(ScoringRule):
    """rho = 6 eta(1-eta): the squared-error rule, scaled so rho integrates to 1."""

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        d = 1.0 - q if target else q
        return 3.0 * d * d

    def __str__(self) -> str:
        return "brier"


@dataclass(frozen=True, slots=True)
class CostAt(ScoringRule):
    """All threshold weight at one point t in (0, 1): a hard decision at t.

    Reporting q below t costs 1/t per target; reporting q at or above t
    costs 1/(1-t) per non-target.  One side is always zero.
    """

    threshold: float

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, numbers.Real):
            raise TypeError(f"threshold must be a real number, got {self.threshold!r}")
        t = float(self.threshold)
        object.__setattr__(self, "threshold", t)
        if not 0.0 < t < 1.0:
            raise ValueError(f"threshold must lie strictly inside (0, 1), got {t!r}")

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        t = self.threshold
        return np.where(q < t, 1.0 / t, 0.0) if target else np.where(q >= t, 1.0 / (1.0 - t), 0.0)

    def __str__(self) -> str:
        return f"cost@{self.threshold!r}"


@dataclass(frozen=True, slots=True)
class DiracMixture(ScoringRule):
    """Convex combination of CostAt spikes.

    components is a sequence of (alpha, threshold) pairs; the alphas must
    be positive and sum to 1 (within 1e-12).  The cost is exactly the
    alpha-weighted sum of the component CostAt costs, summed left to
    right.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(a), float(t)) for a, t in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for a, t in comps:
            if not (math.isfinite(a) and a > 0.0):
                raise ValueError(f"mixture weight must be positive, got {a!r}")
            if not 0.0 < t < 1.0:
                raise ValueError(f"threshold must lie strictly inside (0, 1), got {t!r}")
            total += a
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        s = np.zeros(q.shape)  # the charged spikes, added left to right from 0.0
        for a, t in self.components:
            if target:
                s[q < t] += a * (1.0 / t)
            else:
                s[q >= t] += a * (1.0 / (1.0 - t))
        return s

    def __str__(self) -> str:
        inner = ",".join(f"{a!r}@{t!r}" for a, t in self.components)
        return f"mix({inner})"


class CustomDensity(ScoringRule):
    """Rule defined by an arbitrary density, costs computed by quadrature.

    The caller must declare whether the two cost integrands stay
    integrable at their singular ends, since that cannot be decided
    numerically: integrable_at_zero says integral of rho(eta)/eta
    converges at eta -> 0, integrable_at_one the same for rho/(1-eta) at
    eta -> 1.  A cost whose declared end diverges is reported as +inf.

    The density itself is validated lazily on first use: it must be
    nonnegative on a grid sampled inside the open interval (0, 1), where a
    density singular at an end is still finite, and integrate to 1 within
    1e-6.  Quadrature targets 1e-10 error, over the log of eta (or of 1 - eta)
    on the half of (0, 1) next to a cost's singular end, where costs such as
    -ln q stay smooth.  An error estimate above 1e-6 * max(1, cost), or an
    arithmetic error raised by the density, raises ValueError.

    Near eta = 1 the density is called with eta, whose 1 - eta has lost its
    digits.  With the arcsine density the target cost raises ValueError from
    q = 1 - 1e-9; the non-target cost is up to 2e-8 relative off from
    1 - 1e-9 to 1 - 1e-11, with scipy's IntegrationWarning, and raises
    ValueError from 1 - 1e-12.
    """

    def __init__(
        self,
        density: Callable[[float], float],
        integrable_at_zero: bool,
        integrable_at_one: bool,
    ) -> None:
        self.density = density
        self.integrable_at_zero = bool(integrable_at_zero)
        self.integrable_at_one = bool(integrable_at_one)
        self._validated = False

    def _ensure_valid(self) -> None:
        if self._validated:
            return
        rho = self.density
        # Probe the open interval: a valid density may be singular at 0 or 1.
        for k in range(1, 100):
            eta = k / 100
            try:
                value = rho(eta)
            except ArithmeticError as exc:
                raise ValueError(f"density could not be evaluated at eta={eta}: {exc!r}") from exc
            if value < 0.0:
                raise ValueError(f"density is negative at eta={eta}")
        total = self._quad(rho, 0.0, 1.0)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1 within 1e-6")
        self._validated = True

    @staticmethod
    def _quad(f: Callable[[float], float], lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        # SciPy is imported here, on first use, so that importing pavcal
        # does not pay for it unless a CustomDensity is evaluated.
        from scipy import integrate

        try:
            val, err = integrate.quad(
                f, lo, hi, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_ABS_TOL, limit=200
            )
        except ArithmeticError as exc:
            raise ValueError(f"density could not be evaluated: {exc!r}") from exc
        if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise ValueError("cost quadrature did not converge")
        return val if val > 0.0 else 0.0

    def _costs(self, q: np.ndarray, target: bool) -> np.ndarray:
        self._ensure_valid()
        one = self._target_cost if target else self._nontarget_cost
        return np.fromiter(map(one, memoryview(q)), float, q.size)

    def _target_cost(self, q: float) -> float:
        if q == 0.0 and not self.integrable_at_zero:
            return _INF
        rho = self.density
        cost = self._quad(lambda e: rho(e) / e, max(q, 0.5), 1.0)
        # Below 1/2 in u = ln(eta), where rho(eta) / eta d eta = rho(e^u) du;
        # q = 0 is taken as the smallest double, and on the other side 1 - q = 0 too.
        lo = math.log(q or math.ulp(0.0))
        return cost + self._quad(lambda u: rho(math.exp(u)), lo, math.log(0.5))

    def _nontarget_cost(self, q: float) -> float:
        if q == 1.0 and not self.integrable_at_one:
            return _INF
        rho = self.density
        cost = self._quad(lambda e: rho(e) / (1.0 - e), 0.0, min(q, 0.5))
        # Above 1/2 in v = -ln(1 - eta), where rho(eta) / (1 - eta) d eta = rho(1 - e^-v) dv.
        hi = -math.log((1.0 - q) or math.ulp(0.0))
        return cost + self._quad(lambda v: rho(-math.expm1(-v)), math.log(2.0), hi)

    def __str__(self) -> str:
        return "custom"


def expected_cost(rule: ScoringRule, r: float, q: float) -> float:
    """Expected cost of reporting q when the true target probability is r.

    Uses the convention 0 * inf = 0, so a class with zero probability
    contributes nothing even where its cost is infinite.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"probability {r!r} outside [0, 1]")
    if r == 0.0:
        return rule.cost(Label.NONTARGET, q)
    if r == 1.0:
        return rule.cost(Label.TARGET, q)
    return r * rule.cost(Label.TARGET, q) + (1.0 - r) * rule.cost(Label.NONTARGET, q)


def objective(
    rule: ScoringRule,
    labels: Labels,
    weights: WeightPair | tuple[float, float],
    p: Sequence[float] | np.ndarray,
) -> float:
    """Weighted total cost of value assignment p for the labeled trials.

    Each distinct value is priced once per class (pav._items), and summed
    exactly rounded (math.fsum), so trial order does not matter; +inf when
    any term is infinite or the total overflows.  Does not require p to be
    monotone; callers score arbitrary candidate assignments.
    """
    flags = _target_flags(labels)
    q = np.asarray(p, dtype=float)
    if q.shape != flags.shape:
        raise ValueError(f"values of shape {q.shape} do not match {flags.size} labels")
    w = as_weights(weights)
    inside = (q >= 0.0) & (q <= 1.0)
    if not inside.all():  # name the first value outside [0, 1], or NaN
        raise ValueError(f"probability {q[np.argmin(inside)].item()!r} outside [0, 1]")
    return _total_cost(rule, w, *_items(q, flags))


def _total_cost(rule: ScoringRule, w: WeightPair, q: np.ndarray, m: np.ndarray, n: np.ndarray) -> float:
    """The weighted total cost of items q[i] given to m[i] targets and n[i]
    non-targets, as counts or bool flags (0 and 1): a fit's blocks or a column's
    distinct values.  One exactly rounded fsum of each term t counted k times,
    as t * 2**i per set bit i of k, so items sharing a value sum as one would.
    Items are priced _CHUNK at a time as fsum reads them: no array of all terms."""
    def terms():
        for target, weight, k in zip((True, False), (w.v1, w.v2), (m, n)):
            for at in range(0, q.size, _CHUNK):
                x, c = q[at:at + _CHUNK], k[at:at + _CHUNK]
                x, c = (x, c) if c.all() else (x[c > 0], c[c > 0])  # only counted values are evaluated
                if x.size:  # a class with no rows here evaluates no cost
                    t = weight * rule._costs(x, target)
                    if (top := int(c.max())) > 1:  # else each term is counted once: t * 1.0 == t
                        t = np.concatenate([t[(c >> i) & 1 == 1] * 2.0**i for i in range(top.bit_length())])
                    yield memoryview(t)

    try:
        with np.errstate(over="ignore"):  # a term or summand that overflows is +inf
            return math.fsum(itertools.chain.from_iterable(terms()))
    except OverflowError:
        return _INF


_COST_RE = re.compile(r"^cost@(?P<t>[^@,()]+)$")
_MIX_RE = re.compile(r"^mix\((?P<body>.*)\)$")


def parse_rule(text: str) -> ScoringRule:
    """Parse a rule name as used on the command line.

    Grammar: 'log' | 'brier' | 'cost@T' | 'mix(A@T,A@T,...)' where T is a
    threshold in (0, 1) and A a positive mixture weight.
    """
    spec = text.strip()
    if spec == "log":
        return Logarithmic()
    if spec == "brier":
        return Brier()
    m = _COST_RE.match(spec)
    if m:
        try:
            t = float(m.group("t"))
        except ValueError:
            raise ValueError(f"bad threshold in rule {text!r}")
        return CostAt(t)
    m = _MIX_RE.match(spec)
    if m:
        comps = []
        for part in m.group("body").split(","):
            part = part.strip()
            try:
                alpha_text, t_text = part.split("@")
                comps.append((float(alpha_text), float(t_text)))
            except ValueError:
                raise ValueError(f"bad mixture component {part!r} in rule {text!r}")
        try:
            return DiracMixture(tuple(comps))
        except ValueError as exc:
            raise ValueError(f"bad rule {text!r}: {exc}")
    raise ValueError(
        f"unknown rule {text!r}; expected log, brier, cost@T, or mix(A@T,...)"
    )


__all__ = [
    "ScoringRule",
    "Logarithmic",
    "Brier",
    "CostAt",
    "DiracMixture",
    "CustomDensity",
    "expected_cost",
    "objective",
    "parse_rule",
]
