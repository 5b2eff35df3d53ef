"""Closed-form upper bounds on average eccentricity, with exact arithmetic.

Every evaluator returns a :class:`BoundResult` carrying the exact rational
value, the constants it used, and an applicability verdict with a reason.
Ceilings are taken on exact rationals: an off-by-one there shifts the
girth-parameterized bounds by ``3g/4``.

Each closed form is one ``Fraction(numerator, denominator)`` over a common
denominator; the records are named tuples and :func:`moore_order` is cached,
so an evaluator call is mostly its own arithmetic.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .graph import Graph, eccentricity_profile, girth


class BoundId(str, Enum):
    EQ1 = "Eq1"
    EQ2 = "Eq2"
    EQ3 = "Eq3"
    EQ4 = "Eq4"
    EQ5 = "Eq5"
    EQ6 = "Eq6"
    EQ7 = "Eq7"
    EQ8 = "Eq8"
    THM_GIRTH_ODD = "ThmGirthOdd"
    THM_GIRTH_EVEN = "ThmGirthEven"
    THM_GIRTH_MAXDEG_ODD = "ThmGirthMaxDegOdd"
    THM_GIRTH_MAXDEG_EVEN = "ThmGirthMaxDegEven"


#: Upper bounds evaluated by :func:`evaluate_all`, in report order.
UPPER_BOUND_IDS = tuple(BoundId)


class GraphParams(namedtuple("GraphParams", "n delta Delta g", defaults=(None, None))):
    """Measured parameters a bound is evaluated at, validated on construction.

    ``Delta`` may be omitted when the maximum degree was not recorded, and
    ``g`` may be ``None`` for forests (no cycle, girth undefined).
    """

    __slots__ = ()

    def __new__(cls, n: int, delta: int, Delta: int | None = None, g: int | None = None):
        if n < 1:
            raise ValueError("order must be positive")
        if delta < 0:
            raise ValueError("minimum degree cannot be negative")
        if Delta is not None and not (delta <= Delta <= n - 1):
            raise ValueError("need delta <= Delta <= n-1")
        if g is not None and g < 3:
            raise ValueError("girth must be at least 3 when present")
        return tuple.__new__(cls, (n, delta, Delta, g))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class Measured(namedtuple("Measured", "graph profile params")):
    """A graph with its profile and parameters, measured once for every consumer."""

    __slots__ = ()


def measure(g: Graph, girth_value: int | None = None) -> Measured:
    """Profile ``g`` (raising if disconnected), then its parameters at a given girth or its own."""
    profile = eccentricity_profile(g)
    return Measured(graph=g, profile=profile, params=GraphParams(
        n=g.n, delta=g.min_degree(), Delta=g.max_degree(),
        g=girth(g) if girth_value is None else girth_value))


class BoundResult(namedtuple("BoundResult", "bound value constants applicable reason satisfied",
                             defaults=(MappingProxyType({}), True, "", None))):
    """One evaluated bound: identity, exact value, the integer orders it
    used, verdicts."""

    __slots__ = ()

    def with_avec(self, avec: Fraction) -> "BoundResult":
        if not self.applicable or self.value is None:
            return self
        return self._replace(satisfied=avec <= self.value)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound.value,
            "value": str(self.value) if self.value is not None else None,
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "applicable": self.applicable,
            "reason": self.reason,
            "satisfied": self.satisfied,
        }


def _not_applicable(bound: BoundId, reason: str) -> BoundResult:
    return BoundResult(bound=bound, value=None, applicable=False, reason=reason)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _geom_block(delta: int, m: int) -> int:
    # ((delta-1)^m - 1) / (delta-2), an integer since delta-1 = 1 mod delta-2
    return ((delta - 1) ** m - 1) // (delta - 2)


@lru_cache(maxsize=1024)
def moore_order(delta: int, g: int) -> int:
    """Minimum order of a graph with minimum degree ``delta >= 3`` and girth
    ``g``: ``K = 1 + delta/(delta-2) * ((delta-1)^((g-1)/2) - 1)`` for odd
    ``g`` (``K1`` of :func:`maxdeg_constants`), ``L = 2/(delta-2) *
    ((delta-1)^(g/2) - 1)`` for even ``g`` (``2*L1``)."""
    if delta < 3:
        raise ValueError(f"formula singular at delta={delta}; minimum degree >= 3 required")
    if g < 3:
        raise ValueError(f"girth >= 3 required, got {g}")
    c = maxdeg_constants(delta, delta, g)
    return c["K1"] if g % 2 else 2 * c["L1"]


def maxdeg_constants(delta: int, Delta: int, g: int) -> dict[str, int]:
    """Constants of the max-degree bound: ``K1, K2`` (odd ``g``) or ``L1, L2``.

    ``K1`` counts a ball of radius ``(g-1)/2`` whose vertices all have
    degree ``delta`` and ``K2`` the same ball around a vertex of degree
    ``Delta``; ``L1`` and ``L2`` count one side of an edge's ball of radius
    ``(g-2)/2`` the same two ways.
    """
    if g % 2:
        block = _geom_block(delta, (g - 1) // 2)
        return {"K1": 1 + delta * block, "K2": 1 + Delta * block}
    block = _geom_block(delta, (g - 2) // 2)
    return {"L1": 1 + (delta - 1) * block, "L2": 1 + (Delta - 1) * block}


def maxdeg_bound_value(n: int, g: int, c1: int, c2: int) -> Fraction:
    """The max-degree closed form at ``(K1, K2)`` or ``(L1, L2)`` without the
    ``n > K2`` gate: a Moore graph's certificate, where ``n == K2``, states it."""
    head = 3 * g * (n - c2) * (3 * n + c2 - c1)
    if g % 2:
        return Fraction(head + 12 * (3 * g - 2) * n * c1, 12 * n * c1)
    return Fraction(head + 3 * (21 * g - 16) * n * c1, 24 * n * c1)


def bound_thm_girth(p: GraphParams) -> BoundResult:
    """Girth-parameterized upper bound ``(3g/4) * ceil(n/K) + 3g/2 - 2``.

    ``K`` is the odd-girth minimum order (``L`` for even girth).  Requires
    minimum degree at least 3; the denominator ``delta - 2`` is singular
    below that.
    """
    n, delta, _, g = p
    if g is None:
        return _not_applicable(BoundId.THM_GIRTH_ODD, "girth undefined (forest)")
    bound = BoundId.THM_GIRTH_ODD if g % 2 else BoundId.THM_GIRTH_EVEN
    if delta < 3:
        return _not_applicable(bound, "minimum degree delta >= 3 required")
    order = moore_order(delta, g)
    value = Fraction(3 * g * _ceil_div(n, order) + 6 * g - 8, 4)
    return BoundResult(bound, value, {"K" if g % 2 else "L": order})


def bound_thm_girth_maxdeg(p: GraphParams) -> BoundResult:
    """Sharper bound using the maximum degree.

    Odd girth: ``(3g/4) * ((n-K2)/K1) * (1 + (K2-K1)/(3n)) + 3g - 2`` with
    ``K1`` the usual odd order and ``K2`` its variant seeded by ``Delta``.
    Even girth: ``(3g/4) * ((n-L2)/(2*L1)) * (1 + (L2-L1)/(3n)) + 21g/8 - 2``.
    Applicable when the order exceeds ``K2`` (resp. ``L2``).
    """
    n, delta, Delta, g = p
    if g is None:
        return _not_applicable(BoundId.THM_GIRTH_MAXDEG_ODD, "girth undefined (forest)")
    bound = BoundId.THM_GIRTH_MAXDEG_ODD if g % 2 else BoundId.THM_GIRTH_MAXDEG_EVEN
    if Delta is None:
        return _not_applicable(bound, "maximum degree not provided")
    if delta < 3:
        return _not_applicable(bound, "minimum degree delta >= 3 required")
    constants = maxdeg_constants(delta, Delta, g)
    (_, c1), (name2, c2) = constants.items()
    if n <= c2:
        return BoundResult(
            bound=bound, value=None, constants=constants, applicable=False,
            reason=f"order n={n} must exceed {name2}={c2}")
    return BoundResult(bound, maxdeg_bound_value(n, g, c1, c2), constants)


def _eps(d1: int, d2: int) -> int:
    # d1*d2 - 2*floor(d1/2) + 1 with d1 the degree whose parity matters
    return d1 * d2 - 2 * (d1 // 2) + 1


# Each legacy bound's hypotheses, gated in this order: whether the maximum
# degree must be recorded, the least girth with the cycles it excludes, the
# least minimum degree
_LEGACY_HYPOTHESES = {
    BoundId.EQ1: (False, None, 2),
    BoundId.EQ2: (False, (4, " (triangle-free)"), 1),
    BoundId.EQ3: (False, (5, " (triangle- and C4-free)"), 0),
    BoundId.EQ4: (False, (6, ""), 0),
    BoundId.EQ5: (False, (6, " (C4- and C5-free)"), 0),
    BoundId.EQ6: (True, None, 2),
    BoundId.EQ7: (True, (4, " (triangle-free)"), 1),
    BoundId.EQ8: (True, (5, " (triangle- and C4-free)"), 0),
}
# BoundId hashes by member name, so its value strings need keys of their own
_LEGACY = {key: (bid, *hypotheses) for bid, hypotheses in _LEGACY_HYPOTHESES.items()
           for key in (bid, bid.value)}


def bound_legacy(p: GraphParams, which: BoundId | str) -> BoundResult:
    """The eight order/degree bounds predating the girth parameterization.

    Applicability is decided from the hypotheses table: girth >= 4 implies
    triangle-free (Eq2/Eq7), girth >= 5 implies additionally C4-free
    (Eq3/Eq8), girth >= 6 covers the C4/C5-free hypotheses (Eq4/Eq5).
    """
    entry = _LEGACY.get(which)
    if entry is None:
        raise ValueError(f"{which} is not a legacy bound id")
    bid, needs_Delta, girth_floor, least_delta = entry
    n, delta, Delta, g = p
    if needs_Delta and Delta is None:
        return _not_applicable(bid, "maximum degree not provided")
    if girth_floor and (g is None or g < girth_floor[0]):
        return _not_applicable(bid, "girth >= %d%s required" % girth_floor)
    if delta < least_delta:
        return _not_applicable(bid, f"minimum degree delta >= {least_delta} required")

    if bid is BoundId.EQ1:
        return BoundResult(bid, Fraction(9 * n + 15 * (delta + 1), 4 * (delta + 1)))
    if bid is BoundId.EQ2:
        return BoundResult(bid, Fraction(3 * _ceil_div(n, 2 * delta) + 5))
    if bid is BoundId.EQ3:
        eps = _eps(delta, delta)
        return BoundResult(bid, Fraction(15 * _ceil_div(n, eps) + 22, 4),
                           constants={"eps_delta": eps})
    if bid is BoundId.EQ4:
        return BoundResult(bid, Fraction(9 * _ceil_div(n, 2 * delta * delta - 2 * delta + 2) + 16, 2))
    if bid is BoundId.EQ5:
        return BoundResult(bid, Fraction(9 * _ceil_div(n, 2 * delta * delta - 5 * delta + 5) + 16, 2))
    if bid is BoundId.EQ6:
        den = 12 * (delta + 1) * n
        return BoundResult(bid, Fraction(9 * (n - Delta - 1) * (3 * n + Delta - delta) + 7 * den, den))
    if bid is BoundId.EQ7:
        den = 6 * delta * n
        return BoundResult(bid, Fraction(3 * (n - Delta) * (3 * n + Delta - delta) + 57 * delta * n, den))
    eps_D = _eps(Delta, delta)  # Eq8
    eps_d = _eps(delta, delta)
    spread = eps_D - eps_d
    value = Fraction(15 * (n - spread) * (3 * n + spread) + 111 * eps_d * n, 12 * eps_d * n)
    return BoundResult(bid, value, constants={"eps_Delta": eps_D, "eps_delta": eps_d})


def lower_bound_chain(p: GraphParams, k: int) -> Fraction:
    """Lower bound on the average eccentricity of a k-copy Moore chain.

    ``3gn/(4K) - g + 1/2`` for odd girth, ``3gn/(4L) - g + 3/2`` for even.
    The order must be exactly ``k`` times the Moore order.
    """
    n, delta, _, g = p
    if g is None:
        raise ValueError("girth required")
    if k < 1:
        raise ValueError("copy count must be positive")
    order = moore_order(delta, g)
    if n != k * order:
        raise ValueError(f"order n={n} is not {k} copies of the Moore order {order}")
    return Fraction(6 * g * n - 8 * g * order + (4 if g % 2 else 12) * order, 8 * order)


def evaluate_all(g: Graph | Measured) -> list[BoundResult]:
    """Evaluate every upper bound at the measured (n, delta, Delta, girth).

    A :class:`Graph` is measured first; a :class:`Measured` is used as is.
    Each result carries ``satisfied = (avec <= value)`` when applicable, so a
    corpus report is self-contained.
    """
    m = g if isinstance(g, Measured) else measure(g)
    p = m.params
    # the girth bounds come in parity pairs: each evaluator answers with the
    # id of the girth's parity, and the other id of its pair is not applicable
    girth_bounds = {r.bound: r for r in (bound_thm_girth(p), bound_thm_girth_maxdeg(p))}
    results: list[BoundResult] = []
    for bid in UPPER_BOUND_IDS:
        if bid.value.startswith("Eq"):
            r = bound_legacy(p, bid)
        elif bid in girth_bounds:
            r = girth_bounds[bid]
        elif p.g is None:
            r = _not_applicable(bid, "girth undefined (forest)")
        else:
            r = _not_applicable(bid, f"girth is not {'even' if p.g % 2 else 'odd'}")
        results.append(r.with_avec(m.profile.avec))
    return results
