"""Closed-form upper bounds on average eccentricity, with exact arithmetic.

Every evaluator returns a :class:`BoundResult` carrying the exact rational
value, the constants it used, and an applicability verdict with a reason.
Ceilings are taken on exact rationals: an off-by-one there shifts the
girth-parameterized bounds by ``3g/4``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .graph import EccentricityProfile, Graph, eccentricity_profile, girth


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
UPPER_BOUND_IDS = (
    BoundId.EQ1,
    BoundId.EQ2,
    BoundId.EQ3,
    BoundId.EQ4,
    BoundId.EQ5,
    BoundId.EQ6,
    BoundId.EQ7,
    BoundId.EQ8,
    BoundId.THM_GIRTH_ODD,
    BoundId.THM_GIRTH_EVEN,
    BoundId.THM_GIRTH_MAXDEG_ODD,
    BoundId.THM_GIRTH_MAXDEG_EVEN,
)


@dataclass(frozen=True)
class GraphParams:
    """Measured parameters a bound is evaluated at.

    ``Delta`` may be omitted when the maximum degree was not recorded, and
    ``g`` may be ``None`` for forests (no cycle, girth undefined).
    """

    n: int
    delta: int
    Delta: int | None = None
    g: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        if self.delta < 0:
            raise ValueError("minimum degree cannot be negative")
        if self.Delta is not None and not (self.delta <= self.Delta <= max(self.n - 1, 0)):
            raise ValueError("need delta <= Delta <= n-1")
        if self.g is not None and self.g < 3:
            raise ValueError("girth must be at least 3 when present")

    @staticmethod
    def measure(g: Graph) -> "GraphParams":
        return GraphParams(n=g.n, delta=g.min_degree(), Delta=g.max_degree(), g=girth(g))


@dataclass(frozen=True)
class Measured:
    """A graph with its profile and parameters, measured once for every consumer."""

    graph: Graph
    profile: EccentricityProfile
    params: GraphParams


def measure(g: Graph) -> Measured:
    """Profile ``g``, which raises on disconnected input, then measure its parameters."""
    profile = eccentricity_profile(g)
    return Measured(graph=g, profile=profile, params=GraphParams.measure(g))


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: identity, exact value, constants, verdicts."""

    bound: BoundId
    value: Fraction | None
    constants: dict[str, Fraction] = field(default_factory=dict)
    applicable: bool = True
    reason: str = ""
    satisfied: bool | None = None

    def with_avec(self, avec: Fraction) -> "BoundResult":
        if not self.applicable or self.value is None:
            return self
        return BoundResult(
            bound=self.bound,
            value=self.value,
            constants=self.constants,
            applicable=self.applicable,
            reason=self.reason,
            satisfied=avec <= self.value,
        )

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


def _require_delta3(delta: int, g_parity: str):
    if delta < 3:
        raise ValueError(f"formula singular at delta=2; minimum degree >= 3 required for {g_parity} girth order")


def moore_order_odd(delta: int, g: int) -> int:
    """Minimum order of a graph with minimum degree ``delta`` and odd girth ``g``:
    ``1 + delta/(delta-2) * ((delta-1)^((g-1)/2) - 1)``."""
    _require_delta3(delta, "odd")
    if g < 3 or g % 2 == 0:
        raise ValueError(f"odd girth >= 3 required, got {g}")
    return 1 + delta * _geom_block(delta, (g - 1) // 2)


def moore_order_even(delta: int, g: int) -> int:
    """Minimum order for even girth ``g``: ``2/(delta-2) * ((delta-1)^(g/2) - 1)``."""
    _require_delta3(delta, "even")
    if g < 4 or g % 2 == 1:
        raise ValueError(f"even girth >= 4 required, got {g}")
    return 2 * _geom_block(delta, g // 2)


def moore_order(delta: int, g: int) -> int:
    """The Moore order of the girth's parity: ``K`` (odd) or ``L`` (even)."""
    return moore_order_odd(delta, g) if g % 2 else moore_order_even(delta, g)


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
    spread = 1 + Fraction(c2 - c1, 3 * n)
    if g % 2:
        return Fraction(3 * g, 4) * Fraction(n - c2, c1) * spread + (3 * g - 2)
    return Fraction(3 * g, 4) * Fraction(n - c2, 2 * c1) * spread + Fraction(21 * g - 16, 8)


def bound_thm_girth(p: GraphParams) -> BoundResult:
    """Girth-parameterized upper bound ``(3g/4) * ceil(n/K) + 3g/2 - 2``.

    ``K`` is the odd-girth minimum order (``L`` for even girth).  Requires
    minimum degree at least 3; the denominator ``delta - 2`` is singular
    below that.
    """
    if p.g is None:
        return _not_applicable(BoundId.THM_GIRTH_ODD, "girth undefined (forest)")
    bound = BoundId.THM_GIRTH_ODD if p.g % 2 == 1 else BoundId.THM_GIRTH_EVEN
    if p.delta < 3:
        return _not_applicable(bound, "minimum degree delta >= 3 required")
    order = moore_order(p.delta, p.g)
    c = _ceil_div(p.n, order)
    value = Fraction(3 * p.g * c + 6 * p.g - 8, 4)
    return BoundResult(bound=bound, value=value,
                       constants={"K" if p.g % 2 else "L": Fraction(order)})


def bound_thm_girth_maxdeg(p: GraphParams) -> BoundResult:
    """Sharper bound using the maximum degree.

    Odd girth: ``(3g/4) * ((n-K2)/K1) * (1 + (K2-K1)/(3n)) + 3g - 2`` with
    ``K1`` the usual odd order and ``K2`` its variant seeded by ``Delta``.
    Even girth: ``(3g/4) * ((n-L2)/(2*L1)) * (1 + (L2-L1)/(3n)) + 21g/8 - 2``.
    Applicable when the order exceeds ``K2`` (resp. ``L2``).
    """
    if p.g is None:
        return _not_applicable(BoundId.THM_GIRTH_MAXDEG_ODD, "girth undefined (forest)")
    bound = BoundId.THM_GIRTH_MAXDEG_ODD if p.g % 2 == 1 else BoundId.THM_GIRTH_MAXDEG_EVEN
    if p.Delta is None:
        return _not_applicable(bound, "maximum degree not provided")
    if p.delta < 3:
        return _not_applicable(bound, "minimum degree delta >= 3 required")
    (name1, c1), (name2, c2) = maxdeg_constants(p.delta, p.Delta, p.g).items()
    constants = {name1: Fraction(c1), name2: Fraction(c2)}
    if p.n <= c2:
        return BoundResult(
            bound=bound, value=None, constants=constants, applicable=False,
            reason=f"order n={p.n} must exceed {name2}={c2}")
    return BoundResult(bound=bound, value=maxdeg_bound_value(p.n, p.g, c1, c2),
                       constants=constants)


def _eps(d1: int, d2: int) -> int:
    # d1*d2 - 2*floor(d1/2) + 1 with d1 the degree whose parity matters
    return d1 * d2 - 2 * (d1 // 2) + 1


def bound_legacy(p: GraphParams, which: BoundId | str) -> BoundResult:
    """The eight order/degree bounds predating the girth parameterization.

    Applicability is decided from the measured girth: girth >= 4 implies
    triangle-free (Eq2/Eq7), girth >= 5 implies additionally C4-free
    (Eq3/Eq8), girth >= 6 covers the C4/C5-free hypotheses (Eq4/Eq5).
    """
    which = BoundId(which)
    n, delta, Delta, g = p.n, p.delta, p.Delta, p.g

    if which is BoundId.EQ1:
        if delta < 2:
            return _not_applicable(which, "minimum degree delta >= 2 required")
        return BoundResult(which, Fraction(9 * n + 15 * (delta + 1), 4 * (delta + 1)))

    if which is BoundId.EQ2:
        if g is None or g < 4:
            return _not_applicable(which, "girth >= 4 (triangle-free) required")
        return BoundResult(which, Fraction(3 * _ceil_div(n, 2 * delta) + 5))

    if which is BoundId.EQ3:
        if g is None or g < 5:
            return _not_applicable(which, "girth >= 5 (triangle- and C4-free) required")
        eps = _eps(delta, delta)
        return BoundResult(which, Fraction(15 * _ceil_div(n, eps), 4) + Fraction(11, 2),
                           constants={"eps_delta": Fraction(eps)})

    if which is BoundId.EQ4:
        if g is None or g < 6:
            return _not_applicable(which, "girth >= 6 required")
        return BoundResult(which, Fraction(9 * _ceil_div(n, 2 * delta * delta - 2 * delta + 2), 2) + 8)

    if which is BoundId.EQ5:
        if g is None or g < 6:
            return _not_applicable(which, "girth >= 6 (C4- and C5-free) required")
        return BoundResult(which, Fraction(9 * _ceil_div(n, 2 * delta * delta - 5 * delta + 5), 2) + 8)

    if which is BoundId.EQ6:
        if Delta is None:
            return _not_applicable(which, "maximum degree not provided")
        if delta < 2:
            return _not_applicable(which, "minimum degree delta >= 2 required")
        value = (Fraction(9 * (n - Delta - 1), 4 * (delta + 1))
                 * (1 + Fraction(Delta - delta, 3 * n)) + 7)
        return BoundResult(which, value)

    if which is BoundId.EQ7:
        if Delta is None:
            return _not_applicable(which, "maximum degree not provided")
        if g is None or g < 4:
            return _not_applicable(which, "girth >= 4 (triangle-free) required")
        value = (Fraction(3 * (n - Delta), 2 * delta)
                 * (1 + Fraction(Delta - delta, 3 * n)) + Fraction(19, 2))
        return BoundResult(which, value)

    if which is BoundId.EQ8:
        if Delta is None:
            return _not_applicable(which, "maximum degree not provided")
        if g is None or g < 5:
            return _not_applicable(which, "girth >= 5 (triangle- and C4-free) required")
        eps_D = _eps(Delta, delta)
        eps_d = _eps(delta, delta)
        value = (Fraction(15, 4) * Fraction(n - eps_D + eps_d, eps_d)
                 * (1 + Fraction(eps_D - eps_d, 3 * n)) + Fraction(37, 4))
        return BoundResult(which, value,
                           constants={"eps_Delta": Fraction(eps_D), "eps_delta": Fraction(eps_d)})

    raise ValueError(f"{which} is not a legacy bound id")


def lower_bound_chain(p: GraphParams, k: int) -> Fraction:
    """Lower bound on the average eccentricity of a k-copy Moore chain.

    ``3gn/(4K) - g + 1/2`` for odd girth, ``3gn/(4L) - g + 3/2`` for even.
    The order must be exactly ``k`` times the Moore order.
    """
    if p.g is None:
        raise ValueError("girth required")
    if k < 1:
        raise ValueError("copy count must be positive")
    order = moore_order(p.delta, p.g)
    tail = Fraction(1, 2) if p.g % 2 else Fraction(3, 2)
    if p.n != k * order:
        raise ValueError(f"order n={p.n} is not {k} copies of the Moore order {order}")
    return Fraction(3 * p.g * p.n, 4 * order) - p.g + tail


def girth6_reduction_forms(p: GraphParams) -> tuple[Fraction, Fraction]:
    """Both displayed girth-6 specializations of the even bound.

    Returns ``(middle, right)``: the ceiling over ``n(delta-2)/(2((delta-1)^3-1))``
    and over ``n/(2(delta^2-delta+1))``.  Since ``(delta-1)^3 - 1`` factors as
    ``(delta-2)(delta^2-delta+1)`` the two are identical; both are reported so
    a consumer can confirm that.
    """
    if p.delta < 3:
        raise ValueError("minimum degree >= 3 required")
    n, d = p.n, p.delta
    middle = Fraction(9, 2) * _ceil_div(n * (d - 2), 2 * ((d - 1) ** 3 - 1)) + 7
    right = Fraction(9, 2) * _ceil_div(n, 2 * (d * d - d + 1)) + 7
    return middle, right


# the girth bounds come in parity pairs: an evaluator answers with the id of
# the girth's parity, and the other id of its pair is reported not applicable;
# evaluate_all calls each evaluator once for both ids
_GIRTH_BOUND_EVALUATORS = {
    BoundId.THM_GIRTH_ODD: (bound_thm_girth, "odd"),
    BoundId.THM_GIRTH_EVEN: (bound_thm_girth, "even"),
    BoundId.THM_GIRTH_MAXDEG_ODD: (bound_thm_girth_maxdeg, "odd"),
    BoundId.THM_GIRTH_MAXDEG_EVEN: (bound_thm_girth_maxdeg, "even"),
}


def evaluate_all(g: Graph | Measured) -> list[BoundResult]:
    """Evaluate every upper bound at the measured (n, delta, Delta, girth).

    A :class:`Graph` is measured first; a :class:`Measured` is used as is.
    Each result carries ``satisfied = (avec <= value)`` when applicable, so a
    corpus report is self-contained.
    """
    m = g if isinstance(g, Measured) else measure(g)
    p = m.params
    results: list[BoundResult] = []
    answers: dict = {}
    for bid in UPPER_BOUND_IDS:
        if bid in _GIRTH_BOUND_EVALUATORS:
            evaluator, parity = _GIRTH_BOUND_EVALUATORS[bid]
            if evaluator not in answers:
                answers[evaluator] = evaluator(p)
            r = answers[evaluator]
            if r.bound is not bid:
                r = _not_applicable(bid, f"girth is not {parity}"
                                    if p.g is not None else "girth undefined (forest)")
        else:
            r = bound_legacy(p, bid)
        results.append(r.with_avec(m.profile.avec))
    return results
