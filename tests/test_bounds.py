"""Bound evaluators: Moore orders, girth bounds, legacy bounds, dispatch."""
from __future__ import annotations

import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eccbounds as eb
from eccbounds.bounds import (
    UPPER_BOUND_IDS,
    BoundId,
    GraphParams,
    bound_legacy,
    bound_thm_girth,
    bound_thm_girth_maxdeg,
    evaluate_all,
    lower_bound_chain,
    maxdeg_bound_value,
    maxdeg_constants,
    measure,
    moore_order,
)
from conftest import bound_value_oracle, maxdeg_constants_oracle, moore_order_oracle


# ---------------------------------------------------------------------------
# Moore orders

def test_moore_order_odd_values():
    assert moore_order(3, 3) == 4          # delta + 1
    assert moore_order(3, 5) == 10         # Petersen order
    assert moore_order(3, 7) == 22
    assert moore_order(7, 5) == 50         # Hoffman-Singleton order


def test_moore_order_even_values():
    assert moore_order(3, 4) == 6          # 2*delta
    assert moore_order(3, 6) == 14         # Heawood order
    assert moore_order(4, 4) == 8


def test_moore_order_guards():
    with pytest.raises(ValueError, match="singular"):
        moore_order(2, 5)
    for g in (2, 1, 0):
        with pytest.raises(ValueError, match="girth >= 3"):
            moore_order(3, g)


def test_moore_orders_always_integral():
    # the (delta-2) denominators always divide out
    for delta in range(3, 21):
        for g in range(3, 13):
            assert isinstance(moore_order(delta, g), int)


def test_moore_order_and_maxdeg_constants_equal_the_inline_formulas():
    for delta in range(3, 13):
        for g in range(3, 13):
            assert moore_order(delta, g) == moore_order_oracle(delta, g), (delta, g)
            for Delta in range(delta, delta + 5):
                assert maxdeg_constants(delta, Delta, g) == \
                    maxdeg_constants_oracle(delta, Delta, g), (delta, Delta, g)


def test_moore_order_rejects_delta_below_three():
    for g in (3, 4, 5, 6):
        with pytest.raises(ValueError, match="singular"):
            moore_order(2, g)


# ---------------------------------------------------------------------------
# girth bound

def test_thm_girth_odd_petersen_params():
    r = bound_thm_girth(GraphParams(n=10, delta=3, g=5))
    assert r.applicable and r.value == F(37, 4)
    assert r.constants == {"K": F(10)}
    assert r.bound is BoundId.THM_GIRTH_ODD


def test_thm_girth_even_values():
    assert bound_thm_girth(GraphParams(n=6, delta=3, g=4)).value == 7
    assert bound_thm_girth(GraphParams(n=14, delta=3, g=6)).value == F(23, 2)


def test_thm_girth_requires_delta3():
    r = bound_thm_girth(GraphParams(n=6, delta=2, g=6))
    assert not r.applicable and "delta >= 3" in r.reason


def test_thm_girth_forest_inapplicable():
    r = bound_thm_girth(GraphParams(n=6, delta=1, g=None))
    assert not r.applicable


# ---------------------------------------------------------------------------
# max-degree variant

def test_maxdeg_odd_worked_example():
    r = bound_thm_girth_maxdeg(GraphParams(n=100, delta=3, Delta=5, g=5))
    assert r.value == F(4513, 100)
    assert r.constants == {"K1": F(10), "K2": F(16)}


def test_maxdeg_collapses_when_degrees_equal():
    for delta in range(3, 21):
        for g in range(3, 13):
            n = 20 * delta ** (g // 2)  # comfortably above K2/L2
            r = bound_thm_girth_maxdeg(GraphParams(n=n, delta=delta, Delta=delta, g=g))
            if g % 2:
                assert r.constants["K1"] == r.constants["K2"]
            else:
                assert r.constants["L1"] == r.constants["L2"]


def test_maxdeg_even_l1_l2_example():
    r = bound_thm_girth_maxdeg(GraphParams(n=100, delta=3, Delta=3, g=6))
    assert r.constants == {"L1": F(7), "L2": F(7)}


def test_maxdeg_small_order_inapplicable():
    r = bound_thm_girth_maxdeg(GraphParams(n=10, delta=3, Delta=3, g=5))
    assert not r.applicable and "exceed K2" in r.reason


def test_maxdeg_matches_plain_bound_shape_when_delta_equals_Delta():
    # with Delta = delta the correction factor collapses to 1
    p = GraphParams(n=200, delta=3, Delta=3, g=5)
    r = bound_thm_girth_maxdeg(p)
    k = moore_order(3, 5)
    assert r.value == F(15, 4) * F(200 - k, k) + 13


@pytest.mark.parametrize("graph, final_bound", [
    (eb.petersen_graph(), 13), (eb.complete_graph(4), 7), (eb.hoffman_singleton_graph(), 13),
], ids=["petersen", "K4", "hoffman-singleton"])
def test_moore_graph_certificate_states_the_ungated_maxdeg_form(graph, final_bound):
    # n == K2 on an odd Moore graph: the evaluator declines, the certificate
    # still carries the closed form at K1 = K2 = n
    p = measure(graph).params
    r = bound_thm_girth_maxdeg(p)
    assert not r.applicable and "exceed K2" in r.reason
    k1, k2 = maxdeg_constants(p.delta, p.Delta, p.g).values()
    assert k1 == k2 == p.n
    cert = eb.certify_odd(graph, use_max_degree=True)
    assert cert.all_steps_hold
    assert cert.chain["finalBound"] == maxdeg_bound_value(p.n, p.g, k1, k2) == final_bound


def test_maxdeg_monotone_in_Delta():
    # for fixed n, g, delta the value never increases as Delta grows,
    # across the regime n >= 3*K2 the statement is made for
    for delta in (3, 4, 5):
        for g in (3, 5, 7):
            for n in (500, 2000, 10000):
                prev = None
                for Delta in range(delta, delta + 12):
                    r = bound_thm_girth_maxdeg(GraphParams(n=n, delta=delta, Delta=Delta, g=g))
                    if not r.applicable or n < 3 * r.constants["K2"]:
                        break
                    if prev is not None:
                        assert r.value <= prev, (delta, g, n, Delta)
                    prev = r.value


# ---------------------------------------------------------------------------
# legacy bounds

def test_eq1_worked_example():
    assert bound_legacy(GraphParams(n=20, delta=3), BoundId.EQ1).value == 15


def test_eq2_worked_example():
    assert bound_legacy(GraphParams(n=12, delta=3, g=4), BoundId.EQ2).value == 11


def test_eq8_collapses_at_equal_degrees():
    r = bound_legacy(GraphParams(n=16, delta=3, Delta=3, g=5), BoundId.EQ8)
    assert r.constants == {"eps_Delta": F(8), "eps_delta": F(8)}
    assert r.value == F(15, 4) * F(16, 8) + F(37, 4)


def test_legacy_applicability_gates():
    p_tri = GraphParams(n=20, delta=3, Delta=4, g=3)
    assert not bound_legacy(p_tri, BoundId.EQ2).applicable
    assert not bound_legacy(p_tri, BoundId.EQ3).applicable
    assert not bound_legacy(p_tri, BoundId.EQ4).applicable
    assert not bound_legacy(p_tri, BoundId.EQ5).applicable
    assert bound_legacy(p_tri, BoundId.EQ1).applicable
    assert bound_legacy(p_tri, BoundId.EQ6).applicable
    p5 = GraphParams(n=20, delta=3, Delta=4, g=5)
    assert bound_legacy(p5, BoundId.EQ3).applicable
    assert bound_legacy(p5, BoundId.EQ8).applicable
    assert not bound_legacy(p5, BoundId.EQ4).applicable
    p6 = GraphParams(n=20, delta=3, Delta=4, g=6)
    assert bound_legacy(p6, BoundId.EQ4).applicable
    assert bound_legacy(p6, BoundId.EQ5).applicable
    no_delta = GraphParams(n=20, delta=3, g=5)
    assert not bound_legacy(no_delta, BoundId.EQ6).applicable
    assert not bound_legacy(no_delta, BoundId.EQ8).applicable


@pytest.mark.parametrize("bid", [BoundId.EQ2, BoundId.EQ7])
def test_eq2_and_eq7_need_minimum_degree_one(bid):
    # both divide by delta; at delta = 0 they are not applicable, not a crash
    r = bound_legacy(GraphParams(n=5, delta=0, Delta=2, g=4), bid)
    assert (r.bound, r.value, r.applicable, r.reason) == \
        (bid, None, False, "minimum degree delta >= 1 required")
    # the earlier gates keep their reasons
    assert bound_legacy(GraphParams(n=5, delta=0, Delta=2, g=3), bid).reason == \
        "girth >= 4 (triangle-free) required"
    assert bound_legacy(GraphParams(n=5, delta=0, Delta=2, g=4), bid.value).reason == \
        "minimum degree delta >= 1 required"


def test_eq1_available_at_delta_2():
    assert bound_legacy(GraphParams(n=6, delta=2, g=6), BoundId.EQ1).applicable


def test_bound_legacy_takes_an_id_or_its_string():
    p = GraphParams(n=20, delta=3, Delta=4, g=6)
    for bid in (b for b in BoundId if b.value.startswith("Eq")):
        assert bound_legacy(p, bid.value) == bound_legacy(p, bid)
    assert bound_legacy(p, "Eq3").bound is BoundId.EQ3


@pytest.mark.parametrize("which, named", [
    ("Eq9", "Eq9"),
    ("eq3", "eq3"),
    (BoundId.THM_GIRTH_ODD, "THM_GIRTH_ODD|ThmGirthOdd"),
])
def test_bound_legacy_rejects_other_ids_by_name(which, named):
    with pytest.raises(ValueError, match=f"({named}) is not a legacy bound id"):
        bound_legacy(GraphParams(n=20, delta=3, g=5), which)


# ---------------------------------------------------------------------------
# reduction identities (spot checks; the exhaustive sweep is in acceptance)

def test_girth3_closed_form():
    for n in (4, 17, 100, 999):
        v = bound_thm_girth(GraphParams(n=n, delta=3, g=3)).value
        assert v == F(9, 4) * -(-n // 4) + F(5, 2)


def test_girth3_below_eq1_plus_one():
    # the true universal relationship between the two bounds
    for delta in (3, 7, 20):
        for n in range(delta + 1, 400):
            p = GraphParams(n=n, delta=delta, g=3)
            assert bound_thm_girth(p).value < bound_legacy(p, BoundId.EQ1).value + 1


def test_girth4_equals_eq2_minus_one():
    for delta in (3, 5, 11):
        for n in (delta * 2, 37, 200, 1001):
            p = GraphParams(n=n, delta=delta, g=4)
            assert bound_thm_girth(p).value == bound_legacy(p, BoundId.EQ2).value - 1


def test_girth5_closed_form():
    for delta in (3, 4, 9):
        for n in (30, 100, 777):
            v = bound_thm_girth(GraphParams(n=n, delta=delta, g=5)).value
            assert v == F(15, 4) * -(-n // (delta * delta + 1)) + F(11, 2)


def test_girth6_reduction_forms_agree():
    # the two displayed girth-6 forms, over n(delta-2)/(2((delta-1)^3-1)) and
    # over n/(2(delta^2-delta+1)), agree since (delta-1)^3 - 1 factors as
    # (delta-2)(delta^2-delta+1)
    for delta in range(3, 30):
        for n in (50, 333, 5000):
            middle = F(9, 2) * -(-n * (delta - 2) // (2 * ((delta - 1) ** 3 - 1))) + 7
            right = F(9, 2) * -(-n // (2 * (delta * delta - delta + 1))) + 7
            assert middle == right
            assert middle == bound_thm_girth(GraphParams(n=n, delta=delta, g=6)).value


# ---------------------------------------------------------------------------
# chain lower bounds

def test_lower_bound_chain_values():
    assert lower_bound_chain(GraphParams(n=20, delta=3, g=5), 2) == 3
    assert lower_bound_chain(GraphParams(n=40, delta=3, g=5), 4) == F(21, 2)
    assert lower_bound_chain(GraphParams(n=28, delta=3, g=6), 2) == F(9, 2)


def test_lower_bound_chain_order_mismatch():
    with pytest.raises(ValueError, match="not 2 copies"):
        lower_bound_chain(GraphParams(n=21, delta=3, g=5), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: lower_bound_chain(GraphParams(n=20, delta=3, g=5), 0),
     "copy count must be positive"),
], ids=["chain-no-copies"])
def test_input_validation_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# dispatcher

def test_evaluate_all_petersen():
    results = {r.bound: r for r in evaluate_all(eb.petersen_graph())}
    thm = results[BoundId.THM_GIRTH_ODD]
    assert thm.applicable and thm.value == F(37, 4) and thm.satisfied
    assert not results[BoundId.EQ4].applicable
    assert all(r.satisfied for r in results.values() if r.applicable)


def test_evaluate_all_calls_each_girth_evaluator_once(monkeypatch):
    import eccbounds.bounds as bounds

    calls = {}

    def counted(f):
        def wrapper(p):
            calls[f.__name__] = calls.get(f.__name__, 0) + 1
            return f(p)
        return wrapper

    for f in (bound_thm_girth, bound_thm_girth_maxdeg):
        monkeypatch.setattr(bounds, f.__name__, counted(f))
    evaluate_all(eb.petersen_graph())
    assert calls == {"bound_thm_girth": 1, "bound_thm_girth_maxdeg": 1}


def test_evaluate_all_k4():
    results = {r.bound: r for r in evaluate_all(eb.complete_graph(4))}
    assert results[BoundId.EQ1].applicable and results[BoundId.EQ1].satisfied
    assert results[BoundId.THM_GIRTH_ODD].applicable
    assert results[BoundId.THM_GIRTH_ODD].value == F(19, 4)
    assert not results[BoundId.EQ4].applicable


def test_evaluate_all_c6():
    results = {r.bound: r for r in evaluate_all(eb.cycle_graph(6))}
    assert not results[BoundId.THM_GIRTH_EVEN].applicable
    assert "delta >= 3" in results[BoundId.THM_GIRTH_EVEN].reason
    assert results[BoundId.EQ1].applicable and results[BoundId.EQ1].satisfied


def test_evaluate_all_tree():
    results = evaluate_all(eb.path_graph(6))
    assert all(not r.applicable for r in results)


def test_evaluate_all_sound_on_named(small_graphs):
    for name, g in small_graphs:
        if g.n < 2:
            continue
        for r in evaluate_all(g):
            if r.applicable:
                assert r.satisfied, (name, r.bound)


# ---------------------------------------------------------------------------
# serialization

def test_bound_result_json_round_trip():
    r = bound_thm_girth(GraphParams(n=10, delta=3, g=5)).with_avec(F(2))
    d = r.to_json_dict()
    assert d["bound"] == "ThmGirthOdd"
    assert d["value"] == "37/4"
    assert d["constants"] == {"K": "10"}
    assert d["applicable"] is True and d["satisfied"] is True
    json.dumps(d)  # must be serializable as-is


def test_graph_params_validation():
    with pytest.raises(ValueError):
        GraphParams(n=5, delta=3, Delta=2)
    with pytest.raises(ValueError):
        GraphParams(n=5, delta=-1)
    with pytest.raises(ValueError):
        GraphParams(n=5, delta=2, g=2)


def test_evaluate_all_single_vertex():
    results = evaluate_all(eb.path_graph(1))
    assert all(not r.applicable for r in results)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, 0), {}, "order must be positive"),
    ((), {"n": 0, "delta": 0}, "order must be positive"),
    ((5, 3, 5), {}, "need delta <= Delta <= n-1"),
    ((), {"n": 5, "delta": 3, "Delta": 5}, "need delta <= Delta <= n-1"),
    ((5, -1), {}, "minimum degree cannot be negative"),
    ((5, 2, None, 2), {}, "girth must be at least 3"),
])
def test_graph_params_validation_messages(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        GraphParams(*args, **kwargs)


def test_equal_graph_params_hash_and_compare_equal():
    a = GraphParams(n=10, delta=3, Delta=4, g=5)
    b = GraphParams(10, 3, 4, 5)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != GraphParams(n=10, delta=3, Delta=4, g=6)
    assert (a.n, a.delta, a.Delta, a.g) == (10, 3, 4, 5)
    with pytest.raises(AttributeError):
        a.n = 11
    assert a._replace(g=6) == GraphParams(n=10, delta=3, Delta=4, g=6)
    with pytest.raises(ValueError, match="order must be positive"):
        a._replace(n=0)


# ---------------------------------------------------------------------------
# the record contract

def test_bound_result_fields_cannot_be_set():
    r = bound_thm_girth(GraphParams(n=10, delta=3, g=5))
    with pytest.raises(AttributeError):
        r.value = F(1)
    assert r.value == F(37, 4)


def test_default_constants_are_read_only_and_not_a_shared_dict():
    r = bound_legacy(GraphParams(n=10, delta=3, g=3), BoundId.EQ4)
    s = bound_legacy(GraphParams(n=10, delta=3, g=3), BoundId.EQ5)
    assert not r.applicable and r.constants == {}
    assert not isinstance(r.constants, dict)
    with pytest.raises(TypeError):
        r.constants["K"] = 1
    assert s.constants == {} and r.to_json_dict()["constants"] == {}


def test_with_avec_returns_a_new_result():
    r = bound_thm_girth(GraphParams(n=10, delta=3, g=5))
    checked = r.with_avec(F(2))
    assert checked is not r and checked.satisfied is True
    assert r.satisfied is None
    assert r.with_avec(F(10)).satisfied is False
    inapplicable = bound_legacy(GraphParams(n=10, delta=3, g=5), BoundId.EQ4)
    assert inapplicable.with_avec(F(2)).satisfied is None


PETERSEN_JSON = [
    {"applicable": True, "bound": "Eq1", "constants": {}, "reason": "",
     "satisfied": True, "value": "75/8"},
    {"applicable": True, "bound": "Eq2", "constants": {}, "reason": "",
     "satisfied": True, "value": "11"},
    {"applicable": True, "bound": "Eq3", "constants": {"eps_delta": "8"}, "reason": "",
     "satisfied": True, "value": "13"},
    {"applicable": False, "bound": "Eq4", "constants": {}, "reason": "girth >= 6 required",
     "satisfied": None, "value": None},
    {"applicable": False, "bound": "Eq5", "constants": {},
     "reason": "girth >= 6 (C4- and C5-free) required", "satisfied": None, "value": None},
    {"applicable": True, "bound": "Eq6", "constants": {}, "reason": "",
     "satisfied": True, "value": "83/8"},
    {"applicable": True, "bound": "Eq7", "constants": {}, "reason": "",
     "satisfied": True, "value": "13"},
    {"applicable": True, "bound": "Eq8", "constants": {"eps_Delta": "8", "eps_delta": "8"},
     "reason": "", "satisfied": True, "value": "223/16"},
    {"applicable": True, "bound": "ThmGirthOdd", "constants": {"K": "10"}, "reason": "",
     "satisfied": True, "value": "37/4"},
    {"applicable": False, "bound": "ThmGirthEven", "constants": {}, "reason": "girth is not even",
     "satisfied": None, "value": None},
    {"applicable": False, "bound": "ThmGirthMaxDegOdd", "constants": {"K1": "10", "K2": "10"},
     "reason": "order n=10 must exceed K2=10", "satisfied": None, "value": None},
    {"applicable": False, "bound": "ThmGirthMaxDegEven", "constants": {},
     "reason": "girth is not even", "satisfied": None, "value": None},
]


def test_to_json_dict_of_each_kind():
    assert [r.to_json_dict() for r in evaluate_all(eb.petersen_graph())] == PETERSEN_JSON
    p = GraphParams(n=100, delta=3, Delta=4, g=6)
    assert [r.with_avec(F(9)).to_json_dict() for r in (
        bound_thm_girth(p), bound_thm_girth_maxdeg(p), bound_legacy(p, BoundId.EQ5))] == [
        {"applicable": True, "bound": "ThmGirthEven", "constants": {"L": "14"}, "reason": "",
         "satisfied": True, "value": "43"},
        {"applicable": True, "bound": "ThmGirthMaxDegEven", "constants": {"L1": "7", "L2": "10"},
         "reason": "", "satisfied": True, "value": "12031/280"},
        {"applicable": True, "bound": "Eq5", "constants": {}, "reason": "",
         "satisfied": True, "value": "133/2"},
    ]


# ---------------------------------------------------------------------------
# every closed form against its stepwise oracle

@st.composite
def bound_params(draw):
    """Parameters across every gate: forests, delta 0..2, no Delta, orders
    at, below and between multiples of the Moore order."""
    delta = draw(st.integers(0, 9))
    g = draw(st.none() | st.integers(3, 12))
    if delta >= 3 and g is not None:
        order = moore_order_oracle(delta, g)
        n = draw(st.integers(1, 30).map(lambda k: k * order)
                 | st.integers(max(1, order - 2), 3 * order)
                 | st.integers(1, 3000))
    else:
        n = draw(st.integers(1, 3000))
    Delta = None
    if delta <= max(n - 1, 0):
        Delta = draw(st.none() | st.integers(delta, min(max(n - 1, 0), delta + 6)))
    return GraphParams(n=n, delta=delta, Delta=Delta, g=g)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _oracle_outcome(bid, p):
    """The stepwise oracle's outcome, with not-applicable where Eq2 and Eq7
    divide by delta = 0: the evaluators gate on delta >= 1 there."""
    want = _outcome(bound_value_oracle, bid, p)
    if want is ZeroDivisionError:
        return bid, None, {}, False, "minimum degree delta >= 1 required"
    return want


@settings(max_examples=400, deadline=None)
@given(bound_params())
def test_property_evaluators_equal_the_stepwise_oracle(p):
    for bid in UPPER_BOUND_IDS:
        if bid.value.startswith("Eq"):
            got = _outcome(bound_legacy, p, bid)
        elif bid in (BoundId.THM_GIRTH_MAXDEG_ODD, BoundId.THM_GIRTH_MAXDEG_EVEN):
            got = _outcome(bound_thm_girth_maxdeg, p)
        else:
            got = _outcome(bound_thm_girth, p)
        want = _oracle_outcome(bid, p)
        if isinstance(want, type):
            assert got is want, (bid, p)  # the same error as the stepwise form
            continue
        bound, value, constants, applicable, reason = want
        assert (got.bound, got.value, got.applicable, got.reason) == \
            (bound, value, applicable, reason), (bid, p)
        assert dict(got.constants) == constants, (bid, p)
        assert got.satisfied is None
        assert isinstance(got.value, F) if applicable else got.value is None
    order = moore_order_oracle(p.delta, p.g) if p.g is not None and p.delta >= 3 else 1
    k = max(1, p.n // order)
    got = _outcome(lower_bound_chain, p, k)
    assert got == _outcome(bound_value_oracle, "LowerChain", p, k), (p, k)
    assert got is ValueError or isinstance(got, F)


@pytest.mark.parametrize("bid", [b for b in UPPER_BOUND_IDS if b.value.startswith("Eq")])
def test_legacy_gates_on_a_grid(bid):
    """Each legacy bound at every girth, delta and Delta floor and on both
    sides of it, so a floor off by one or the gates (Delta, girth, delta)
    checked in another order differ from the stepwise oracle."""
    for g, delta, Delta_given, n in product((None, 3, 4, 5, 6, 7), range(4),
                                            (False, True), (5, 40)):
        p = GraphParams(n=n, delta=delta, Delta=delta + 1 if Delta_given else None, g=g)
        got = bound_legacy(p, bid)
        bound, value, constants, applicable, reason = _oracle_outcome(bid, p)
        assert (got.bound, got.value, got.applicable, got.reason) == \
            (bound, value, applicable, reason), p
        assert dict(got.constants) == constants, p
