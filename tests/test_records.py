"""The record contract: every immutable record of the package keeps its
field order, keyword construction, equality, hash, repr and read-only
attributes.  Each is a named tuple, so it also equals the plain tuple of its
fields and unpacks into them.

Each record is built from two samples, ``a`` and ``b``, that differ in every
field; the fields are listed in declaration order.
"""
from __future__ import annotations

from fractions import Fraction as F
from types import MappingProxyType

import pytest

import eccbounds as eb
from eccbounds.bounds import BoundResult, GraphParams
from eccbounds.certify import ChainStep, StructuralCheck, _Certificate

PATH2 = eb.Graph(n=2, edges=((0, 1),), adj=((1,), (0,)))
PATH3 = eb.Graph(n=3, edges=((0, 1), (1, 2)), adj=((1,), (0, 2), (1,)))
CONFIG = eb.GeneratorConfig(n=10, delta=3, g=5, seed=1)


def _certificate_fields(k):
    """The fields both certificates share, sample ``k`` (0 or 1)."""
    return dict(
        tree=(PATH2, PATH3)[k],
        connector_edges=(((0, 1),), ())[k],
        assignment=((0, 0), (1, 1, 1))[k],
        use_max_degree=(False, True)[k],
        girth_value=(5, 6)[k],
        constants=({"K": 10}, {"L": 14})[k],
        chain=({"avecG": F(3, 2)}, {"avecG": F(5, 3)})[k],
        steps=((ChainStep("s", F(1), F(2), True),), ())[k],
        checks=((StructuralCheck("c", True),), (StructuralCheck("c", False, "x"),))[k],
        bound_id=("ThmGirthOdd", "ThmGirthEven")[k],
    )


# name -> (class, sample a, sample b)
RECORDS = {
    "Graph": (eb.Graph, dict(n=2, edges=((0, 1),), adj=((1,), (0,))),
              dict(n=3, edges=((0, 1), (1, 2)), adj=((1,), (0, 2), (1,)))),
    "EccentricityProfile": (
        eb.EccentricityProfile, dict(ecc=(1, 1), total=2, avec=F(1), radius=1, diameter=1),
        dict(ecc=(2, 1, 2), total=5, avec=F(5, 3), radius=0, diameter=2)),
    "WeightFunction": (eb.WeightFunction, dict(weights=(1, F(1, 2))), dict(weights=(2,))),
    "GraphParams": (GraphParams, dict(n=12, delta=2, Delta=4, g=None),
                    dict(n=10, delta=3, Delta=5, g=5)),
    "Measured": (
        eb.Measured,
        dict(graph=PATH2, profile=eb.eccentricity_profile(PATH2), params=GraphParams(2, 1, 1)),
        dict(graph=PATH3, profile=eb.eccentricity_profile(PATH3), params=GraphParams(3, 1, 2))),
    "BoundResult": (
        BoundResult, dict(bound=eb.BoundId.EQ1, value=F(7, 2), constants=MappingProxyType({"K": 4}),
                          applicable=True, reason="", satisfied=True),
        dict(bound=eb.BoundId.THM_GIRTH_ODD, value=None, constants=MappingProxyType({}),
             applicable=False, reason="needs g", satisfied=None)),
    "ChainStep": (ChainStep, dict(name="a<=b", lhs=F(1), rhs=F(2), holds=True),
                  dict(name="b<=a", lhs=F(3), rhs=F(1, 2), holds=False)),
    "StructuralCheck": (StructuralCheck, dict(name="spacing", ok=True, detail=""),
                        dict(name="coverage", ok=False, detail="max dist 4")),
    "PackingCertificate": (
        eb.PackingCertificate,
        _certificate_fields(0) | dict(members=(0,), weights={0: 2},
                                      normalized_weights={0: F(1, 5)}),
        _certificate_fields(1) | dict(members=(1, 2), weights={1: 1, 2: 2},
                                      normalized_weights={1: F(1, 10), 2: F(1, 5)})),
    "MatchingCertificate": (
        eb.MatchingCertificate,
        _certificate_fields(0) | dict(members=((0, 1),), vertex_weights={0: 1, 1: 1},
                                      edge_weights={(0, 1): 2},
                                      normalized_edge_weights={(0, 1): F(1, 7)}, line=PATH2),
        _certificate_fields(1) | dict(members=((1, 2),), vertex_weights={1: 2, 2: 1},
                                      edge_weights={(1, 2): 3},
                                      normalized_edge_weights={(1, 2): F(3, 14)}, line=PATH3)),
    "MooreSpec": (eb.MooreSpec, dict(delta=3, g=5, order=10, diameter=2, source="Petersen"),
                  dict(delta=7, g=6, order=114, diameter=3, source="Other")),
    "ChainSpec": (eb.ChainSpec, dict(delta=3, g=5, k=2, base_order=10, link_edges=((10, 4),),
                                     deleted_edges=()),
                  dict(delta=4, g=6, k=3, base_order=26, link_edges=((26, 3), (52, 29)),
                       deleted_edges=((26, 29),))),
    "SharpnessRow": (
        eb.SharpnessRow, dict(k=1, n=10, avec=F(2), lower=F(1), upper=F(37, 4),
                              gap_to_upper=F(29, 4), gap_ok=True),
        dict(k=2, n=20, avec=F(3), lower=F(2), upper=F(10), gap_to_upper=F(7), gap_ok=False)),
    "GeneratorConfig": (eb.GeneratorConfig, dict(n=10, delta=3, g=5, seed=1, max_restarts=50),
                        dict(n=12, delta=4, g=6, seed=2, max_restarts=3)),
    "GenerationFailure": (
        eb.GenerationFailure, dict(config=CONFIG, restarts=50, attempts=900, reason="stuck"),
        dict(config=eb.GeneratorConfig(n=10, delta=3, g=5, seed=2), restarts=1, attempts=3,
             reason="other")),
}
# the certificates' dict fields, and BoundResult's mapping proxy of a dict
UNHASHABLE = {"PackingCertificate", "MatchingCertificate", "BoundResult"}
# name -> _field_defaults, for the records that have any
DEFAULTS = {
    "GraphParams": {"Delta": None, "g": None},
    "BoundResult": {"constants": MappingProxyType({}), "applicable": True, "reason": "",
                    "satisfied": None},
    "StructuralCheck": {"detail": ""},
    "GeneratorConfig": {"max_restarts": 50},
}


@pytest.mark.parametrize("name", RECORDS)
def test_keyword_and_positional_construction_agree_in_field_order(name):
    cls, a, _ = RECORDS[name]
    r = cls(**a)
    assert [getattr(r, field) for field in a] == list(a.values())
    assert cls(*a.values()) == r


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_the_tuple_of_its_fields(name):
    cls, a, _ = RECORDS[name]
    r = cls(**a)
    assert r == tuple(a.values()) and [*r] == list(a.values())
    assert r._fields == tuple(a)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_and_one_field_apart(name):
    cls, a, b = RECORDS[name]
    assert cls(**a) == cls(**a) and not cls(**a) != cls(**a)
    for field in a:
        assert cls(**a | {field: b[field]}) != cls(**a), field


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_hash_of_the_field_tuple(name):
    cls, a, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(cls(**a))
        return
    assert hash(cls(**a)) == hash(cls(**a)) == hash(tuple(a.values()))
    assert len({cls(**a), cls(**a)}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    cls, a, b = RECORDS[name]
    r = cls(**a)
    for field in a:
        with pytest.raises(AttributeError):
            setattr(r, field, b[field])
        with pytest.raises(AttributeError):
            delattr(r, field)
    with pytest.raises(AttributeError):
        r.not_a_field = 1
    assert [getattr(r, field) for field in a] == list(a.values())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class_and_every_field(name):
    cls, a, _ = RECORDS[name]
    assert repr(cls(**a)) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in a.items()) + ")"


def test_defaults():
    assert {name: cls._field_defaults for name, (cls, _, _) in RECORDS.items()
            if cls._field_defaults} == DEFAULTS
    assert StructuralCheck("spacing", True).detail == ""
    assert StructuralCheck(name="spacing", ok=True) == StructuralCheck("spacing", True, "")
    assert eb.GeneratorConfig(n=10, delta=3, g=5, seed=1).max_restarts == 50


def test_weight_function_rejects_a_negative_weight():
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        eb.WeightFunction(weights=(1, -1))
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        eb.WeightFunction((F(-1, 2),))
    w = eb.WeightFunction((F(1),) * 3)
    assert w.total == 3
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        w._replace(weights=(F(1), F(-1)))
    assert w._replace(weights=(0, 2)) == eb.WeightFunction((0, 2))


@pytest.mark.parametrize("name", ["PackingCertificate", "MatchingCertificate"])
def test_certificates_share_the_verdict_and_keys(name):
    cls, a, b = RECORDS[name]
    assert issubclass(cls, _Certificate)
    assert cls(**a).all_steps_hold and not cls(**b).all_steps_hold
    d = cls(**a).to_json_dict()
    assert {"useMaxDeg", "girth", "boundId", "treeEdges", "steps", "checks",
            "allStepsHold"} <= d.keys()
    assert d["variant"] == ("odd" if name == "PackingCertificate" else "even")
    assert "to_json" in cls.__dict__
