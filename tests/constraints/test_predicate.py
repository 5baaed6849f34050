"""Unit tests for predicates."""

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.constraints import ComparisonOperator, Predicate, attribute_operand, parse_operator


def test_selection_predicate_basics():
    predicate = Predicate.equals("cargo.desc", "frozen food")
    assert predicate.is_selection and not predicate.is_join
    assert predicate.constant == "frozen food"
    assert predicate.referenced_classes() == frozenset({"cargo"})
    assert str(predicate) == 'cargo.desc = "frozen food"'


def test_comparison_predicate_basics():
    predicate = Predicate.comparison("driver.licenseClass", ">=", "vehicle.class")
    assert predicate.is_join
    assert predicate.constant is None
    assert predicate.referenced_classes() == frozenset({"driver", "vehicle"})


def test_same_class_comparison_is_not_join():
    predicate = Predicate.comparison("cargo.quantity", ">", "cargo.code")
    assert not predicate.is_join
    assert predicate.referenced_classes() == frozenset({"cargo"})


def test_operator_aliases():
    assert parse_operator("equal") is ComparisonOperator.EQ
    assert parse_operator("greaterThanOrEqualTo") is ComparisonOperator.GE
    assert parse_operator("<>") is ComparisonOperator.NE
    with pytest.raises(ValueError):
        parse_operator("approximately")


def test_operator_apply_and_type_mismatch():
    assert ComparisonOperator.LT.apply(1, 2)
    assert not ComparisonOperator.LT.apply("a", 2)
    assert ComparisonOperator.NE.apply("a", "b")


def test_normalization_orients_attribute_comparisons():
    forward = Predicate.comparison("driver.licenseClass", ">=", "vehicle.class")
    backward = Predicate.comparison("vehicle.class", "<=", "driver.licenseClass")
    assert forward.normalized() == backward.normalized()
    assert forward.key() == backward.key()


def test_negation():
    predicate = Predicate.selection("cargo.quantity", ">", 10)
    negated = predicate.negated()
    assert negated.operator is ComparisonOperator.LE
    assert negated.negated().operator is ComparisonOperator.GT


def test_evaluate_selection():
    predicate = Predicate.equals("cargo.desc", "frozen food")
    assert predicate.evaluate({"cargo": {"desc": "frozen food"}})
    assert not predicate.evaluate({"cargo": {"desc": "textiles"}})
    assert not predicate.evaluate({})
    assert not predicate.evaluate({"cargo": {}})


def test_evaluate_comparison():
    predicate = Predicate.comparison("driver.licenseClass", ">=", "vehicle.class")
    assert predicate.evaluate(
        {"driver": {"licenseClass": 4}, "vehicle": {"class": 3}}
    )
    assert not predicate.evaluate(
        {"driver": {"licenseClass": 2}, "vehicle": {"class": 3}}
    )
    assert not predicate.evaluate({"driver": {"licenseClass": 2}})


def test_substitute_class():
    predicate = Predicate.equals("employee.clearance", "top secret")
    renamed = predicate.substitute_class("employee", "driver")
    assert renamed.left.class_name == "driver"
    assert renamed.references_class("driver")


def test_references_attribute():
    predicate = Predicate.equals("cargo.desc", "frozen food")
    assert predicate.references_attribute("cargo.desc")
    assert not predicate.references_attribute("cargo.quantity")


def test_attribute_operand_parsing():
    operand = attribute_operand("cargo.desc")
    assert operand.qualified_name == "cargo.desc"
    with pytest.raises(ValueError):
        attribute_operand("nodot")
    with pytest.raises(ValueError):
        attribute_operand(".desc")


def _memo_cases():
    return [
        Predicate.equals("cargo.desc", "frozen food"),
        # Already canonical: the smaller attribute is on the left.
        Predicate.comparison("driver.licenseClass", "<=", "vehicle.class"),
        # Flipped on normalization.
        Predicate.comparison("vehicle.class", ">=", "driver.licenseClass"),
        Predicate.comparison("cargo.quantity", ">", "cargo.code"),
    ]


def _exercise(predicate):
    return (
        predicate.normalized(),
        predicate.key(),
        predicate.referenced_classes(),
    )


def test_memoized_answers_match_a_fresh_predicate():
    for predicate in _memo_cases():
        first = _exercise(predicate)
        again = _exercise(predicate)
        fresh = dataclasses.replace(predicate)
        assert again[0] is first[0]
        assert again[1] is first[1]
        assert again[2] is first[2]
        assert first == _exercise(fresh)
    canonical, flipped = _memo_cases()[1:3]
    assert canonical.normalized() is canonical
    assert flipped.normalized() == canonical
    assert flipped.normalized().normalized() is flipped.normalized()
    assert flipped.key() == canonical.key()


def test_memo_holds_no_reference_to_its_own_predicate():
    """A self-reference would make every parsed predicate cyclic garbage."""
    for predicate in _memo_cases():
        _exercise(predicate)
        referents = gc.get_referents(predicate.__dict__)
        assert not any(item is predicate for item in referents)
        nested = [
            inner
            for item in referents
            if isinstance(item, tuple)
            for inner in gc.get_referents(item)
        ]
        assert not any(item is predicate for item in nested)


def test_memo_is_invisible_to_equality_hash_repr_fields_and_pickle():
    for predicate in _memo_cases():
        fresh = dataclasses.replace(predicate)
        before = (repr(predicate), hash(predicate), pickle.dumps(predicate))
        _exercise(predicate)
        assert (repr(predicate), hash(predicate), pickle.dumps(predicate)) == before
        assert predicate == fresh and hash(predicate) == hash(fresh)
        assert pickle.dumps(predicate) == pickle.dumps(fresh)
        assert [field.name for field in dataclasses.fields(predicate)] == [
            "left",
            "operator",
            "right",
        ]
        assert set(dataclasses.asdict(predicate)) == {"left", "operator", "right"}
        for clone in (pickle.loads(pickle.dumps(predicate)), copy.deepcopy(predicate)):
            assert clone == predicate
            assert set(vars(clone)) == {"left", "operator", "right"}
            assert _exercise(clone) == _exercise(predicate)
