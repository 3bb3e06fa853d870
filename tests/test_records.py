"""Value semantics of the package's records, and copy/pickle round trips of
every public value type."""

import copy
import pickle
from fractions import Fraction as Q

import pytest

from crnf.equivalence import RadicalReal, TubeWitness, tube_equivalent
from crnf.errors import StructuralError
from crnf.hypersurface import Hypersurface, ModelInfo, PrenormalizationRecord
from crnf.normalize import NormalFormKind, NormalizationResult, Violation, t_normalize
from crnf.record import Record
from crnf.series import ComplexSeries, GaussRat, HoloSeries, RealSeries
from crnf.symmetry import AutClass, RootRotation, classify_aut
from crnf.transform import FormalMap, LinearFactor

H3 = Hypersurface.validate(RealSeries(3, 6, {(3, 0, 0): 1, (2, 2, 0): Q(1, 2)}), 3)
T3 = FormalMap.identity(3, 6)

# (record, its fields in order, the repr the record prints)
RECORDS = {
    "LinearFactor": (
        LinearFactor(2, 1), {"delta": Q(2), "rot": 1},
        "LinearFactor(delta=Fraction(2, 1), rot=1)"),
    "NormalFormKind": (
        NormalFormKind.t_normal_ab(1, 2), {"tag": "t-ab", "A": Q(1), "B": Q(2)},
        "NormalFormKind(tag='t-ab', A=Fraction(1, 1), B=Fraction(2, 1))"),
    "Violation": (
        Violation("X[0,l]", (0, 6, 0), Q(1, 2)),
        {"family": "X[0,l]", "key": (0, 6, 0), "value": Q(1, 2)},
        "Violation(family='X[0,l]', key=(0, 6, 0), value=Fraction(1, 2))"),
    "NormalizationResult": (
        NormalizationResult(H3, T3, ((4, 2, 2),)),
        {"H_normal": H3, "T": T3, "per_weight_report": ((4, 2, 2),)},
        "NormalizationResult(H_normal=Hypersurface(k=3, N=6, 2 terms, "
        "tube_form=True), T=FormalMap(k=3, N=6, |f|=0, |g|=0, "
        "linear=LinearFactor(delta=Fraction(1, 1), rot=0)), "
        "per_weight_report=((4, 2, 2),))"),
    "ModelInfo": (
        ModelInfo(4, 1, 2, True, GaussRat(1), 0, Q(1, 16)),
        {"k": 4, "e": 1, "L": 2, "is_tube": True, "rho": GaussRat(1),
         "alpha_pow": 0, "lam": Q(1, 16)},
        "ModelInfo(k=4, e=1, L=2, is_tube=True, rho=GaussRat(Fraction(1, 1), "
        "Fraction(0, 1)), alpha_pow=0, lam=Fraction(1, 16))"),
    "PrenormalizationRecord": (
        PrenormalizationRecord(1, Q(1, 8), GaussRat(0, 1)),
        {"rot": 1, "w_scale": Q(1, 8), "harmonic": GaussRat(0, 1)},
        "PrenormalizationRecord(rot=1, w_scale=Fraction(1, 8), "
        "harmonic=GaussRat(Fraction(0, 1), Fraction(1, 1)))"),
    "RadicalReal": (
        RadicalReal(Q(2), 3, -1), {"base": Q(2), "root_index": 3, "sign": -1},
        "-(2)^(1/3)"),
    "TubeWitness": (
        TubeWitness(RadicalReal(Q(2), 2, 1), None, Q(3), (Q(1), Q(0)), False,
                    (1, 0, 2, 0, 1), 8),
        {"a": RadicalReal(Q(2), 2, 1), "b": None, "c": Q(3),
         "b_parts": (Q(1), Q(0)), "sign_ambiguous": False,
         "factors": (1, 0, 2, 0, 1), "N": 8},
        "TubeWitness(a=(2)^(1/2), b=None, c=Fraction(3, 1), "
        "b_parts=(Fraction(1, 1), Fraction(0, 1)), sign_ambiguous=False, "
        "factors=(1, 0, 2, 0, 1), N=8)"),
    "RootRotation": (
        RootRotation(6, 5, 2), {"order": 6, "power": 5, "delta": Q(2)},
        "RootRotation(order=6, power=5, delta=Fraction(2, 1))"),
    "AutClass": (
        AutClass("Circle", None, (RootRotation(4),), True),
        {"tag": "Circle", "m": None, "evidence": (RootRotation(4),),
         "conditional": True},
        "AutClass(tag='Circle', m=None, evidence=(RootRotation(order=4, "
        "power=1, delta=Fraction(1, 1)),), conditional=True)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_fields_and_repr(self, name):
        rec, fields, text = RECORDS[name]
        assert type(rec).__name__ == name
        assert {f: getattr(rec, f) for f in fields} == fields
        assert repr(rec) == text

    def test_keyword_construction_equals_positional(self, name):
        rec, fields, _ = RECORDS[name]
        again = type(rec)(**fields)
        assert again == rec and not again != rec
        assert type(rec)(*fields.values()) == rec

    def test_equality_is_on_fields_and_class(self, name):
        rec, fields, _ = RECORDS[name]
        assert rec != tuple(fields.values())
        assert rec != object()

        class Other(Record):
            __slots__ = tuple(fields)
        assert Other(**fields) != rec

    def test_hash_is_the_hash_of_the_fields(self, name):
        rec, fields, _ = RECORDS[name]
        values = tuple(fields.values())
        try:
            expected = hash(values)
        except TypeError:
            # a field is unhashable (a Hypersurface), so the record is too
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == expected
            assert hash(type(rec)(**fields)) == expected

    def test_fields_are_read_only(self, name):
        rec, fields, _ = RECORDS[name]
        for f in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                setattr(rec, f, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
                delattr(rec, f)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert {f: getattr(rec, f) for f in fields} == fields

    def test_bad_calls_raise_type_error(self, name):
        rec, fields, _ = RECORDS[name]
        cls, values = type(rec), list(fields.values())
        first = next(iter(fields))
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match="were given"):
            cls(*values, 0)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*values, **{first: values[0]})
        if name != "LinearFactor":  # every field of LinearFactor has a default
            with pytest.raises(TypeError, match=f"missing required arguments: '{first}'"):
                cls()


class TestDefaultsAndValidation:
    def test_defaults(self):
        assert LinearFactor() == LinearFactor(Q(1), 0)
        assert LinearFactor(rot=5) == LinearFactor(1, 1)
        assert NormalFormKind("t") == NormalFormKind("t", None, None)
        assert RootRotation(4) == RootRotation(order=4, power=1, delta=Q(1))
        assert RootRotation(4, delta=3).delta == Q(3)
        assert AutClass("Zm", m=3) == AutClass("Zm", 3, (), False)
        assert repr(LinearFactor()) == "LinearFactor(delta=Fraction(1, 1), rot=0)"
        assert repr(NormalFormKind("t")) == "NormalFormKind(tag='t', A=None, B=None)"
        assert repr(AutClass("Zm", m=3)) == \
            "AutClass(tag='Zm', m=3, evidence=(), conditional=False)"

    def test_post_init_normalises(self):
        assert LinearFactor(Q(4, 2), -1).rot == 3
        assert type(LinearFactor(2).delta) is Q
        assert type(RootRotation(3, delta=2).delta) is Q
        assert NormalFormKind("t-ab", 1, 2).A == Q(1)

    @pytest.mark.parametrize("build, match", [
        (lambda: LinearFactor(0), "delta != 0"),
        (lambda: LinearFactor(1, 1.5), "integer rot"),
        (lambda: NormalFormKind("bogus"), "unknown normal form tag"),
        (lambda: NormalFormKind("t-ab", A=1), "needs both target constants"),
        (lambda: NormalFormKind("t", A=1), "takes no target constants"),
        (lambda: RadicalReal(Q(-2), 2, 1), "invalid radical record"),
        (lambda: RadicalReal(Q(2), 1, 1), "invalid radical record"),
        (lambda: RadicalReal(Q(2), 2, 0), "invalid radical record"),
        (lambda: TubeWitness(0, None, 1, (), False, (), 8), "a != 0 and c != 0"),
        (lambda: RootRotation(0), "positive integer"),
        (lambda: RootRotation(4, power=1.5), "must be an integer"),
        (lambda: RootRotation(4, delta=0), "delta must be nonzero"),
        (lambda: AutClass("bogus"), "unknown symmetry class tag"),
        (lambda: AutClass("Zm"), "cyclic order m >= 1"),
        (lambda: AutClass("Circle", m=2), "carries no cyclic order"),
    ])
    def test_validation_errors(self, build, match):
        with pytest.raises(StructuralError, match=match):
            build()


def _values():
    """One or more instances of every public value type, the computed
    results of the engine among them."""
    F = RealSeries(4, 10, {(4, 0, 0): 1, (2, 3, 0): Q(1, 3), (1, 1, 1): -2})
    H = Hypersurface.validate(F, 4)
    res = t_normalize(H)
    witness = tube_equivalent(RealSeries(3, 8, {(3, 0, 0): 1, (7, 0, 0): 2}),
                              RealSeries(3, 8, {(3, 0, 0): 1, (7, 0, 0): 8}))
    general = Hypersurface.normal_coordinates(
        RealSeries(4, 8, {(2, 2, 0): 1, (0, 4, 0): 3}), 4)
    T = FormalMap.from_parts(3, 8, {(2, 0): GaussRat(1, 2)}, {(0, 2): 3},
                             LinearFactor(Q(1, 2), 3))
    return [
        GaussRat(Q(1, 2), -3), F, HoloSeries(3, 6, {(2, 1): GaussRat(0, 1)}),
        ComplexSeries(3, 6, {(1, 2, 0): GaussRat(1, 1), (2, 1, 0): GaussRat(1, -1)}),
        H, general, T, res, res.T, res.H_normal, witness, classify_aut(H),
        *(rec for rec, _, _ in RECORDS.values()),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy,
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
], ids=["copy", "deepcopy", "pickle", "pickle0"])
def test_value_round_trips(value, roundtrip):
    again = roundtrip(value)
    assert type(again) is type(value)
    assert again == value
    assert repr(again) == repr(value)
