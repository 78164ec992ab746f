"""The result records are ``Value``s: the protocol each of the ten keeps.

Each record is built with the constructor its frozen dataclass had (the
same parameter names, order and defaults), compares equal by type and
fields, hashes by its fields where they hash, refuses assignment, survives
pickle and deepcopy, and has a ``repr`` that names its type and fields.
Every ``Value`` type in src that writes its own ``__eq__`` writes its own
``__hash__`` too, unless ``UNHASHABLE`` lists it.  A record's constructor is
the writer ``Value`` compiles from its slots, and no ``Value`` type in src
writes a constructor that only forwards its parameters to ``_set``.  Every
type's ``_values()``, compiled with the writer, reads its fields, and
``Linear`` and its views take ``Value``'s equality.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import hyperred
from hyperred.expansion import (EpsilonExpansion, F3Report, FactorizationReport,
                                epsilon_expand, f3_parametrization_check,
                                factorization_conditions)
from hyperred.gpl import GplCombo
from hyperred.grammar import parse_hyper
from hyperred.hyper import HyperFn
from hyperred.mb import DiagramPreset, GammaProduct, HyperSum, HyperTerm, get_preset, mb_to_hyper
from hyperred.ratfunc import RatFunc
from hyperred.reduction import (ExceptionalReport, OpMatrix, ReductionResult, detect_exceptional,
                                reduce_to_basis, step_matrix)
from hyperred.scalars import EpsLin, Linear, LinearForm
from hyperred.series import BiSeries
from hyperred.value import Value

GENERIC_TARGET = "2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]"
GENERIC_BASIS = "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"
COUNT_BASIS = "3F2[1, 1/2+eps, -eps; 2-eps, 1+eps; z]"

_ = inspect.Parameter.empty
# each record's constructor as its frozen dataclass declared it: (name, default)
SIGNATURES = {
    FactorizationReport: [("case", _), ("r1", _), ("r2", _), ("beta", _), ("h_exponents", _),
                          ("xi_description", _), ("candidates", ()), ("gauss_checks", None)],
    F3Report: [("passes", _), ("s1", _), ("s2", _), ("h1_exponents", _), ("h2_exponents", _),
               ("H_exponents", _), ("form", _), ("flags", ())],
    EpsilonExpansion: [("fn", _), ("kind", _), ("var", _), ("omega0", _), ("layers", _)],
    GammaProduct: [("num", _), ("den", _)],
    HyperTerm: [("power", _), ("gamma", _), ("fn", _)],
    HyperSum: [("terms", _)],
    DiagramPreset: [("symbols", _), ("mb", _), ("printed", _)],
    OpMatrix: [("entries", _), ("affine", False)],
    ReductionResult: [("target", _), ("basis", _), ("s_poly", _), ("r_polys", _),
                      ("algebraic_tail", _), ("affine", False)],
    ExceptionalReport: [("integer_uppers", _), ("pairs", _), ("shared_flags", _), ("count", _)],
}


def _samples():
    """Two unequal records of each type, built by the code that returns them."""
    half = parse_hyper("2F1[1/2+eps, 1/2-eps; 3/2+2*eps; z]")
    integer = parse_hyper("2F1[2*eps, 3*eps; 1+5*eps; z]")
    target, basis = parse_hyper(GENERIC_TARGET), parse_hyper(GENERIC_BASIS)
    c3, c1 = get_preset("c3"), get_preset("c1")
    h3, h1 = mb_to_hyper(c3.mb), mb_to_hyper(c1.mb)
    return {
        FactorizationReport: (factorization_conditions(half.upper, half.lower),
                              factorization_conditions(integer.upper, integer.lower)),
        F3Report: (f3_parametrization_check(1, 0, 0, 1, 0, 2),
                   f3_parametrization_check(1, 1, 0, 0, 1, 2)),
        EpsilonExpansion: (epsilon_expand(integer, 2), epsilon_expand(half, 1)),
        GammaProduct: (h3.terms[0].gamma, h1.terms[0].gamma),
        HyperTerm: (h3.terms[0], h1.terms[0]),
        HyperSum: (h3, h1),
        DiagramPreset: (c3, c1),
        OpMatrix: (step_matrix(basis, "upper", 0, 1), step_matrix(basis, "lower", 0, 1)),
        ReductionResult: (reduce_to_basis(target, basis),
                          reduce_to_basis(basis.shifted("upper", 1, 1), basis)),
        ExceptionalReport: (detect_exceptional(parse_hyper(COUNT_BASIS)),
                            detect_exceptional(integer)),
    }


SAMPLES = _samples()
TYPES = list(SIGNATURES)


def test_every_record_is_a_value_and_none_is_a_dataclass():
    assert set(SAMPLES) == set(SIGNATURES) and len(TYPES) == 10
    for cls in TYPES:
        assert issubclass(cls, Value) and not hasattr(cls, "__dataclass_fields__"), cls
        assert not hasattr(SAMPLES[cls][0], "__dict__"), cls


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_constructor_keeps_the_dataclass_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert cls._fields == tuple(name for name, _ in SIGNATURES[cls])


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_constructor_is_the_writer_compiled_from_the_slots(cls):
    """Value installs the writer only where the class body has no __init__."""
    assert cls.__init__ is cls._write


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction(cls):
    x = SAMPLES[cls][0]
    by_name = cls(**{name: getattr(x, name) for name in cls._fields})
    assert by_name == x and type(by_name) is cls
    assert cls(*(getattr(x, name) for name in cls._fields)) == x
    required = {name: getattr(x, name) for name, d in SIGNATURES[cls] if d is _}
    defaulted = cls(**required)
    for name, default in SIGNATURES[cls]:
        assert getattr(defaulted, name) == (required[name] if default is _ else default), name


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equality_is_by_type_and_fields(cls):
    x, y = SAMPLES[cls]
    twin = cls._of(*(getattr(x, name) for name in cls._fields))
    assert twin is not x and twin == x and not twin != x
    assert x != y
    # one field swapped for the other record's makes an unequal record
    for name in cls._fields:
        mixed = cls._of(*(getattr(y if f == name else x, f) for f in cls._fields))
        assert (mixed == x) == (getattr(x, name) == getattr(y, name)), name

    class Other(cls):
        __slots__ = ()

    assert Other._of(*(getattr(x, name) for name in cls._fields)) != x
    assert x != tuple(getattr(x, name) for name in cls._fields)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_hash_is_by_fields_where_they_hash(cls):
    x, y = SAMPLES[cls]
    for r in (x, y):
        values = tuple(getattr(r, name) for name in cls._fields)
        try:
            expected = hash(values)
        except TypeError:
            # FactorizationReport's gauss_checks is a dict, as it was in the dataclass
            with pytest.raises(TypeError):
                hash(r)
            continue
        assert hash(r) == expected == hash(cls._of(*values))
        assert {r: 1}[cls._of(*values)] == 1


def test_a_factorization_report_without_gauss_checks_hashes():
    x = SAMPLES[FactorizationReport][0]
    assert x.gauss_checks is not None
    y = FactorizationReport(x.case, x.r1, x.r2, x.beta, x.h_exponents, x.xi_description,
                            x.candidates)
    assert hash(y) == hash(FactorizationReport(**{n: getattr(y, n) for n in y._fields}))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    x = SAMPLES[cls][0]
    before = tuple(getattr(x, name) for name in cls._fields)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError, match=rf"^{cls.__name__} is immutable$"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=rf"^{cls.__name__} is immutable$"):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in cls._fields) == before


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    for x in SAMPLES[cls]:
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(back) is cls and back == x
            assert all(getattr(back, name) == getattr(x, name) for name in cls._fields)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_names_the_type_and_fields(cls):
    for x in SAMPLES[cls]:
        text = repr(x)
        assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
        fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in cls._fields)
        assert text == f"{cls.__name__}({fields})"


def test_str_is_the_repr_except_for_the_gamma_display():
    for cls in TYPES:
        x = SAMPLES[cls][0]
        if cls is GammaProduct:
            assert str(x).startswith("G[") and str(x) != repr(x)
        else:
            assert str(x) == repr(x)


def test_records_are_equal_across_construction_paths():
    """Equal values built apart compare and hash equal, as frozen dataclasses did."""
    target, basis = parse_hyper(GENERIC_TARGET), parse_hyper(GENERIC_BASIS)
    r = reduce_to_basis(target, basis)
    assert reduce_to_basis(parse_hyper(GENERIC_TARGET), parse_hyper(GENERIC_BASIS)) == r
    assert OpMatrix.identity(("eps", "z"), 2) == OpMatrix.identity(("eps", "z"), 2)
    assert OpMatrix.identity(("eps", "z"), 2) != OpMatrix.identity(("eps", "z"), 2, True)
    printed = get_preset("c3").printed
    rebuilt = HyperSum(tuple(printed.terms))
    assert rebuilt is not printed and rebuilt == printed and hash(rebuilt) == hash(printed)
    assert GammaProduct((), ()) == GammaProduct(den=(), num=()) and str(GammaProduct((), ())) == "1"


# equal-by-value types that cannot hash: a BiSeries is equal to the same
# series at another truncation, with other cells past it, and a GplCombo
# holds its coefficients in a dict
UNHASHABLE = {BiSeries, GplCombo}


def _value_classes():
    for m in pkgutil.iter_modules(hyperred.__path__):
        importlib.import_module(f"hyperred.{m.name}")
    todo, seen = [Value], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo += cls.__subclasses__()
    return [c for c in seen if c.__module__.startswith("hyperred.")]


def test_a_value_that_defines_eq_defines_hash():
    """Python sets __hash__ to None in a class that defines __eq__ alone, so
    a Value type that writes its own equality writes its own hash too,
    unless it is listed as unhashable."""
    classes = _value_classes()
    assert {Value, RatFunc, BiSeries, HyperFn} <= set(classes)
    for cls in classes:
        if "__eq__" in cls.__dict__ and cls not in UNHASHABLE:
            assert cls.__dict__.get("__hash__") is not None, cls
    for cls in UNHASHABLE:
        assert cls.__hash__ is None, cls


def test_values_reads_the_fields_of_every_value_type():
    """_values() is compiled with the writer: the fields in _fields order, as getattr reads them."""
    assert "_values" not in Value.__dict__
    for cls in _value_classes():
        if cls is Value:
            continue
        assert cls._fields, cls
        fields = tuple(object() for _ in cls._fields)
        x = object.__new__(cls)
        cls._write(x, *fields)
        assert x._values() == tuple(getattr(x, name) for name in cls._fields), cls
        assert all(a is b for a, b in zip(x._values(), fields)), cls


def test_linear_forms_take_the_value_equality():
    """Linear and its views compare and hash as Value does, by type and fields."""
    for cls in (Linear, EpsLin, LinearForm):
        assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__, cls
    a, b = EpsLin(F(1, 2), 3), Linear({"eps": 3}, F(1, 2))
    assert a.terms == b.terms and a.const == b.const and a != b
    assert hash(a) == hash((a.terms, a.const)) == hash(b)
    assert EpsLin(F(1, 2), 3) == a and {a: 1}[EpsLin(F(2, 4), 3)] == 1


def _forwarding_constructors(source):
    """Classes in source whose __init__ is one ``self._set`` of its own parameters in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                    body = [s for s in f.body
                            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                    call = f"self._set({', '.join(a.arg for a in f.args.args[1:])})"
                    if (len(body) == 1 and isinstance(body[0], ast.Expr)
                            and ast.unparse(body[0].value) == call):
                        found.append(node.name)
    return found


def test_no_value_type_writes_a_forwarding_constructor():
    """Such a constructor restates the slots; Value compiles it from them."""
    old = ("class OpMatrix(Value):\n"
           "    __slots__ = ('entries', 'affine')\n\n"
           "    def __init__(self, entries, affine=False):\n"
           "        \"The matrix.\"\n"
           "        self._set(entries, affine)\n")
    assert _forwarding_constructors(old) == ["OpMatrix"]
    assert _forwarding_constructors(old.replace("(entries, affine)", "(affine, entries)")) == []
    values = {c.__name__ for c in _value_classes()}
    found = [name for path in sorted(Path(hyperred.__file__).parent.glob("*.py"))
             for name in _forwarding_constructors(path.read_text()) if name in values]
    assert found == []
