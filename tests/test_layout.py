"""The pattern core (``core``) and the exact scalars (``scalars``) sit below
the deciders of ``pattern`` and the certificates of ``exactnum``.  Each name
that ``pattern`` and ``exactnum`` take from them is still read there as the
same object (the benchmark and its tracer look names up in those modules),
the package hands out the objects of the new homes, and pickles written
when the classes lived in ``pattern`` and ``exactnum`` still load.
"""

import pickle
from fractions import Fraction

import pytest

import signrank
from signrank import core, exactnum, pattern, scalars

# old module -> (the module it takes the names from, the names)
MOVED = {
    pattern: (core, ["CondensationReport", "DeletionEvent", "SignPattern", "condense",
                     "load_pattern", "save_pattern", "signature_between"]),
    exactnum: (scalars, ["MAX_RADICAL", "QuadElem", "Rational", "check_radical",
                         "format_rational", "format_scalar", "parse_integer", "parse_rational",
                         "parse_scalar", "quad_sign", "root_sign"]),
}


@pytest.mark.parametrize("old", list(MOVED), ids=lambda module: module.__name__)
def test_old_module_holds_the_same_objects(old):
    new, names = MOVED[old]
    assert sorted(old.__all__) == names
    assert [name for name in names if getattr(old, name) is not getattr(new, name)] == []


def test_package_names_come_from_the_new_homes():
    old_of = {name: old for old, (_, names) in MOVED.items() for name in names}
    moved = {name: home for name, home in signrank._HOME.items() if home in ("core", "scalars")}
    assert sorted(moved) == ["CondensationReport", "QuadElem", "Rational", "SignPattern",
                             "condense", "quad_sign"]
    for name, home in moved.items():
        obj = getattr(signrank, name)
        assert obj is getattr(getattr(signrank, home), name) and obj is getattr(old_of[name], name)


# pickle.dumps (protocol 4) of each value while SignPattern lived in
# signrank.pattern and QuadElem in signrank.exactnum
OLD_PICKLES = [
    (b"\x80\x04\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93"
     b"\x94\x8c\x10signrank.pattern\x94\x8c\x0bSignPattern\x94\x93\x94\x8c\x08_rebuild\x94\x86"
     b"\x94R\x94K\x01J\xff\xff\xff\xffK\x00\x87\x94K\x00K\x01J\xff\xff\xff\xff\x87\x94\x86\x94K"
     b"\x02K\x03\x87\x94R\x94.",
     lambda: core.SignPattern(["+-0", "0+-"])),
    (b"\x80\x04\x95|\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93"
     b"\x94\x8c\x11signrank.exactnum\x94\x8c\x08QuadElem\x94\x93\x94\x8c\x08_rebuild\x94\x86"
     b"\x94R\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x03K\x0b\x86\x94R\x94h\x0bJ"
     b"\xfe\xff\xff\xffK\x0b\x86\x94R\x94K\x05\x87\x94R\x94.",
     lambda: scalars.QuadElem(Fraction(3, 11), Fraction(-2, 11), 5)),
]


@pytest.mark.parametrize("data, build", OLD_PICKLES, ids=["SignPattern", "QuadElem"])
def test_old_pickles_load_equal(data, build):
    value, expected = pickle.loads(data), build()
    assert type(value) is type(expected) and value == expected and hash(value) == hash(expected)
    assert pickle.loads(pickle.dumps(value)) == expected
