"""The pattern core (``core``) and the exact scalars (``scalars``) sit below
the deciders of ``pattern`` and the certificates of ``exactnum``.  The names
that the benchmark and its tracer look up in ``pattern`` are still read
there as the same objects, the package hands out the objects of the new
homes, and pickles written when ``SignPattern`` lived in ``pattern`` still
load.
"""

import pickle

import pytest

import signrank
from signrank import core, pattern

# old module -> (the module it takes the names from, the names)
MOVED = {
    pattern: (core, ["SignPattern", "condense", "load_pattern"]),
}


@pytest.mark.parametrize("old", list(MOVED), ids=lambda module: module.__name__)
def test_old_module_holds_the_same_objects(old):
    new, names = MOVED[old]
    assert sorted(old.__all__) == names
    assert [name for name in names if getattr(old, name) is not getattr(new, name)] == []


def test_package_names_come_from_the_new_homes():
    old_of = {name: old for old, (_, names) in MOVED.items() for name in names}
    moved = {name: home for name, home in signrank._HOME.items() if home in ("core", "scalars")}
    assert sorted(moved) == ["CondensationReport", "QuadElem", "SignPattern", "condense",
                             "quad_sign"]
    for name, home in moved.items():
        obj = getattr(signrank, name)
        assert obj is getattr(getattr(signrank, home), name)
        assert name not in old_of or obj is getattr(old_of[name], name)


# pickle.dumps (protocol 4) of a value while SignPattern lived in
# signrank.pattern
OLD_PICKLES = [
    (b"\x80\x04\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93"
     b"\x94\x8c\x10signrank.pattern\x94\x8c\x0bSignPattern\x94\x93\x94\x8c\x08_rebuild\x94\x86"
     b"\x94R\x94K\x01J\xff\xff\xff\xffK\x00\x87\x94K\x00K\x01J\xff\xff\xff\xff\x87\x94\x86\x94K"
     b"\x02K\x03\x87\x94R\x94.",
     lambda: core.SignPattern(["+-0", "0+-"])),
]


@pytest.mark.parametrize("data, build", OLD_PICKLES, ids=["SignPattern"])
def test_old_pickles_load_equal(data, build):
    value, expected = pickle.loads(data), build()
    assert type(value) is type(expected) and value == expected and hash(value) == hash(expected)
    assert pickle.loads(pickle.dumps(value)) == expected
