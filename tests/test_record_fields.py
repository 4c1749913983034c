"""A record's fields are the positional parameters of its own constructor;
only FuzzySet, which stores its grades as (nums, den), names its own."""

import gc
import inspect

import fuzzcheck.cli  # noqa: F401  (imports every module that defines a record)
from fuzzcheck.record import Frozen, Record
from fuzzcheck.sets import FuzzySet


def _record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("fuzzcheck.") and sub is not Frozen:
                found.add(sub)
    return found


def test_a_record_needs_only_its_constructor():
    class Point(Frozen):
        def __init__(self, x, y=0, *, label=""):
            self._set(x=x, y=y, label=label)

    try:
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"
        assert Point(1, 2) == Point(1, y=2) and hash(Point(1, 2)) == hash(Point(1, y=2))
        assert Point(1, 2) != Point(1, 3) and Point(1) == Point(1, label="p")
    finally:
        del Point
        gc.collect()  # no stray class for the other tests' subclass scans


def test_every_field_tuple_is_the_constructor_parameters():
    classes = _record_classes() - {FuzzySet}
    assert len(classes) == 26
    for cls in classes:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert list(cls._fields) == params, cls.__name__
    assert FuzzySet._fields == ("carrier", "nums", "den")
