"""Every library exception survives pickling: a sweep row computed in a
worker process hands its exception back to the caller that way."""

import copy
import inspect
import pickle
import re

import pytest

from sympllt import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.SympLLTError)]
# constructor arguments of the classes whose __init__ is their own
ARGS = {
    errors.PivotNotPositiveError: [(3, -1.0), (3, -1.0, "x"), (7, float("-inf"), "w2 stage")],
    errors.ParseError: [(4, "expected 3 values, got 2")],
}
CASES = [(cls, args) for cls in CLASSES for args in ARGS.get(cls, [("a message",), ()])]
ATTRIBUTES = ("index", "value", "stage", "line")


def test_every_class_is_covered():
    assert len(CLASSES) == 9 and set(ARGS) <= set(CLASSES)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls, args", CASES,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(CASES)])
def test_round_trip_keeps_type_message_and_attributes(cls, args, protocol):
    exc = cls(*args)
    for back in (pickle.loads(pickle.dumps(exc, protocol)), copy.copy(exc)):
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        for name in ATTRIBUTES:
            assert getattr(back, name, None) == getattr(exc, name, None)
        with pytest.raises(cls, match=f"^{re.escape(str(exc))}$"):
            raise back
