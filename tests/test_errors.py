"""Every error type crosses a process boundary as it was raised."""
from __future__ import annotations

import pickle

import pytest

from ufesim.errors import (
    AmbiguousPlayerError,
    CsvFormatError,
    DuplicatePointError,
    EmptyPoolError,
    EndlessMatchError,
    MatchOverError,
    NotationError,
    PlayerNotFoundError,
    TableFormatError,
    TouchRangeError,
    UfesimError,
    WorkerDiedError,
)

ERRORS = [
    CsvFormatError("wrong number of fields", path="points.csv", line=3),
    CsvFormatError("file has no header row"),
    NotationError("unrecognized shot code 'Z'", notation="4Z*", offset=1),
    DuplicatePointError("20190705-M-Cup-F-Ann_Ace-Bob_Base", 7, path="points.csv", line=9),
    EmptyPoolError("A_first", "pool is empty"),
    EmptyPoolError("B_second"),
    PlayerNotFoundError("Ann Ace"),
    AmbiguousPlayerError("'Ann' matches 'Ann Ace' and 'Ann Other'"),
    EndlessMatchError("no match can end"),
    MatchOverError("the match is over"),
    TouchRangeError("touch 1 is the serve"),
    TableFormatError("bad table"),
    WorkerDiedError("a replicate worker process died"),
]


def _subclasses(cls: type) -> set[type]:
    return {sub for child in cls.__subclasses__() for sub in {child} | _subclasses(child)}


def test_every_error_type_has_a_case():
    assert {type(error) for error in ERRORS} == _subclasses(UfesimError)


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
def test_an_error_survives_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
