"""Exception types shared across the package."""
from __future__ import annotations


class UfesimError(Exception):
    """Base class for all ufesim errors."""


def _located(message: str, path: str | None, line: int | None) -> str:
    where = []
    if path is not None:
        where.append(str(path))
    if line is not None:
        where.append(f"line {line}")
    prefix = ": ".join(where)
    return f"{prefix}: {message}" if prefix else message


class CsvFormatError(UfesimError):
    """Structural problem in an input CSV: missing column, ragged row, bad field."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(_located(message, path, line))


class NotationError(UfesimError):
    """Shot notation could not be decoded; carries the offending character and offset."""

    def __init__(self, message: str, *, notation: str, offset: int):
        self.notation = notation
        self.offset = offset
        super().__init__(f"{message} (notation {notation!r}, offset {offset})")


class DuplicatePointError(UfesimError):
    """Two rows claim the same (match_id, point_index); path and line
    locate the repeated row."""

    def __init__(
        self, match_id: str, point_index: int, *, path: str | None = None, line: int | None = None
    ):
        self.match_id = match_id
        self.point_index = point_index
        self.path = path
        self.line = line
        super().__init__(
            _located(f"duplicate point: match_id={match_id!r} point_index={point_index}", path, line)
        )


class EmptyPoolError(UfesimError):
    """A serve pool has no records; names the pool so callers can fall back to field scope."""

    def __init__(self, pool_id, detail: str = ""):
        self.pool_id = pool_id
        msg = f"serve pool {getattr(pool_id, 'name', pool_id)} is empty"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EndlessMatchError(UfesimError):
    """The pools fix who wins each point by who serves it, and the two
    servers' points go to different players, so no tiebreak or final set
    can ever be won by two."""


class MatchOverError(UfesimError):
    """A point was applied to a completed match."""


class TouchRangeError(UfesimError):
    """Touch number outside the domain of the operation (rallies start at touch 2)."""


class PlayerNotFoundError(UfesimError):
    """The requested player does not appear in the record set."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no player named {name!r} in the records")


class AmbiguousPlayerError(UfesimError):
    """The requested name matches more than one player in the record set."""


class TableFormatError(UfesimError):
    """A touch-win probability table file could not be loaded."""


class WorkerDiedError(UfesimError):
    """A worker process playing simulation replicates ended abruptly."""
