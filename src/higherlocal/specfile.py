"""Line-oriented input files describing a connection and a task.

The format has four bracketed sections with ``key = value`` lines::

    [field]
    n = 1
    vars = t
    precision = 32

    [connection]
    rank = 2
    A1 = [["0", "1"], ["0", "-1/t^2"]]

    [forms]
    nu1 = ["1"]

    [task]
    command = epsilon

Matrix and form values are bracketed rows of quoted expressions on a single
line; ``#`` starts a comment.  All diagnostics carry 1-based line/column
positions.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .connection import Connection
from .errors import (
    DimensionMismatch,
    SpecSyntaxError,
    UnknownKey,
)
from .exprparse import ExpressionParser
from .linalg import SeriesMatrix
from .series import OneForm, TowerField

_SECTIONS = ("field", "connection", "forms", "task")
_FIELD_KEYS = {"n", "vars", "precision"}
_TASK_KEYS = {"command", "seed", "sigma"}
_COMMANDS = ("cohomology", "irregularity", "cyclic", "epsilon", "verify")


class SpecFile:
    """A parsed input file: its raw fields, and the field, connection and
    forms parsed from them at ``precision`` when it is built.

    ``raw_matrices`` holds the rows of expression strings per variable,
    ``raw_forms`` the component strings per form, and ``positions`` the
    (line, column) of each expression, matrix entries row by row and then
    form components, for diagnostics; None puts them all at line 1, column 1.
    """

    __slots__ = (
        "level", "names", "precision", "rank", "raw_matrices", "raw_forms", "command", "seed",
        "sigma", "positions", "field", "connection", "forms",
    )

    def __init__(
        self, level: int, names: Tuple[str, ...], precision: int, rank: int,
        raw_matrices: Tuple[Tuple[Tuple[str, ...], ...], ...],
        raw_forms: Tuple[Tuple[str, ...], ...], command: str, seed: int, sigma: int,
        positions: Optional[Tuple[Tuple[int, int], ...]] = None,
    ):
        self.level, self.names, self.precision, self.rank = level, names, precision, rank
        self.raw_matrices, self.raw_forms = raw_matrices, raw_forms
        self.command, self.seed, self.sigma, self.positions = command, seed, sigma, positions
        self.field = TowerField(level, names)
        parser = ExpressionParser(self.field, precision)
        where = iter(positions or ())

        def parse(text):
            return parser.parse(text, *next(where, (1, 1)))

        mats = [[[parse(s) for s in row] for row in rows] for rows in raw_matrices]
        forms = [tuple(parse(s) for s in comps) for comps in raw_forms]
        self.connection = Connection(self.field, [SeriesMatrix(m) for m in mats])
        self.forms = tuple(OneForm(comps) for comps in forms)


# ---------------------------------------------------------------------------
# Bracketed value parsing with positions
# ---------------------------------------------------------------------------

class _QuotedString(NamedTuple):
    text: str
    line: int
    column: int


def _parse_bracketed(value: str, line: int, col0: int):
    """Parse nested brackets of quoted strings; returns the nested lists."""
    n = len(value)
    deepest = 0  # the last '[' entered

    def err(msg, at):
        raise SpecSyntaxError(msg, line, col0 + at)

    def skip_ws(j):
        while j < n and value[j] in " \t":
            j += 1
        return j

    def parse_item(j):
        j = skip_ws(j)
        if j >= n:
            err("unexpected end of value", j)
        if value[j] == "[":
            return parse_list(j)
        if value[j] == '"':
            k = value.find('"', j + 1)
            if k < 0:
                err("unterminated string", j)
            return _QuotedString(value[j + 1 : k], line, col0 + j + 1), k + 1
        err(f"expected '[' or quoted string, found {value[j]!r}", j)

    def parse_list(j):
        nonlocal deepest
        assert value[j] == "["
        deepest = j
        j += 1
        items = []
        j = skip_ws(j)
        if j < n and value[j] == "]":
            return items, j + 1
        while True:
            item, j = parse_item(j)
            items.append(item)
            j = skip_ws(j)
            if j < n and value[j] == ",":
                j += 1
                continue
            if j < n and value[j] == "]":
                return items, j + 1
            err("expected ',' or ']'", min(j, n - 1) if n else 0)

    j = skip_ws(0)
    if j >= n or value[j] != "[":
        raise SpecSyntaxError("expected a bracketed value", line, col0 + j)
    try:
        items, j = parse_list(j)
    except RecursionError:
        raise SpecSyntaxError("brackets nested too deeply", line, col0 + deepest) from None
    j = skip_ws(j)
    if j != n:
        raise SpecSyntaxError(f"trailing input {value[j:]!r}", line, col0 + j)
    return items


def _digits(s: str) -> bool:
    """A nonempty run of ASCII digits (``str.isdigit`` also takes ``²``)."""
    return s.isascii() and s.isdigit()


def _indexed_keys(keys, prefix: str, what: str, section: str, level: int) -> None:
    """Reject every key but ``<prefix>1`` ... ``<prefix><level>``.

    An index above ``level`` is a dimension mismatch; any other key,
    ``<prefix>0`` and ``<prefix>01`` among them, is unknown.  The work is
    bounded by the keys, not by ``level``, and an index with more digits
    than ``level`` is compared without ``int``, which refuses long strings.
    """
    for key in keys:
        index = key[len(prefix):]
        if not (key.startswith(prefix) and _digits(index) and index[0] != "0"):
            raise UnknownKey(f"unknown key {key!r} in [{section}]")
        if len(index) > len(str(level)) or int(index) > level:
            raise DimensionMismatch(f"{what} {key} exceeds n = {level}")


def _int_value(entry: Tuple[str, int, int], key: str) -> int:
    """An optional sign and ASCII digits (``int`` also takes ``١``, ``１`` and ``1_6``)."""
    value, lineno, colv = entry
    try:
        if _digits(value[1:] if value[:1] in ("+", "-") else value):
            return int(value)
    except ValueError:  # more digits than Python's str-to-int limit
        pass
    raise SpecSyntaxError(f"{key} must be an integer, found {value!r}", lineno, colv)


def parse_specfile(
    text: str, precision: Optional[int] = None, seed: Optional[int] = None
) -> SpecFile:
    """The :class:`SpecFile` of ``text``; ``precision`` and ``seed``, when given,
    replace the file's values (still validated) before any expression is parsed.
    """
    if precision is not None and precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    sections: Dict[str, Dict[str, Tuple[str, int, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if stripped.strip().startswith("["):
            name = stripped.strip()
            if not name.endswith("]"):
                raise SpecSyntaxError("unterminated section header", lineno, len(raw))
            section = name[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownKey(f"unknown section [{section}] at line {lineno}")
            current = section
            sections.setdefault(section, {})
            continue
        if current is None:
            raise SpecSyntaxError("content before the first section", lineno, 1)
        if "=" not in stripped:
            raise SpecSyntaxError("expected 'key = value'", lineno, 1)
        key, value = stripped.split("=", 1)
        # position of the value text, 1-based
        colv = len(key) + 2 + len(value) - len(value.lstrip())
        key = key.strip()
        if key in sections[current]:
            raise SpecSyntaxError(f"repeated key {key!r} in [{current}]", lineno, colv)
        sections[current][key] = (value.strip(), lineno, colv)

    fld = sections.get("field", {})
    for key in fld:
        if key not in _FIELD_KEYS:
            raise UnknownKey(f"unknown key {key!r} in [field]")
    if "n" not in fld:
        raise UnknownKey("missing key 'n' in [field]")
    level = _int_value(fld["n"], "n")
    if level < 1:
        raise DimensionMismatch("n must be >= 1")
    # the default names wait until A1 ... An are read, which bounds n
    names = None
    if "vars" in fld:
        names = tuple(fld["vars"][0].split())
        if len(names) != level:
            raise DimensionMismatch(f"{len(names)} variable names for n = {level}")
        if len(set(names)) != len(names):
            _, lineno, colv = fld["vars"]
            raise SpecSyntaxError("variable names must be pairwise distinct", lineno, colv)
    file_precision = _int_value(fld["precision"], "precision") if "precision" in fld else 32
    if file_precision < 1:
        _, lineno, colv = fld["precision"]
        raise SpecSyntaxError("precision must be >= 1", lineno, colv)
    precision = file_precision if precision is None else precision

    conn = sections.get("connection", {})
    _indexed_keys((k for k in conn if k != "rank"), "A", "matrix", "connection", level)
    if "rank" not in conn:
        raise UnknownKey("missing key 'rank' in [connection]")
    rank = _int_value(conn["rank"], "rank")
    if rank < 1:
        raise DimensionMismatch("rank must be >= 1")
    raw_matrices = []
    positions = []
    for i in range(1, level + 1):
        key = f"A{i}"
        if key not in conn:
            raise UnknownKey(f"missing matrix {key} in [connection]")
        value, lineno, colv = conn[key]
        rows = _parse_bracketed(value, lineno, colv)
        if len(rows) != rank:
            raise DimensionMismatch(
                f"{key} has {len(rows)} rows for rank {rank} (line {lineno})"
            )
        mat_rows = []
        for row in rows:
            if not isinstance(row, list) or len(row) != rank:
                raise DimensionMismatch(
                    f"{key} rows must have {rank} quoted entries (line {lineno})"
                )
            if not all(isinstance(x, _QuotedString) for x in row):
                raise DimensionMismatch(
                    f"{key} entries must be quoted expressions (line {lineno})"
                )
            mat_rows.append(tuple(x.text for x in row))
            positions.extend((x.line, x.column) for x in row)
        raw_matrices.append(tuple(mat_rows))

    frm = sections.get("forms", {})
    raw_forms = []
    _indexed_keys(frm, "nu", "form", "forms", level)
    # the forms block is optional but must be complete when present
    form_indices = range(1, level + 1) if frm else ()
    for i in form_indices:
        key = f"nu{i}"
        if key not in frm:
            raise UnknownKey(f"missing form {key} in [forms]")
        value, lineno, colv = frm[key]
        comps = _parse_bracketed(value, lineno, colv)
        if len(comps) != level or not all(
            isinstance(x, _QuotedString) for x in comps
        ):
            raise DimensionMismatch(
                f"{key} needs {level} quoted components (line {lineno})"
            )
        raw_forms.append(tuple(x.text for x in comps))
        positions.extend((x.line, x.column) for x in comps)

    tsk = sections.get("task", {})
    for key in tsk:
        if key not in _TASK_KEYS:
            raise UnknownKey(f"unknown key {key!r} in [task]")
    if "command" not in tsk:
        raise UnknownKey("missing key 'command' in [task]")
    command = tsk["command"][0]
    if command not in _COMMANDS:
        raise UnknownKey(f"unknown command {command!r}")
    file_seed = _int_value(tsk["seed"], "seed") if "seed" in tsk else 0
    seed = file_seed if seed is None else seed
    sigma = _int_value(tsk["sigma"], "sigma") if "sigma" in tsk else 1
    if sigma not in (1, -1):
        raise DimensionMismatch("sigma must be 1 or -1")

    return SpecFile(
        level,
        names or tuple(f"t{i+1}" for i in range(level)),
        precision,
        rank,
        tuple(raw_matrices),
        tuple(raw_forms),
        command,
        seed,
        sigma,
        tuple(positions),
    )
