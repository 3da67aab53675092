"""File records: the one layout of the files the pipeline writes and reads.

Line 1 is a JSON header object whose ``kind`` names the format (``graph``,
``qt-instance``, ``labels``, ...); every later line is one JSON record.
Each writer formats its own lines, with the bytes ``json.dumps`` gives
each record and every id through ``json_id``, and streams them through
``write_lines``; the tests check each writer against one ``json.dumps``
per record.
Readers are total: a malformed file raises ``ValueError("<path>:<line>: ...")``.
Each line is decoded once in C and gives the object or the error that
``json.loads`` gives; a line nested too deeply to decode is a ``ValueError``
that names it too.
Every reader takes its integer fields through ``integer`` and its vertex
ids through ``key``, so a value of the wrong type fails on its own line
(a hot reader may test ``type(value) is int`` itself and call ``integer``
only to raise its error).  Edge records go through ``add_edge_record``
straight into the graph's adjacency map.
"""

from __future__ import annotations

import json

# The names that files carry: a label file's scheme and a suite report's
# suite.  induced and harness run them; the CLI lists them as choices
# without importing either.
SCHEMES = ("legacy", "fixed")
SUITES = ("universality", "sizes", "labels", "growth", "compression")

_scan_once = json.JSONDecoder().scan_once  # raw_decode's C scanner, without its Python frame


def _decode(text: str):
    """``json.loads(text)``, in one C call when a single value fills the line.

    Any other line (surrounding spaces, a BOM, extra data, a syntax error)
    goes to ``json.loads`` itself, so its object or its error is unchanged.
    """
    try:
        try:
            value, end = _scan_once(text, 0)
        except (StopIteration, ValueError):
            return json.loads(text)
        return value if end == len(text) or text[end:] == "\n" else json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


CHUNK = 1 << 16  # characters joined into one write


def write_lines(path, kind: str, head: dict, lines) -> None:
    """Write the header ``{"kind": kind, **head}``, then each line, already formatted with its newline.

    An item may hold several lines.  Items are streamed from the iterable
    and joined into chunks of about CHUNK characters, one ``write`` each,
    as a write per line pays the text layer's per-call cost on every line;
    only one chunk is held at a time, so a file is never held whole.
    """
    with open(path, "w") as fh:
        write = fh.write
        write(json.dumps({"kind": kind, **head}) + "\n")
        chunk, size = [], 0
        for line in lines:
            chunk.append(line)
            size += len(line)
            if size >= CHUNK:
                write("".join(chunk))
                chunk, size = [], 0
        write("".join(chunk))


def json_id(v) -> str:
    """The JSON text of a vertex id: an int formatted directly, anything else by ``json.dumps``."""
    return str(v) if type(v) is int else json.dumps(v)


def write_pairs(path, kind: str, head: dict, name: str, groups) -> None:
    """Write the header, then one record ``{name: [a, b]}`` per b of each group (a, bs).

    Ids are ints, and the bytes are those of ``json.dumps`` on each
    record.  Each group's lines are formatted directly, with one
    ``str.join``, as ``json.dumps`` per record dominates large files.
    """
    start = "{" + json.dumps(name) + ": ["

    def lines():
        for a, bs in groups:
            if bs:
                line = f"{start}{a}, "
                yield line + f"]}}\n{line}".join(map(str, bs)) + "]}\n"

    write_lines(path, kind, head, lines())


def read_records(path, kind: str, parse):
    """Check a ``kind`` header, then return ``parse(head, records)``.

    ``records`` iterates over the decoded objects of lines 2, 3, ...  A
    KeyError, IndexError, TypeError, ValueError or ZeroDivisionError raised
    while line k is decoded or parsed becomes ``ValueError("<path>:<k>: ...")``;
    one raised after the last record (a check against the header) names line 1.
    A line nested too deeply to decode is such a ValueError; a RecursionError
    raised by ``parse`` itself is a bug and propagates.
    """
    line = 1
    with open(path) as fh:

        def records():
            nonlocal line
            for line, text in enumerate(fh, 2):
                yield _decode(text)
            line = 1

        try:
            text = fh.readline()
            if not text:
                raise ValueError("empty file")
            head = _decode(text)
            if not isinstance(head, dict) or head.get("kind") != kind:
                raise ValueError(f"header is not a {kind} header")
            return parse(head, records())
        except KeyError as exc:
            raise ValueError(f"{path}:{line}: missing field {exc}") from None
        except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None


def integer(value, name: str = "field"):
    """An integer field read from JSON; a bool, a float or anything else raises."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def key(v):
    """A vertex id read back from JSON: a str or an int, or a flat list of them (a tuple when written)."""
    kind = type(v)
    if kind is str or kind is int:
        return v
    if kind is list and all(type(x) is str or type(x) is int for x in v):
        return tuple(v)
    raise ValueError(f"vertex id {v!r} is not a str, an int or a flat list of them")


def endpoints(pair, declared):
    """The two ends of an edge record, each of them a member of ``declared``.

    An int id is taken as it is; any other end goes through ``key``.  A
    record that is not a pair is read again as ``map(key, pair)``, so its
    error is the one that reading gives.
    """
    try:
        a, b = pair
    except (TypeError, ValueError):
        a, b = map(key, pair)
    if type(a) is not int:
        a = key(a)
    if type(b) is not int:
        b = key(b)
    if a not in declared or b not in declared:
        raise ValueError(f"edge {a!r}-{b!r} names an undeclared vertex")
    return a, b


def add_edge_record(adj: dict, pair) -> None:
    """Add an edge record to a vertex -> neighbour-set map, in place.

    Its ends are read by ``endpoints``, so each is a key of ``adj``; a
    loop raises ``loop at <end>``, as ``Graph.add_edge`` does.
    """
    a, b = endpoints(pair, adj)
    if a == b:
        raise ValueError(f"loop at {a!r}")
    adj[a].add(b)
    adj[b].add(a)
