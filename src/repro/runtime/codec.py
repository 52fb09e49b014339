"""The control codec: the one encoding of every message that crosses a
process boundary (DESIGN.md §4.6).

A frame's control section (:mod:`repro.runtime.net_wire`) is one JSON text,
``[schema, body]``, that can only build data: ints, floats, strs, bools,
``None``, tuples / lists / dicts of those, ndarrays, byte buffers and the
two records below.  Nothing a peer writes is ever called or imported by the
decoder; a task body travels as ``(module, qualname)`` and is looked up by
:func:`resolve_function` under its own rules when a task is rebuilt.

**Generic messages** (schema ``""``), one JSON value per Python value:

* str, int, float, bool and None are themselves (a subclass, or a numpy
  scalar, arrives as the plain type); a dict with str keys is a JSON object;
* every other value is a JSON array whose first element is its tag:
  ``["(", *items]`` a tuple, ``["[", *items]`` a list, ``["{", k0, v0, ...]``
  a dict with other keys, ``["a", dtype, shape, data]`` an ndarray (C order),
  ``["b", data]`` a byte buffer, ``["e", key, p, type, producer, outputs]`` a
  :class:`~repro.atm.tht.THTEntry`, ``["f", *fields]`` a
  :class:`~repro.runtime.supervision.TaskFailure` and, inside a task's
  arguments only, ``["r", ref]`` an array reference;
* ``data`` is the index of the frame segment holding the bytes — or, past
  the segment table's bound, ``[base64 text]``: the bytes in place.

Object dtypes are refused in both directions.

**Schema'd messages** — the per-task hot path — are fixed-position records
without per-value tags: ``("chunk", NetChunk)``, ``("submit_batch",
NetChunk)`` and ``("result", chunk_id, results)``.  A message of those kinds
whose fields do not fit falls back to the generic form, so the decoder's
answer never depends on which form was written.

**One ref form.**  A shipped array is the plain tuple ``(buffer key, offset,
shape, strides, dtype)``; the buffer key resolves through the buffer table
of the chunk it travels in, for a shared segment and a shipped span alike.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import importlib
import importlib.util
import json
import os
import sys
import sysconfig
import types
from collections import namedtuple
from typing import Any, Callable, Optional

import numpy as np

from repro.atm.tht import THTEntry
from repro.common.exceptions import PickledControlError, WireProtocolError
from repro.runtime.supervision import TaskFailure

__all__ = [
    "NetBuffer",
    "NetChunk",
    "TaskDescriptor",
    "resolve_function",
    "encode_control",
    "decode_control",
]

#: One row of a buffer table: where the bytes behind buffer key
#: ``buffer_id`` live.  ``data`` is a buffer (a full ship of the span
#: ``[start, start + len(data))`` of the owning base: a span view on the
#: sender, the received segment on the receiver), ``None`` (a cached
#: dispatch: the receiver holds generation ``generation`` of that span,
#: DESIGN.md §4.5) or a str (the shared-memory segment mirroring the whole
#: base, §4.3).
NetBuffer = namedtuple("NetBuffer", "buffer_id start data generation", defaults=(0,))

#: One dispatch unit: a buffer table + the task descriptors using it.
NetChunk = namedtuple("NetChunk", "chunk_id buffers tasks")

#: Everything a worker needs to rebuild and run one task, in fixed
#: positions: the task type's fields inline (cost models stay home: only the
#: simulator reads them), the body by name, ``accesses`` as ``(ref,
#: mode_value, region_name)`` and ``args`` / ``kwargs`` in generic form
#: (:func:`plain`) with every ndarray leaf replaced by its ref: the arena
#: resolves one ref to one view, so worker-side argument arrays alias the
#: rebuilt access regions exactly as they do at home.
TaskDescriptor = namedtuple(
    "TaskDescriptor",
    "task_id creation_index name memoizable tau_max l_training deterministic "
    "module qualname accesses args kwargs",
)

_NATIVE = frozenset((str, int, float, bool, type(None)))
_FAILURE_FIELDS = [field.name for field in dataclasses.fields(TaskFailure)]


def _inline(buffer) -> list:
    """Segment sink of a value with no frame around it: bytes in place."""
    return [base64.b64encode(buffer).decode("ascii")]


def _bytes(data, take: Callable):
    """The bytes a ``data`` field names: a segment index or ``[base64]``."""
    if type(data) is list:
        (text,) = data
        return bytearray(base64.b64decode(text, validate=True))
    return take(data)


def checked_dtype(name) -> np.dtype:
    """The dtype an array has or a peer named (as its string); any other
    value, or a dtype that holds Python objects, raises."""
    if not isinstance(name, (str, np.dtype)):
        raise TypeError(f"a dtype travels as its string, got {type(name).__name__}")
    dtype = np.dtype(name)
    if dtype.hasobject:
        raise TypeError(f"refusing dtype {str(dtype)!r}: it holds Python objects")
    return dtype


def raw_view(array: np.ndarray) -> memoryview:
    """The bytes of ``array`` (C order) as one segment; a contiguous array is
    aliased, not copied (see :func:`repro.runtime.net_wire.encode_frame`)."""
    return memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))


def ref_key(ref) -> tuple:
    """A received ref as the hashable plain tuple it was sent as."""
    key, offset, shape, strides, dtype = ref
    return key, offset, tuple(shape), tuple(strides), dtype


def _entry(key, p, name, producer, outputs) -> THTEntry:
    if not (type(key) is type(producer) is int and type(p) in (int, float)
            and type(name) is str and type(outputs) is list
            and all(type(o) is np.ndarray for o in outputs)):
        raise TypeError("malformed THT entry")
    return THTEntry(key_value=key, p=p, task_type_name=name, outputs=outputs,
                    producer_index=producer)


def plain(value: Any, segment: Callable = _inline, leaf: Optional[Callable] = None) -> Any:
    """``value`` in generic form (module docstring).

    ``segment(buffer)`` files a flat byte buffer and returns its ``data``
    field; ``leaf(array)``, when given, encodes every ndarray leaf instead —
    as a ref (a task's arguments).  Anything else raises ``TypeError``.
    """
    kind = type(value)
    if kind in _NATIVE:
        return value
    if kind is tuple or kind is list:
        return ["(" if kind is tuple else "[", *[plain(item, segment, leaf) for item in value]]
    if kind is dict:
        if all(type(key) is str for key in value):
            return {key: plain(item, segment, leaf) for key, item in value.items()}
        return ["{", *[plain(x, segment, leaf) for pair in value.items() for x in pair]]
    if kind is np.ndarray:
        if leaf is not None:
            return leaf(value)
        dtype = checked_dtype(value.dtype).str
        return ["a", dtype, list(value.shape), segment(raw_view(value))]
    if isinstance(value, (bytes, bytearray, memoryview)):
        return ["b", segment(memoryview(value).cast("B"))]
    if kind is THTEntry:
        fields = (value.key_value, value.p, value.task_type_name, value.producer_index,
                  list(value.outputs))
        return ["e", *[plain(field, segment) for field in fields]]
    if kind is TaskFailure:
        return ["f", *[plain(getattr(value, name), segment) for name in _FAILURE_FIELDS]]
    if isinstance(value, np.generic):
        return plain(value.item(), segment, leaf)
    if isinstance(value, (str, int, float)):
        return value
    raise TypeError(
        f"cannot encode a {kind.__name__}: messages carry plain data, "
        f"arrays, byte buffers, THT entries and task failures only"
    )


def build(value: Any, take: Callable, leaf: Optional[Callable] = None) -> Any:
    """Inverse of :func:`plain`: ``take(index)`` returns a frame segment,
    ``leaf(["r", ref])`` the array a task's arguments reference (refused
    without it)."""
    kind = type(value)
    if kind is dict:
        return {key: build(item, take, leaf) for key, item in value.items()}
    if kind is not list:
        return value
    tag, *items = value
    if tag == "r" and leaf is not None:
        return leaf(value)
    if tag == "a":
        dtype, shape, data = items
        return np.frombuffer(_bytes(data, take), dtype=checked_dtype(dtype)).reshape(shape)
    if tag == "b":
        return _bytes(*items, take)
    items = [build(item, take, leaf) for item in items]
    if tag == "(":
        return tuple(items)
    if tag == "[":
        return items
    if tag == "{":
        return dict(zip(items[::2], items[1::2], strict=True))
    if tag == "e":
        return _entry(*items)
    if tag == "f":
        return TaskFailure(*items)
    raise TypeError(f"unknown value tag {tag!r}")


# -- task bodies ----------------------------------------------------------------------
_REFUSED_ROOTS = tuple({
    os.path.join(os.path.realpath(sysconfig.get_path(name)), "")
    for name in ("stdlib", "platstdlib", "purelib", "platlib")
})


def _outside(path: Optional[str]) -> bool:
    return path is not None and not os.path.realpath(path).startswith(_REFUSED_ROOTS)


@functools.cache
def _application_module(name: str) -> types.ModuleType:
    """The module ``name``, imported only when its file lies outside the
    interpreter's stdlib and site-packages (built-in and frozen ones never)."""
    module = sys.modules.get(name)
    top = name.partition(".")[0]
    if module is None and top not in sys.stdlib_module_names and _outside(
        getattr(importlib.util.find_spec(top), "origin", None)
    ):
        module = importlib.import_module(name)
    if module is None or not _outside(getattr(module, "__file__", None)):
        raise LookupError(f"module {name!r} is not application code")
    return module


def resolve_function(module: str, qualname: str) -> types.FunctionType:
    """The task body a peer named, looked up under the wire's rules.

    Only a plain Python function defined at module level in application
    code qualifies — or the ``__wrapped__`` body of a ``@session.task``
    wrapper bound to that name — and its own ``__module__`` /
    ``__qualname__`` must be the name sent.  Classes, builtins, C functions,
    methods, lambdas, locals and anything under the interpreter's stdlib or
    site-packages paths raise :class:`WireProtocolError`.
    """
    try:
        body = getattr(_application_module(module), qualname)
        if hasattr(body, "task_type"):
            body = body.__wrapped__
        if type(body) is not types.FunctionType or (
            body.__module__, body.__qualname__
        ) != (module, qualname):
            raise LookupError("not a module-level Python function of that name")
    except Exception as exc:
        raise WireProtocolError(
            f"task body {module!r}.{qualname!r} refused: {type(exc).__name__}: {exc}"
        ) from None
    return body


def function_name(function: Callable) -> tuple[str, str]:
    """``(module, qualname)`` that :func:`resolve_function` turns back into
    ``function``; raises :class:`WireProtocolError` saying why there is none."""
    name = getattr(function, "__module__", None), getattr(function, "__qualname__", None)
    if resolve_function(*name) is not function:
        raise WireProtocolError(f"task body {function!r}: {name} names another object")
    return name


# -- schema'd messages ----------------------------------------------------------------
def _encode_chunk(message, segment):
    kind, (chunk_id, buffers, tasks) = message
    return [chunk_id, [
        (key, start,
         data if data is None or type(data) is str else segment(memoryview(data).cast("B")),
         generation)
        for key, start, data, generation in buffers
    ], tasks]


def _decode_chunk(kind, body, take):
    """A chunk's buffer table as :class:`NetBuffer` rows and its descriptor
    rows as :class:`TaskDescriptor` records, whose fields
    :func:`~repro.runtime.remote_task.rebuild_task` checks."""
    chunk_id, rows, tasks = body
    buffers = tuple(
        NetBuffer(key, start, data if data is None or type(data) is str else _bytes(data, take),
                  generation)
        for key, start, data, generation in rows
    )
    return kind, NetChunk(chunk_id, buffers, tuple(TaskDescriptor(*task) for task in tasks))


def _encode_result(message, segment):
    _, chunk_id, results = message
    return [chunk_id, [
        (*row[:3], [(i, segment(memoryview(raw).cast("B"))) for i, raw in row[3]])
        if len(row) == 4 else row
        for row in results
    ]]


def _decode_result(kind, body, take):
    chunk_id, rows = body
    return kind, chunk_id, [
        (*row[:3], [(index, take(data)) for index, data in row[3]]) if len(row) == 4
        else tuple(row)
        for row in rows
    ]


_SCHEMAS = {
    "chunk": (_encode_chunk, _decode_chunk),
    "submit_batch": (_encode_chunk, _decode_chunk),
    "result": (_encode_result, _decode_result),
}

_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def encode_control(message: Any, max_segments: int) -> tuple[bytes, list[memoryview]]:
    """``(control bytes, segments)`` of one message; at most ``max_segments``
    buffers become segments, the rest ride in the control section."""
    segments: list[memoryview] = []

    def segment(view: memoryview):
        if len(segments) == max_segments:
            return _inline(view)
        segments.append(view)
        return len(segments) - 1

    kind = message[0] if type(message) is tuple and message else None
    if type(kind) is str and kind in _SCHEMAS:
        try:
            return _json([kind, _SCHEMAS[kind][0](message, segment)]).encode(), segments
        except (TypeError, ValueError, AttributeError):
            segments.clear()  # fields that do not fit the schema: generic form
    return _json(["", plain(message, segment)]).encode(), segments


def decode_control(control, segments: list) -> Any:
    """Rebuild one message around its frame's segments.

    Anything that is not a control section of this codec — a pickle of an
    earlier protocol included, which is never read — raises
    :class:`WireProtocolError`, as does a segment the message leaves unused.
    """
    if bytes(control[:1]) == b"\x80":
        raise PickledControlError(
            "frame control section is a pickle (written by wire protocol 7, "
            "store schema 4 or earlier); it is refused unread"
        )
    taken: set[int] = set()

    def take(index):
        if type(index) is not int or not 0 <= index < len(segments):
            raise IndexError(f"out-of-band segment {index!r} is not in the frame")
        taken.add(index)
        return segments[index]

    try:
        schema, body = json.loads(str(control, "utf-8"))
        message = _SCHEMAS[schema][1](schema, body, take) if schema else build(body, take)
    except Exception as exc:
        raise WireProtocolError(
            f"unreadable frame control section: {type(exc).__name__}: {exc}"
        ) from None
    if len(taken) != len(segments):
        raise WireProtocolError(
            f"frame carries {len(segments)} segments but its control section "
            f"leaves {len(segments) - len(taken)} unreferenced"
        )
    return message
