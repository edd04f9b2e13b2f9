"""Append-only commit log: length-prefixed binary records, one per commit.

Record framing: 4-byte big-endian payload length, 4-byte CRC32 of the payload,
then the JSON payload `{"seq", "schema", "rows", "next_uid"}`.  A record is
self-contained: it carries the full descriptors the transaction changed and
its physical row ops, `["del", uid]` or `["put", uid, type_id, {col: value}]`
plus, for an edge, the `[leaving uid, arriving uid]` commit bound it to (commit
refuses an edge that ends at no node, so replay refuses a null end).  So
replay re-runs no validation and looks up no endpoint: it decodes and checks
every record, folds the rows into the last one each live uid was given, and
applies that state once.

A checkpoint is an ordinary record that holds every descriptor and a put of
every live row: `Database.checkpoint` streams it with `write_record` to a
file that it then renames over the log, so replay reads it like any other.

A torn trailing record (incomplete frame, checksum mismatch, or the zero
length of a tail a crash left zero-filled, with no whole record after it)
is skipped with a warning and reading stops there.  A failed append is cut
away before the next one, so only the last record can be torn: a bad record
that a whole record follows is damage, and it is refused with a
`StorageError` naming its byte offset and the next record's seq, as is a
whole record whose payload does not decode.
"""

from __future__ import annotations

import itertools
import json
import logging
import struct
import zlib

from .errors import StorageError
from .values import from_jsonable, to_jsonable

log = logging.getLogger("graphtables")

_HEADER = struct.Struct(">II")
# one encoder for every payload, which holds no cycles (`json.dumps` builds one per call);
# it tags each value that JSON has no type for, such as a Decimal or a date
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False,
                            default=to_jsonable)
_DECODER = json.JSONDecoder()
# rows a streamed record encodes at a time
_CHUNK_ROWS = 128


def _row_op(uid: int, row) -> list:
    """The logged op of `uid` after a commit: `row` put, or deleted when None."""
    if row is None:
        return ["del", uid]
    return ["put", uid, row.type_id, row.values] + ([] if row.ends is None else [row.ends])


def encode_record(seq: int, schema: list[dict], changes, next_uid: int) -> bytes:
    """`changes`: (uid, row before, row after) per uid the commit writes,
    uid ascending; a row after is None for a deletion, else its `type_id`,
    `values` and `ends` (None for a node) are logged."""
    ops = [_row_op(uid, row) for uid, _, row in changes]
    try:
        payload = _ENCODER.encode({"seq": seq, "schema": schema, "rows": ops,
                                   "next_uid": next_uid}).encode("utf-8")
    except ValueError as exc:  # an int past the digit limit, or a string UTF-8 cannot hold
        for op in ops:
            try:
                _ENCODER.encode(op).encode("utf-8")
            except ValueError as row_exc:
                raise StorageError(f"row {op[1]} cannot be logged: {row_exc}") from exc
        raise StorageError(f"commit {seq} cannot be logged: {exc}") from exc
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def write_record(fh, seq: int, schema: list[dict], rows, next_uid: int) -> None:
    """Write to the empty file `fh` the record that `encode_record` makes of
    `rows` (uid ascending) all put, byte for byte, with at most `_CHUNK_ROWS`
    rows' text in hand at a time: the payload streams after a blank header,
    and its length and CRC are written over that header last."""
    fh.write(bytes(_HEADER.size))
    length = crc = 0
    for text in _payload_pieces(seq, schema, rows, next_uid):
        chunk = text.encode("utf-8")
        fh.write(chunk)
        length, crc = length + len(chunk), zlib.crc32(chunk, crc)
    fh.seek(0)
    fh.write(_HEADER.pack(length, crc))


def _payload_pieces(seq: int, schema: list[dict], rows, next_uid: int):
    """The text of `write_record`'s payload, in pieces of at most
    `_CHUNK_ROWS` rows."""
    yield f'{{"seq":{seq},"schema":{_ENCODER.encode(schema)},"rows":['
    rows, sep = iter(rows), ""
    while ops := [_row_op(row.uid, row) for row in itertools.islice(rows, _CHUNK_ROWS)]:
        yield sep + _ENCODER.encode(ops)[1:-1]
        sep = ","
    yield f'],"next_uid":{next_uid}}}'


def decode_rows(payload: dict) -> list:
    """[["put", uid, type_id, {col: value}, ends or None] | ["del", uid]]"""
    ops = []
    for op in payload["rows"]:
        if op[0] == "put":
            # only tagged values are dicts
            ops.append(["put", op[1], op[2],
                        {k: from_jsonable(v) if type(v) is dict else v for k, v in op[3].items()},
                        tuple(op[4]) if len(op) > 4 else None])
        else:
            ops.append(["del", op[1]])
    return ops


def read_records(fh):
    """Yield decoded payload dicts until EOF or the first torn record; a
    whole record whose payload does not decode is refused, and so is a
    record that fails its checksum or runs past the end with a whole record
    after it."""
    offset = fh.tell()
    while True:
        head = fh.read(_HEADER.size)
        if not head:
            return
        if len(head) < _HEADER.size:
            log.warning("commit log ends with a torn record header; ignoring it")
            return
        length, crc = _HEADER.unpack(head)
        payload = fh.read(length)
        if not length or len(payload) < length or zlib.crc32(payload) != crc:
            _refuse_damage(fh, offset)
            log.warning("commit log ends with a torn record; ignoring it")
            return
        try:
            text = payload.decode("utf-8")
            record, end = _DECODER.raw_decode(text)
            if end != len(text):  # as `json.loads` refuses it
                raise json.JSONDecodeError("Extra data", text, end)
        except ValueError as exc:
            raise StorageError(f"commit log {fh.name}: the record at byte {offset} "
                               f"does not decode ({exc})") from exc
        offset += _HEADER.size + length
        yield record


def _refuse_damage(fh, offset: int) -> None:
    """Raise StorageError if a whole record starts after the bad one at byte
    `offset`: an append that failed was cut away, so a crash tears only the
    last record, and a bad record with a whole one after it is damage."""
    fh.seek(offset)
    data = fh.read()
    start = data.find(b'{"seq":', _HEADER.size + 1)  # past the bad record's own
    while start != -1:
        length, crc = _HEADER.unpack_from(data, start - _HEADER.size)
        payload = data[start:start + length]
        if len(payload) == length and zlib.crc32(payload) == crc:
            seq = payload[7:].split(b",", 1)[0].decode("ascii", "replace")
            raise StorageError(f"commit log {fh.name}: the record at byte {offset} is damaged, "
                               f"but a whole record (seq {seq}) follows it at byte "
                               f"{offset + start - _HEADER.size}; the log is kept")
        start = data.find(b'{"seq":', start + 1)
