"""Append-only commit log: length-prefixed binary records, one per commit.

Record framing: 4-byte big-endian payload length, 4-byte CRC32 of the payload,
then the JSON payload `{"seq", "schema", "rows", "next_uid"}`.  A record is
self-contained: it carries the full descriptors the transaction changed and
its physical row ops, `["del", uid]` or `["put", uid, type_id, {col: value}]`
plus, for an edge, the `[leaving uid, arriving uid]` commit bound it to (commit
refuses an edge that ends at no node, so replay refuses a null end).  So
replay re-runs no validation and looks up no endpoint: it decodes and checks
every record, folds the rows into the last one each live uid was given, and
applies that state once.  A torn trailing record (incomplete frame or checksum
mismatch) is skipped with a warning and reading stops there; a whole record
whose payload does not decode is refused with a `StorageError` naming its byte
offset.
"""

from __future__ import annotations

import json
import logging
import struct
import zlib

from .errors import StorageError
from .values import from_jsonable, to_jsonable

log = logging.getLogger("graphtables")

_HEADER = struct.Struct(">II")
# one encoder for every payload, which holds no cycles (`json.dumps` builds one per call)
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()


def encode_record(seq: int, schema: list[dict], changes, next_uid: int) -> bytes:
    """`changes`: (uid, row before, row after) per uid the commit writes,
    uid ascending; a row after is None for a deletion, else its `type_id`,
    `values` and `ends` (None for a node) are logged."""
    ops = []
    for uid, _, row in changes:
        if row is None:
            ops.append(["del", uid])
        else:
            values = {k: v if type(v) is int or type(v) is str else to_jsonable(v)
                      for k, v in row.values.items()}
            ops.append(["put", uid, row.type_id, values] + ([] if row.ends is None else [row.ends]))
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
    whole record whose payload does not decode is refused."""
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
        if len(payload) < length:
            log.warning("commit log ends with a torn record; ignoring it")
            return
        if zlib.crc32(payload) != crc:
            log.warning("commit log record fails its checksum; ignoring the rest of the log")
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
