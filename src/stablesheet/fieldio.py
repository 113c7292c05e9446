"""Stable on-disk formats for fields, coefficient tensors, and run records.

Field files (``*.zh``) carry an 8-byte magic ``ZHFIELD1``, a 4-byte
little-endian header length, a UTF-8 JSON header, and the sample values as
little-endian 8-byte floats in row-major order (component-major for
vector-valued fields). Coefficient files use the same envelope with magic
``ZHCOEFF1`` and packed little-endian complex64 payloads in lexicographic
(J, K) order. All writes are atomic: a temporary file in the destination
directory is populated first and then renamed over the target path.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import lepage
from . import synthesis

FIELD_MAGIC = b"ZHFIELD1"
COEFF_MAGIC = b"ZHCOEFF1"
FORMAT_VERSION = 1


class FieldFormatError(ValueError):
    """Base class for malformed field / coefficient files."""


class BadMagicError(FieldFormatError):
    """The file does not start with the expected magic bytes."""


class TruncatedPayloadError(FieldFormatError):
    """The payload is shorter than the header-declared extent."""


class VersionMismatchError(FieldFormatError):
    """The file was written by a newer, incompatible format revision."""


def canonical_json(obj) -> str:
    """Serialize deterministically: sorted keys, no whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"parent directory does not exist: {parent}")
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _envelope_bytes(magic: bytes, header: dict, payload: bytes) -> bytes:
    raw = canonical_json(header).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw + payload


def _parse(path: str, what: str, parse):
    """parse(), with a missing or malformed header value reported as a FieldFormatError."""
    try:
        return parse()
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFormatError(f"{path}: unreadable {what} ({exc})") from exc


def _read_envelope(path: str, magic: bytes):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) or blob[: len(magic)] != magic:
        raise BadMagicError(
            f"{path}: expected magic {magic.decode('ascii')!r}"
        )
    off = len(magic)
    if len(blob) < off + 4:
        raise TruncatedPayloadError(f"{path}: missing header length")
    (hlen,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + hlen:
        raise TruncatedPayloadError(f"{path}: header shorter than declared")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise FieldFormatError(f"{path}: header is not a JSON object")
    version = _parse(path, "format_version", lambda: int(header.get("format_version", 0)))
    if version > FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format revision {version} is newer than supported "
            f"{FORMAT_VERSION}"
        )
    return header, blob[off + hlen :]


def write_field(field: synthesis.FieldGrid, path: str, run: str | None = None) -> None:
    """Write a FieldGrid to ``path`` atomically in the ZHFIELD1 layout."""
    header = {
        "format_version": FORMAT_VERSION,
        "meta": dict(field.meta),
    }
    if run is not None:
        header["run"] = run
    bounds = field.meta.get("bounds")
    shape = field.meta.get("shape")
    canonical_axes = False
    if bounds is not None and shape is not None and tuple(shape) == field.shape:
        ref = synthesis.grid_axes(tuple(tuple(b) for b in bounds), tuple(shape))
        canonical_axes = all(
            np.array_equal(a, r) for a, r in zip(field.axes, ref)
        )
    if not canonical_axes:
        # exact decimal round-trip for hand-built axes that are not a
        # bounds/shape lattice
        header["axes"] = [[repr(float(x)) for x in ax] for ax in field.axes]
    values = np.ascontiguousarray(field.values, dtype="<f8")
    atomic_write_bytes(path, _envelope_bytes(FIELD_MAGIC, header, values.tobytes()))


def read_field(path: str) -> synthesis.FieldGrid:
    """Read a ZHFIELD1 file back into a FieldGrid (lossless round-trip)."""
    header, payload = _read_envelope(path, FIELD_MAGIC)
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise FieldFormatError(f"{path}: header lacks a meta object")
    if "axes" in header:
        axes = _parse(path, "axes", lambda: tuple(
            np.array([float(x) for x in ax], dtype=float) for ax in header["axes"]
        ))
        shape = tuple(len(ax) for ax in axes)
    else:
        bounds, shape = _parse(path, "axes or bounds/shape", lambda: (
            tuple(tuple(b) for b in meta["bounds"]), tuple(int(s) for s in meta["shape"])
        ))
        axes = None  # built once the payload is known to hold the shape
    components = _parse(path, "components", lambda: int(meta.get("components", 1)))
    if components < 1:
        raise FieldFormatError(f"{path}: header declares {components} components")
    expected = components * math.prod(shape) * 8
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, header declares "
            f"{expected}"
        )
    if axes is None:
        axes = synthesis.grid_axes(bounds, shape)
    values = np.frombuffer(payload[:expected], dtype="<f8").reshape(
        (components,) + shape
    )
    return synthesis.FieldGrid(axes=axes, values=values.copy(), meta=meta)


def write_coefficients(
    atoms: lepage.LePageAtoms,
    alpha: float,
    n: int,
    M: float,
    path: str,
    hurst=None,
    run: str | None = None,
) -> dict:
    """Write the truncated coefficient tensor in lexicographic (J, K) order."""
    chunks = []
    j_list = []
    for j1, j2, block in lepage.coefficient_blocks(atoms, alpha, n, M):
        j_list.append([j1, j2])
        chunks.append(np.ascontiguousarray(block, dtype="<c8").tobytes())
    k_cap = synthesis.TruncationDomain(n, M).k_cap
    header = {
        "format_version": FORMAT_VERSION,
        "seed": atoms.seed,
        "n": int(n),
        "M": float(M),
        "alpha": float(alpha),
        "H": list(hurst) if hurst is not None else None,
        "count": int(atoms.count),
        "k_cap": int(k_cap),
        "blocks": j_list,
        "version": synthesis.VERSION,
    }
    if run is not None:
        header["run"] = run
    atomic_write_bytes(path, _envelope_bytes(COEFF_MAGIC, header, b"".join(chunks)))
    return header


def read_coefficients(path: str):
    """Read a ZHCOEFF1 file -> (header, {(j1, j2): block complex64 array})."""
    header, payload = _read_envelope(path, COEFF_MAGIC)
    k_cap, j_list = _parse(path, "coefficient header", lambda: (
        int(header["k_cap"]), [tuple(int(j) for j in pair) for pair in header["blocks"]]
    ))
    side = 2 * k_cap + 1
    per_block = side * side * 8
    if len(payload) < per_block * len(j_list):
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, header declares "
            f"{per_block * len(j_list)}"
        )
    blocks = {}
    for i, pair in enumerate(j_list):
        raw = payload[i * per_block : (i + 1) * per_block]
        blocks[pair] = np.frombuffer(raw, dtype="<c8").reshape(side, side).copy()
    return header, blocks


def write_csv(path: str, header, rows, run: str | None = None) -> None:
    """Write an RFC-4180 CSV (header row, CRLF, minimal quoting) atomically.

    When ``run`` is given, a trailing ``manifest`` column carries the digest
    of the producing run on every row.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    if run is None:
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    else:
        writer.writerow(list(header) + ["manifest"])
        for row in rows:
            writer.writerow(list(row) + [run])
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation.

    The manifest digest is the SHA-256 of the canonical JSON of the run
    identity: subcommand, seeds, data-determining parameters, software
    version, and input digests. The full command line, wall-clock time, and
    output digests are recorded in the manifest file but excluded from the
    digest, so reruns (and runs that differ only in worker count or output
    paths) reference the same digest and produce byte-identical artifacts.
    """

    subcommand: str
    command: list
    seeds: list
    parameters: dict
    version: str = synthesis.VERSION
    input_digests: dict = dc_field(default_factory=dict)
    output_digests: dict = dc_field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def digest(self) -> str:
        core = {
            "subcommand": self.subcommand,
            "seeds": list(self.seeds),
            "parameters": self.parameters,
            "version": self.version,
            "input_digests": self.input_digests,
        }
        return sha256_hex(canonical_json(core).encode("utf-8"))

    def write(self, path: str) -> str:
        digest = self.digest()
        record = {
            "subcommand": self.subcommand,
            "command": list(self.command),
            "seeds": list(self.seeds),
            "parameters": self.parameters,
            "version": self.version,
            "input_digests": self.input_digests,
            "output_digests": self.output_digests,
            "manifest_digest": digest,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        atomic_write_text(path, canonical_json(record) + "\n")
        return digest
