"""The snapshot wire format: a build-stamped header over a pickle.

Layout (integers little-endian, fixed width)::

    offset  size  field
    0       8     MAGIC          b"SHRIMPSN"
    8       16    build          blake2b-128 of the source table
    24      4     table length   uint32
    28      n     table          JSON {path: blake2b-64 hex} of repro/*.py
    28+n    ...   payload        pickle

Restore-equivalence is a promise about one build, so a blob restores
only under the source that wrote it: no version to keep, no migration.
The build is compared *before* any unpickling; on a mismatch the blob's
table (JSON, never pickle) names the source files that differ.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import pickle
import struct
from pathlib import Path

from repro.errors import SnapshotError, SnapshotVersionError

#: identifies a blob as a simulator snapshot before anything is trusted
MAGIC = b"SHRIMPSN"

_HEADER = struct.Struct("<8s16sI")
_PACKAGE = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def build() -> tuple[bytes, bytes]:
    """``(digest, table)`` of the ``repro`` source in this process.

    ``table`` is JSON mapping every ``*.py`` under the package (path
    relative to it) to a blake2b-64 of its bytes; ``digest`` is the
    blake2b-128 of ``table``.  Computed once per process.
    """
    table = json.dumps({
        path.relative_to(_PACKAGE).as_posix():
            hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
        for path in sorted(_PACKAGE.rglob("*.py"))
    }, separators=(",", ":")).encode()
    return hashlib.blake2b(table, digest_size=16).digest(), table


def encode(obj: object) -> bytes:
    """Serialise ``obj`` into a build-stamped snapshot blob."""
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"object graph is not snapshottable: {exc}"
        ) from exc
    digest, table = build()
    return _HEADER.pack(MAGIC, digest, len(table)) + table + payload


def decode(blob: bytes) -> object:
    """Parse a snapshot blob back into the object graph it captured."""
    if len(blob) < _HEADER.size:
        raise SnapshotError(
            f"blob is {len(blob)} bytes, shorter than the "
            f"{_HEADER.size}-byte snapshot header"
        )
    magic, digest, size = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(f"bad magic {magic!r}: not a simulator snapshot")
    start = _HEADER.size + size
    if digest != build()[0]:
        raise SnapshotVersionError(_changed(blob[_HEADER.size:start]))
    try:
        return _RestrictedUnpickler(io.BytesIO(blob[start:])).load()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc


def _changed(table: bytes) -> list[str]:
    """Source files whose digest in ``table`` differs from this build's,
    or ``[]`` if ``table`` is not a table (an older header layout)."""
    ours = json.loads(build()[1])
    try:
        theirs = json.loads(table)
        return sorted(path for path in ours.keys() | theirs.keys()
                      if ours.get(path) != theirs.get(path))
    except (ValueError, AttributeError):  # not JSON, or not a JSON object
        return []


class _RestrictedUnpickler(pickle.Unpickler):
    """Refuses globals outside the simulator and the stdlib.

    Snapshots are produced and consumed by the same trusted process
    family (checkpointing, test tiers), but CI also round-trips blobs
    through artifact uploads; limiting resolvable globals keeps a
    tampered artifact from importing arbitrary code on load.
    """

    _ALLOWED_ROOTS = frozenset(
        {
            "repro",
            "builtins",
            "collections",
            "_collections",
            "functools",
            "_functools",
            "itertools",
            "operator",
            "_operator",
            "copyreg",
        }
    )

    def find_class(self, module: str, name: str):
        if module.split(".", 1)[0] in self._ALLOWED_ROOTS:
            return super().find_class(module, name)
        raise SnapshotError(
            f"snapshot references disallowed global {module}.{name}"
        )
