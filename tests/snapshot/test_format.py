"""Snapshot wire format: header, refusal by build, safety."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Machine, MachineConfig
from repro.errors import ReproError, SnapshotError, SnapshotVersionError
from repro.net.pool import PacketPool
from repro.snapshot import MAGIC, restore, snapshot
from repro.snapshot.format import _HEADER, build

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _framed(payload: bytes, changed: tuple = ()) -> bytes:
    """A blob over ``payload`` from a build whose ``changed`` source
    files differ from this one's (none: this build)."""
    table = json.loads(build()[1])
    table.update(dict.fromkeys(changed, "0" * 16))
    table = json.dumps(table, separators=(",", ":")).encode()
    digest = hashlib.blake2b(table, digest_size=16).digest()
    return _HEADER.pack(MAGIC, digest, len(table)) + table + payload


def test_blob_starts_with_magic():
    assert snapshot({"a": 1}).startswith(MAGIC)


def test_round_trip_plain_data():
    obj = {"x": [1, 2, 3], "y": (4, 5), "z": b"bytes", "w": {6, 7}}
    assert restore(snapshot(obj)) == obj


def test_round_trip_preserves_shared_references():
    inner = [1, 2, 3]
    obj = {"a": inner, "b": inner}
    out = restore(snapshot(obj))
    out["a"].append(4)
    assert out["b"] == [1, 2, 3, 4]


def test_snapshot_is_deterministic_for_a_machine():
    machine = Machine(config=MachineConfig(mem_size=1 << 18))
    machine.run_until_idle()
    assert snapshot(machine) == snapshot(machine)


def test_short_blob_rejected():
    with pytest.raises(SnapshotError):
        restore(b"xx")


def test_bad_magic_rejected():
    blob = bytearray(snapshot([1]))
    blob[:8] = b"NOTSNAPS"
    with pytest.raises(SnapshotError, match="magic"):
        restore(bytes(blob))


def test_version_mismatch_raises_typed_error():
    # A build whose cpu/cpu.py differs: refused before the (garbage)
    # payload is read, naming the one file that differs.
    blob = _framed(b"\xff" * 32, changed=("cpu/cpu.py",))
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.changed == ["cpu/cpu.py"]
    assert "cpu/cpu.py" in str(excinfo.value)


def test_version_error_is_a_snapshot_and_repro_error():
    assert issubclass(SnapshotVersionError, SnapshotError)
    assert issubclass(SnapshotError, ReproError)


def test_version_check_precedes_payload_decode():
    # A foreign build's digest glued onto unreadable garbage (no table
    # at all) must still produce the build diagnosis, never an
    # unpickling error.
    blob = _HEADER.pack(MAGIC, b"\x01" * 16, 0) + b"\xff" * 32
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.changed == []


def test_corrupt_uncompressed_payload_rejected():
    blob = bytearray(snapshot([1, 2, 3]))
    blob[_HEADER.size + len(build()[1])] ^= 0xFF
    with pytest.raises(SnapshotError):
        restore(bytes(blob))


def test_disallowed_global_rejected():
    # A blob naming a module outside the allow-list must be refused at
    # the unpickler, regardless of what the object would do.
    blob = _framed(pickle.dumps(os.getcwd))
    with pytest.raises(SnapshotError, match="os"):
        restore(blob)


def test_unsnapshottable_object_raises_at_capture():
    with pytest.raises(SnapshotError, match="not snapshottable"):
        snapshot(lambda: None)


def test_golden_version0_fixture_refused():
    """The committed blob in the old version-numbered header layout must
    stay refusable forever, with a diagnosable error instead of garbage.
    """
    with open(os.path.join(DATA_DIR, "snapshot_v0.snap"), "rb") as fh:
        blob = fh.read()
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.changed == []
    assert "older header layout" in str(excinfo.value)


_EDITED_COPY = """
import sys
from pathlib import Path
import repro
from repro.errors import SnapshotVersionError
from repro.net.pool import PacketPool
from repro.snapshot import restore, snapshot

assert Path(repro.__file__).parent == Path(sys.argv[2]), repro.__file__
try:
    restore(Path(sys.argv[1]).read_bytes())
except SnapshotVersionError as exc:
    assert exc.changed == ["net/pool.py"], exc.changed
    assert "net/pool.py" in str(exc), str(exc)
else:
    raise SystemExit("restored a blob written by another build")
assert restore(snapshot(PacketPool())).spare == 0
"""


def test_blob_from_another_build_refused_naming_the_edited_file(tmp_path):
    """A component that gains an attribute makes every blob written
    before the edit unreadable, by itself: the copy of the package with
    one line added to ``PacketPool.__init__`` refuses this build's blob,
    naming ``net/pool.py``, and restores its own."""
    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    pool = copy / "net" / "pool.py"
    anchor = "        self.packet_reuses = 0\n"
    assert anchor in pool.read_text()
    pool.write_text(pool.read_text().replace(
        anchor, anchor + "        self.spare = 0\n", 1))
    blob = tmp_path / "this_build.snap"
    blob.write_bytes(snapshot(PacketPool()))
    run = subprocess.run(
        [sys.executable, "-c", _EDITED_COPY, str(blob), str(copy)],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
