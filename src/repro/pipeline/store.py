"""Crash-safe checkpoint persistence.

The paper's three-year weekly campaign only works if an interrupted run
can resume without losing (or corrupting) the accumulated state.  A
:class:`CheckpointStore` makes the engine's pickled
:class:`~repro.pipeline.engine.Checkpoint` durable against the two ways
long-running collectors actually lose data:

* **torn writes** — the process (or machine) dies mid-write, leaving a
  truncated file.  Every write here goes through
  :func:`atomic_write_bytes`: the bytes land in a temp file in the same
  directory, are fsync'd, and only then renamed over the target, so a
  checkpoint file either exists whole or not at all;
* **silent corruption** — a file exists but its content is damaged.
  Every checkpoint is framed with a magic/version/length header and a
  sha256 digest of the payload, and :meth:`CheckpointStore.load_latest`
  verifies the frame before unpickling, skipping damaged files and
  falling back to the newest intact one.  What it skipped (and why) is
  reported in :attr:`CheckpointStore.last_recovery`.

A third failure is a checkpoint that is intact but stale: its engine
blob pickles classes an older build had and this one does not.
:meth:`CheckpointStore.restore_latest` skips such a file the same way,
naming the unpickling error as the reason.

The store keeps the last ``keep`` checkpoints and rotates older ones
out, so a corrupted newest file never strands the run: the previous
snapshot is still on disk.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.obs import OBS
from repro.pipeline.engine import Checkpoint, PipelineEngine

T = TypeVar("T")

#: Frame layout: magic, format version, payload length, then the sha256
#: digest of the payload, then the pickled :class:`Checkpoint`.
MAGIC = b"RCKP"
VERSION = 1
_FRAME = struct.Struct("<4sHQ")
_DIGEST_SIZE = hashlib.sha256().digest_size
HEADER_SIZE = _FRAME.size + _DIGEST_SIZE

_FILE_PREFIX = "ckpt-"
_FILE_SUFFIX = ".ckpt"


class CheckpointCorruptError(Exception):
    """A checkpoint file failed frame or checksum validation."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so it appears whole or not at all.

    tmp + fsync + rename in the target's own directory (rename is only
    atomic within one filesystem), then an fsync of the directory so
    the rename itself survives a crash.  On any failure the temp file
    is removed and the old target — if one existed — is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomic counterpart of ``open(path, "w").write(text)``."""
    atomic_write_bytes(path, text.encode(encoding))


def encode_checkpoint(checkpoint: Checkpoint) -> bytes:
    """Frame one checkpoint: header + sha256 + pickled payload."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _FRAME.pack(MAGIC, VERSION, len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def decode_checkpoint(data: bytes) -> Checkpoint:
    """Validate a frame and return its checkpoint.

    Raises :class:`CheckpointCorruptError` naming the first failed
    check — torn header, bad magic, unknown version, truncated payload,
    checksum mismatch, or an unpicklable / wrong-typed payload.
    """
    if len(data) < HEADER_SIZE:
        raise CheckpointCorruptError(
            f"torn header: {len(data)} bytes, need {HEADER_SIZE}"
        )
    magic, version, length = _FRAME.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointCorruptError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointCorruptError(f"unsupported version {version}")
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"torn payload: {len(payload)} bytes, header promises {length}"
        )
    digest = data[_FRAME.size:HEADER_SIZE]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorruptError("payload checksum mismatch")
    try:
        checkpoint = pickle.loads(payload)
    except Exception as error:
        raise CheckpointCorruptError(f"payload does not unpickle: {error}")
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointCorruptError(
            f"payload is {type(checkpoint).__name__}, not Checkpoint"
        )
    return checkpoint


@dataclass
class RecoveryReport:
    """What one :meth:`CheckpointStore.load_latest` call found.

    ``loaded`` is the filename of the checkpoint actually restored
    (``None`` when the store held nothing intact); ``skipped`` lists
    every newer file that failed validation, with the reason, so an
    operator can see what the recovery stepped past.
    """

    loaded: Optional[str] = None
    skipped: List[Tuple[str, str]] = field(default_factory=list)


class CheckpointStore:
    """Durable keep-last-N checkpoint files under one directory.

    Filenames carry a monotonically increasing sequence number (plus
    the week index, for humans), so "latest" is a pure filename sort —
    no mtime races, no clock dependencies.
    """

    def __init__(self, directory: str, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        os.makedirs(self.directory, exist_ok=True)
        #: Outcome of the most recent :meth:`load_latest` call.
        self.last_recovery: Optional[RecoveryReport] = None

    # -- inventory --------------------------------------------------------

    def paths(self) -> List[str]:
        """Checkpoint file paths, oldest first (sequence order)."""
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    @staticmethod
    def _sequence(path: str) -> int:
        name = os.path.basename(path)
        try:
            return int(name[len(_FILE_PREFIX):].split("-", 1)[0])
        except ValueError:
            return -1

    # -- writing ----------------------------------------------------------

    def save(self, checkpoint: Checkpoint) -> str:
        """Durably write one checkpoint; rotate past ``keep``; return path."""
        existing = self.paths()
        sequence = max(
            (self._sequence(path) for path in existing), default=-1
        ) + 1
        name = f"{_FILE_PREFIX}{sequence:06d}-w{checkpoint.week_index:04d}{_FILE_SUFFIX}"
        path = os.path.join(self.directory, name)
        atomic_write_bytes(path, encode_checkpoint(checkpoint))
        if OBS.enabled:
            OBS.metrics.inc("checkpoint.writes")
        for stale in (existing + [path])[: -self.keep]:
            try:
                os.unlink(stale)
            except OSError:
                pass
        return path

    # -- reading ----------------------------------------------------------

    def load(self, path: str) -> Checkpoint:
        """Read and validate one checkpoint file."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise CheckpointCorruptError(f"unreadable: {error}")
        return decode_checkpoint(data)

    def load_latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that validates, or ``None``.

        Damaged files are skipped (never deleted — they are forensic
        evidence) and recorded in :attr:`last_recovery` with the
        validation failure that disqualified them.
        """
        return self._recover(self.load)

    def restore_latest(self) -> Optional[PipelineEngine]:
        """The engine of the newest checkpoint that validates and restores.

        Like :meth:`load_latest`, but a file whose engine blob does not
        unpickle — written by a build whose classes have since moved or
        gone — is skipped too, with the unpickling error as its reason.
        """
        return self._recover(lambda path: _restore(self.load(path)))

    def _recover(self, open_path: Callable[[str], T]) -> Optional[T]:
        """Newest-first scan: the first path ``open_path`` accepts."""
        report = RecoveryReport()
        self.last_recovery = report
        recovered: Optional[T] = None
        with OBS.tracer.span("checkpoint.recover", dir=self.directory):
            for path in reversed(self.paths()):
                try:
                    recovered = open_path(path)
                except CheckpointCorruptError as error:
                    report.skipped.append((os.path.basename(path), str(error)))
                    if OBS.enabled:
                        OBS.metrics.inc("checkpoint.corrupt_skipped")
                    continue
                report.loaded = os.path.basename(path)
                break
        return recovered

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CheckpointStore({self.directory!r}, keep={self.keep}, files={len(self.paths())})"


def _restore(checkpoint: Checkpoint) -> PipelineEngine:
    try:
        return PipelineEngine.restore(checkpoint)
    except Exception as error:
        raise CheckpointCorruptError(
            f"engine blob does not unpickle: {type(error).__name__}: {error}"
        )
