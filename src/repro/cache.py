"""Content-addressed caches and stores over one storage primitive.

Every persistent namespace in the project -- the compilation cache,
the verified-module cache, the v2 dictionary store, the trace cache
and the serving module store (:mod:`repro.serve.store`) -- is a thin
subclass of :class:`ContentStore`.  Each keeps only its key derivation
and its value format; the store owns the in-memory map, the optional
directory, the file name for a key, the atomic write, the
read-through, and the hit/miss counters.

All of them are advisory, never load-bearing for soundness: the wire
format is self-validating (decoding re-verifies every reference), so
whatever a store returns is re-fed to the verifying decoder, and a
damaged or other-version file reads as *absent*.

The process-wide defaults below are enabled by the ``REPRO_CACHE_DIR``
environment variable: unset leaves the caches off, ``""`` keeps them
in memory, and a path persists every namespace under it, one file per
key (``<key>.stsa``, ``.verified``, ``.blob``, ``.trace``).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import threading
from pathlib import Path
from typing import Optional

from repro.encode.common import wire_format_version

#: Bump when the wire format (or anything the key does not capture)
#: changes meaning; old entries then miss instead of decoding garbage.
FORMAT_VERSION = "stsa1"

#: Version tag for persisted trace-cache entries; bumping it makes old
#: entries miss instead of replaying paths over a changed recorder.
TRACE_FORMAT_VERSION = "stsa-trace1"


class ContentStore:
    """One namespace: a memory map in front of an optional directory.

    ``suffix`` names the namespace's files (``<key><suffix>``), and
    ``shard`` files them under the key's first two characters instead
    (``<dir>/ab/<key><suffix>``).  Subclasses override :meth:`_encode`
    and :meth:`_decode` for their value format; the default stores
    bytes as they are.
    """

    def __init__(self, suffix: str, directory: Optional[str] = None, *,
                 shard: bool = False):
        self._suffix = suffix
        self._dir = Path(directory) if directory else None
        self._shard = shard
        self._memory: dict = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        name = f"{key}{self._suffix}"
        return self._dir / key[:2] / name if self._shard \
            else self._dir / name

    def _encode(self, value) -> bytes:
        return value

    def _decode(self, key: str, data: bytes):
        """The value a file under ``key`` holds, or None when the file
        is damaged or in another format version: absent, never wrong."""
        return data

    def get(self, key: str):
        value = self._memory.get(key)
        if value is None and self._dir is not None:
            path = self._path(key)
            if path.is_file():
                value = self._decode(key, path.read_bytes())
                if value is not None:
                    self._memory[key] = value
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        if self._dir is not None:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: a concurrent reader sees the old entry,
            # the new entry, or a miss -- never a partial file
            fd, temp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(self._encode(value))
                os.replace(temp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp)
                raise
        self._memory[key] = value
        self.puts += 1

    def clear(self) -> None:
        """Drop every entry of this namespace, in memory and on disk;
        other namespaces sharing the directory keep theirs."""
        self._memory.clear()
        self.hits = self.misses = self.puts = 0
        if self._dir is not None and self._dir.is_dir():
            pattern = ("*/*" if self._shard else "*") + self._suffix
            for path in self._dir.glob(pattern):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # an *empty* store is still an enabled store: without this,
        # ``if cache:`` at the call sites would fall through __len__
        # and silently disable caching until the first entry lands
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
                "entries": len(self)}


def _versioned_rows(data: bytes, version: str) -> Optional[list[str]]:
    """The rows of a versioned text entry, or None for another version
    or undecodable bytes."""
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError:
        return None
    if not lines or lines[0] != version:
        return None
    return lines[1:]


class CompilationCache(ContentStore):
    """Maps compilation keys to encoded module bytes, counting hits.

    The producer side of the pipeline (parse, semantic analysis, SSA
    construction, optimisation) is the expensive half; the consumer
    side (decode + verify) is cheap by design -- the paper's asymmetry,
    and the reason mobile-code results are worth caching as *encoded
    modules* rather than in-memory objects.  A hit replays the
    consumer path only:

        key  = SHA-256 over (format version, pipeline flags, source text)
        value = the encoded ``.stsa`` bytes for that exact compilation

    A stale or corrupted entry can produce a ``DecodeError`` but never
    an unsound module.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(".stsa", cache_dir)

    @staticmethod
    def key(source: str, format_version: str = FORMAT_VERSION,
            **flags) -> str:
        """Content address of one compilation (source + pipeline flags).

        ``format_version`` is the *wire* format the entry's bytes are
        in ("stsa1" by default, "stsa2" for enveloped output): a v1 and
        a v2 encoding of the same compilation can never collide.
        """
        hasher = hashlib.sha256()
        hasher.update(format_version.encode())
        for name in sorted(flags):
            hasher.update(f"\x00{name}={flags[name]!r}".encode())
        hasher.update(b"\x00\x00")
        hasher.update(source.encode("utf-8"))
        return hasher.hexdigest()


class VerifiedModuleCache(ContentStore):
    """Remembers which wire streams already passed verification.

    The fused loader keys on the SHA-256 of the exact wire bytes; a hit
    records that those bytes decoded and verified cleanly once, plus the
    per-function ``(start_bit, end_bit)`` body boundaries the sequential
    decode observed.  A warm load then skips the residual verification
    sweeps and can seek straight to individual bodies (lazy random
    access) -- seeks the format itself cannot offer, having no length
    prefixes.

    The decode itself still runs with every safety-by-construction
    check, so a stale or corrupted entry can produce a ``DecodeError``
    but never an unsound module.  Boundaries are re-checked against the
    stream end on use.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(".verified", cache_dir)

    @staticmethod
    def key(wire: bytes) -> str:
        """Content address of one distribution unit: its detected wire
        format version plus its exact bytes.  Mixing the version in
        means a v1 stream and a v2 envelope can never collide even if
        a hostile envelope embedded v1 bytes verbatim."""
        hasher = hashlib.sha256()
        hasher.update(FORMAT_VERSION.encode())
        hasher.update(b"\x00")
        hasher.update(wire_format_version(wire).encode())
        hasher.update(b"\x00verified\x00")
        hasher.update(wire)
        return hasher.hexdigest()

    def put(self, key: str, boundaries: list[tuple[int, int]]) -> None:
        super().put(key, list(boundaries))

    def _encode(self, boundaries: list[tuple[int, int]]) -> bytes:
        return (FORMAT_VERSION + "\n" + "".join(
            f"{start} {end}\n" for start, end in boundaries)).encode()

    def _decode(self, key: str,
                data: bytes) -> Optional[list[tuple[int, int]]]:
        rows = _versioned_rows(data, FORMAT_VERSION)
        if rows is None:
            return None
        try:
            boundaries = []
            for row in rows:
                start, end = row.split()
                boundaries.append((int(start), int(end)))
            return boundaries
        except ValueError:
            return None  # damaged entry: miss, the cold path re-runs


class DictionaryStore(ContentStore):
    """Content-addressed blob store for wire-format v2 sections.

    Shared dictionaries and delta bases are named by their raw SHA-256
    digest -- the 32 bytes an envelope actually carries -- so "present
    but wrong" is impossible by construction: a blob that does not hash
    to its key is treated as absent (and the envelope's resolution then
    rejects with a stable ``DEC-*`` code).

    Memory-only by default; with ``cache_dir`` blobs persist as
    ``<digest-hex>.blob`` files.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(".blob", cache_dir)

    def _decode(self, key: str, data: bytes) -> Optional[bytes]:
        # damaged blob: absent, not wrong
        return data if hashlib.sha256(data).hexdigest() == key else None

    def put(self, blob: bytes) -> bytes:
        """Publish ``blob``; returns its 32-byte content address."""
        digest = hashlib.sha256(blob).digest()
        if digest.hex() not in self._memory:
            super().put(digest.hex(), bytes(blob))
        return digest

    def get(self, digest: bytes) -> Optional[bytes]:
        return super().get(digest.hex())

    def __contains__(self, digest: bytes) -> bool:
        return self.get(digest) is not None


class TraceCache(ContentStore):
    """Remembers which hot paths a module's loops compiled to traces.

    Keyed on ``(wire digest, qualified function name, header index)``
    with the recorded path stored as *reachable-block indices* -- block
    ids are process-local serials and do not survive a re-decode, but
    the deterministic ``reachable_blocks()`` order does.  A warm
    process (the serve path re-running a cached module) re-creates the
    compiled traces straight from the cache and skips the whole
    count/record cycle.

    The trace compiler re-derives guards and phi moves from the
    decoded SSA, so a stale path at worst fails to compile (cold
    behaviour), never produces a wrong trace.

    Memory-only by default; with ``cache_dir`` each digest persists as
    a ``<digest>.trace`` file holding all of that digest's entries.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(".trace", cache_dir)
        # puts merge into a digest's entries; concurrent /v1/run
        # threads would otherwise lose each other's entries
        self._merge_lock = threading.Lock()

    def get(self, digest: str) -> dict[tuple[str, int], tuple[int, ...]]:
        entries = super().get(digest)
        return dict(entries) if entries is not None else {}

    def put(self, digest: str, name: str, header_index: int,
            path_indices: tuple[int, ...]) -> None:
        key = (name, int(header_index))
        with self._merge_lock:
            entries = dict(self._memory.get(digest, {}))
            if entries.get(key) == tuple(path_indices):
                return
            entries[key] = tuple(path_indices)
            super().put(digest, entries)

    def _encode(self, entries) -> bytes:
        lines = [TRACE_FORMAT_VERSION]
        for (name, header), indices in sorted(entries.items()):
            lines.append(f"{name}\t{header}\t"
                         + ",".join(str(i) for i in indices))
        return ("\n".join(lines) + "\n").encode()

    def _decode(
            self, key: str, data: bytes
    ) -> Optional[dict[tuple[str, int], tuple[int, ...]]]:
        rows = _versioned_rows(data, TRACE_FORMAT_VERSION)
        if rows is None:
            return None
        try:
            entries: dict[tuple[str, int], tuple[int, ...]] = {}
            for row in rows:
                name, header, joined = row.split("\t")
                # an empty path is a persisted blacklist: "this header
                # never traces profitably, skip the count/record cycle"
                entries[(name, int(header))] = tuple(
                    int(i) for i in joined.split(",")) if joined else ()
            return entries or None
        except ValueError:
            return None  # damaged entry: miss, traces re-record

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._memory.values())


def default_dictionary_store() -> DictionaryStore:
    """The process-wide dictionary store.  Always present (an empty
    store deterministically rejects every digest reference), persisted
    in the cache directory when one is configured."""
    return _DEFAULT_DICTS


def default_module_cache() -> Optional[VerifiedModuleCache]:
    """The process-wide verified-module cache, enabled alongside the
    compilation cache."""
    return _DEFAULT_MODULES


def default_trace_cache() -> Optional[TraceCache]:
    """The process-wide trace cache, enabled alongside the other
    caches."""
    return _DEFAULT_TRACES


def default_cache() -> Optional[CompilationCache]:
    """The process-wide compilation cache (None when caching is off)."""
    return _DEFAULT


#: None: process-wide caches off; "": memory-only; else the directory
_CACHE_DIR: Optional[str] = os.environ.get("REPRO_CACHE_DIR")
_DEFAULT: Optional[CompilationCache] = None
_DEFAULT_MODULES: Optional[VerifiedModuleCache] = None
_DEFAULT_TRACES: Optional[TraceCache] = None
if _CACHE_DIR is not None:
    _DEFAULT = CompilationCache(_CACHE_DIR)
    _DEFAULT_MODULES = VerifiedModuleCache(_CACHE_DIR)
    _DEFAULT_TRACES = TraceCache(_CACHE_DIR)
_DEFAULT_DICTS: DictionaryStore = DictionaryStore(_CACHE_DIR)
