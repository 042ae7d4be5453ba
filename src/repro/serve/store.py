"""Sharded content-addressed module store: the serving-side twin of
:class:`repro.cache.DictionaryStore`.

Modules are keyed by the SHA-256 hex of their exact distribution bytes
-- a v1 stream and a v2 envelope of the same compilation are distinct
units, each fetchable under its own digest (the envelope's dictionary
blobs resolve separately through the
:class:`~repro.cache.DictionaryStore`).  Content addressing means
"present but wrong" is impossible by construction: a disk blob that no
longer hashes to its name is treated as absent, never served.

On disk the store shards by the first two hex characters
(``<root>/ab/<digest>.stsa``), the standard fan-out that keeps any one
directory's entry count ~1/256th of the population -- directory scans
stay cheap at millions of modules.  Writes are atomic
(:class:`~repro.cache.ContentStore`), so a concurrent reader sees the
old blob, the new blob, or a miss -- never a partial file.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.cache import ContentStore

_DIGEST_HEX = 64


def wire_digest(wire: bytes) -> str:
    """Content address of one distribution unit: sha256 hex of its
    exact bytes."""
    return hashlib.sha256(wire).hexdigest()


def is_digest(text: str) -> bool:
    """Syntactic check for a full module digest (64 lowercase hex)."""
    return (len(text) == _DIGEST_HEX
            and all(c in "0123456789abcdef" for c in text))


class ModuleStore(ContentStore):
    """Maps wire digests to distribution bytes, sharded on disk."""

    def __init__(self, root: Optional[str] = None):
        super().__init__(".stsa", root, shard=True)

    def _decode(self, key: str, data: bytes) -> Optional[bytes]:
        # damaged shard: absent, never wrong
        return data if wire_digest(data) == key else None

    def put(self, wire: bytes) -> str:
        """Store ``wire``; returns its digest.  Idempotent -- storing
        the same bytes twice is one entry (and one disk write)."""
        digest = wire_digest(wire)
        if digest not in self._memory:
            super().put(digest, bytes(wire))
        return digest

    def get(self, digest: str) -> Optional[bytes]:
        if not is_digest(digest):
            self.misses += 1  # never let a malformed key become a path
            return None
        return super().get(digest)

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None

    @property
    def gets(self) -> int:
        return self.hits + self.misses

    def total_bytes(self) -> int:
        """Bytes held in memory (the serving working set)."""
        return sum(len(wire) for wire in self._memory.values())

    def stats(self) -> dict:
        return {"entries": len(self), "bytes": self.total_bytes(),
                "puts": self.puts, "gets": self.gets}
