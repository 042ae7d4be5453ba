"""One storage contract over every content-addressed namespace.

The compilation cache, the verified-module cache, the v2 dictionary
store, the trace cache and the serving module store all sit on
:class:`repro.cache.ContentStore`.  Each case below runs over every
namespace it applies to; where a namespace-specific test elsewhere
already pins a case, the comment names it instead of repeating it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from typing import Callable, NamedTuple

import pytest

from repro.api import compile_source
from repro.cache import (
    CompilationCache,
    DictionaryStore,
    TraceCache,
    VerifiedModuleCache,
)
from repro.encode.deserializer import DecodeError
from repro.serve.store import ModuleStore

WIRE = b"sample distribution bytes"
DIGEST = hashlib.sha256(WIRE).hexdigest()


def _put_compilation(store) -> str:
    key = CompilationCache.key("class C {}")
    store.put(key, WIRE)
    return key


def _put_verified(store) -> str:
    key = VerifiedModuleCache.key(WIRE)
    store.put(key, [(8, 40), (40, 64)])
    return key


def _put_trace(store) -> str:
    store.put(DIGEST, "Main.main", 2, (2, 3, 4))
    return DIGEST


class Namespace(NamedTuple):
    make: Callable  # (directory or None) -> store
    suffix: str
    put: Callable  # store -> lookup key of one sample entry
    value: object  # what ``get(key)`` returns for that entry
    absent: object  # what ``get`` returns on a miss


NAMESPACES = {
    "compilation": Namespace(CompilationCache, ".stsa", _put_compilation,
                             WIRE, None),
    "verified": Namespace(VerifiedModuleCache, ".verified", _put_verified,
                          [(8, 40), (40, 64)], None),
    "dictionary": Namespace(DictionaryStore, ".blob",
                            lambda store: store.put(WIRE), WIRE, None),
    "trace": Namespace(TraceCache, ".trace", _put_trace,
                       {("Main.main", 2): (2, 3, 4)}, {}),
    "module": Namespace(ModuleStore, ".stsa",
                        lambda store: store.put(WIRE), WIRE, None),
}

#: the namespaces ``REPRO_CACHE_DIR`` puts side by side in one directory
SHARED_DIR = ("compilation", "verified", "dictionary", "trace")


# compilation, verified and module persistence: test_disk_persistence,
# test_persists_across_instances, test_disk_shards_round_trip
@pytest.mark.parametrize("name", ["dictionary", "trace"])
def test_entry_is_read_again_by_a_fresh_instance(name, tmp_path):
    namespace = NAMESPACES[name]
    key = namespace.put(namespace.make(str(tmp_path)))
    fresh = namespace.make(str(tmp_path))
    assert fresh.get(key) == namespace.value
    assert len(fresh) == 1


# damaged verified, dictionary and module entries:
# test_damaged_entry_is_a_miss, test_damaged_store_blob_is_absent_not_wrong,
# test_damaged_shard_is_absent_never_wrong
@pytest.mark.parametrize("text", [
    b"stsa-trace1\nMain.main\tnot-a-number\t2,3,4\n",
    b"stsa-trace1\nMain.main\t2\n",
    b"stsa-trace0\nMain.main\t2\t2,3,4\n",
    b"\xff\xfe not text",
], ids=["bad-number", "short-row", "other-version", "not-utf8"])
def test_damaged_trace_entry_is_a_miss(text, tmp_path):
    key = _put_trace(TraceCache(str(tmp_path)))
    path, = tmp_path.glob("*.trace")
    path.write_bytes(text)
    fresh = TraceCache(str(tmp_path))
    assert fresh.get(key) == {}
    assert fresh.stats()["misses"] == 1 and len(fresh) == 0


def test_damaged_compilation_entry_is_rejected_never_loaded(tmp_path):
    # bytes carry no checksum here: the verifying load is the check
    source = "class C { static int f() { return 41 + 1; } }"
    compile_source(source, cache=CompilationCache(str(tmp_path)))
    path, = tmp_path.glob("*.stsa")
    path.write_bytes(b"\x00garbage")
    with pytest.raises(DecodeError):
        compile_source(source, cache=CompilationCache(str(tmp_path)))


@pytest.mark.parametrize("name", NAMESPACES)
def test_failed_write_leaves_no_temp_file_and_no_entry(name, tmp_path,
                                                       monkeypatch):
    namespace = NAMESPACES[name]
    store = namespace.make(str(tmp_path))

    def disk_full(source, target):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="disk full"):
        namespace.put(store)
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
    assert len(store) == 0
    monkeypatch.undo()
    # the failed write left nothing that makes a retry look redundant
    namespace.put(store)
    assert len(list(tmp_path.rglob("*" + namespace.suffix))) == 1


@pytest.mark.parametrize("name", NAMESPACES)
def test_empty_store_is_still_enabled(name):
    store = NAMESPACES[name].make(None)
    assert len(store) == 0
    assert bool(store) is True


@pytest.mark.parametrize("name", SHARED_DIR)
def test_clear_removes_only_its_own_namespace(name, tmp_path):
    stores = {other: NAMESPACES[other].make(str(tmp_path))
              for other in SHARED_DIR}
    keys = {other: NAMESPACES[other].put(stores[other])
            for other in SHARED_DIR}
    stores[name].clear()
    assert len(stores[name]) == 0
    assert not list(tmp_path.glob("*" + NAMESPACES[name].suffix))
    assert stores[name].get(keys[name]) == NAMESPACES[name].absent
    for other in SHARED_DIR:
        if other != name:
            fresh = NAMESPACES[other].make(str(tmp_path))
            assert fresh.get(keys[other]) == NAMESPACES[other].value


@pytest.mark.parametrize("key", [
    "../x",
    "../" + "a" * 61,
    "AB" * 32,
    "ab" * 32 + "/",
], ids=["parent", "parent-64-chars", "uppercase", "trailing-slash"])
def test_module_store_never_turns_a_malformed_key_into_a_path(
        key, tmp_path, monkeypatch):
    store = ModuleStore(str(tmp_path))

    def no_path(self, key):
        raise AssertionError(f"{key!r} became a path")

    monkeypatch.setattr(ModuleStore, "_path", no_path)
    assert store.get(key) is None
    assert key not in store
    assert store.stats()["gets"] == 2


def test_concurrent_trace_puts_keep_every_entry():
    cache = TraceCache()
    threads, headers = 8, 50
    barrier = threading.Barrier(threads)

    def record(worker: int) -> None:
        barrier.wait()
        for header in range(headers):
            cache.put(DIGEST, f"Worker{worker}.run", header, (header,))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=record, args=(worker,))
                for worker in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert len(cache) == threads * headers
