"""Fused verifying decoder + cold/warm load paths.

The decoder already enforces the bulk of the verifier's property set by
construction: every symbol is drawn from an alphabet computed over the
decoded context, so type separation, dominator-relative reference
validity, phi/predecessor agreement, member-table reachability, and the
trap-gate rule (``DEC-TRAP-REF``/``STSA-REF-004``) are all checked as
each instruction decodes.  What remains -- the *residual* rules -- are
the properties that constrain already-representable shapes:

* ``STSA-CFG-003``  block mixes normal and exception predecessors
* ``STSA-TYP-004``  result type absent from the type table
* ``STSA-EXC-003``  subblock with a trapping tail must fall through
* ``STSA-EXC-005``  exception edge without an exception point
* ``STSA-EXC-006``  exception edge escapes its try

:class:`_ResidualChecker` sweeps exactly these, reusing the verifier's
own rule methods (same codes, same messages), in the verifier's own
block order -- so a fused load rejects with the very code the two-pass
path would have produced.  The full verifier stays in
:mod:`repro.tsa.verifier` as the reference oracle.

A cold load therefore costs one decode plus an O(instructions) sweep.
A warm load -- the wire bytes' digest hits the
:class:`repro.cache.VerifiedModuleCache` -- skips the sweeps and reuses
the recorded per-function bit boundaries for random access: bodies can
decode lazily on first touch (:mod:`repro.loader.lazy`).  Every decode
retains the intrinsic safety-by-construction checks, so a stale or
tampered cache entry can cause a ``DecodeError`` or a silent fall back
to the cold path, never an unsound module.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Optional

from repro.cache import VerifiedModuleCache, default_module_cache
from repro.encode.bitio import BitIOError
from repro.encode.deserializer import DecodeError, _ModuleDecoder
from repro.ssa.ir import Function, Module
from repro.tsa.verifier import _FunctionVerifier

#: ``(start_bit, end_bit)`` of one function body in the wire stream.
Boundaries = list[tuple[int, int]]


@contextmanager
def _decode_errors():
    """The same lower-layer-to-``DecodeError`` wrapping that
    :func:`repro.encode.deserializer.decode_module` applies."""
    from repro.typesys.table import TypeTableError
    from repro.typesys.world import WorldError
    try:
        yield
    except BitIOError as error:
        raise DecodeError(str(error), "DEC-IO") from None
    except WorldError as error:
        raise DecodeError(str(error), "DEC-WORLD") from None
    except TypeTableError as error:
        raise DecodeError(str(error), "DEC-TABLE") from None
    except ValueError as error:
        raise DecodeError(str(error), "DEC-VALUE") from None


class _ResidualChecker(_FunctionVerifier):
    """Only the verifier rules the decoder does not enforce by
    construction; everything else already failed during decode or
    cannot occur.  Inherits ``fail``/``_verify_pred_kinds``/
    ``_verify_exc_edge`` so codes and messages match the oracle
    exactly, and reuses the decoder's dominator tree and dispatch map
    instead of recomputing them from the IR.
    """

    def __init__(self, module: Module, function: Function,
                 domtree, dispatch_of):
        super().__init__(module, function)
        self.domtree = domtree
        self.dispatch_of = dispatch_of

    def verify(self) -> None:
        for block in self.function.blocks:
            if block not in self.domtree.idom:
                continue  # unreachable: never transmitted, never run
            self._verify_residual_block(block)

    def _verify_residual_block(self, block) -> None:
        self._ctx_block = block
        self._ctx_instr = None
        dispatch = self.dispatch_of.get(block.id)
        pred_kinds = {kind for _, kind in block.preds}
        self._verify_pred_kinds(block, pred_kinds)
        for instr in block.instrs:
            self._ctx_instr = instr
            plane = instr.plane
            if plane is not None and plane.kind != "safeidx" \
                    and plane.type not in self.table:
                self.fail(f"v{instr.id} produces a value of type "
                          f"{plane.type} absent from the type table",
                          "STSA-TYP-004")
            if instr.traps and dispatch is not None \
                    and (block.term is None or block.term.kind != "fall"):
                self.fail(f"B{block.id} with a trapping tail must fall "
                          "through", "STSA-EXC-003")
        self._ctx_instr = None
        self._verify_exc_edge(block, dispatch)


class FusedDecoder(_ModuleDecoder):
    """Sequential decoder that captures, per function, the dominator
    tree and dispatch map the residual sweep needs -- the fused path's
    replacement for the verifier's full recomputation."""

    def __init__(self, data: bytes):
        super().__init__(data)
        #: (function, domtree, dispatch_of) per decoded body, in order
        self.contexts: list[tuple] = []

    def _on_function(self, decoder, function: Function) -> None:
        self.contexts.append((function, decoder.domtree,
                              decoder.dispatch_of))


def residual_verify(module: Module, contexts) -> None:
    """Run the residual rule sweep for every decoded function, in
    decode order (= the order ``verify_module`` would visit them)."""
    for function, domtree, dispatch_of in contexts:
        _ResidualChecker(module, function, domtree, dispatch_of).verify()


def _plausible(boundaries: Boundaries, bodies, start_bit: int,
               stream_bits: int) -> bool:
    """Cheap shape validation of a cached boundary index: one entry
    per body, contiguous, starting where the header ended, inside the
    stream.  Anything else is a stale/corrupt entry -> cold path."""
    if len(boundaries) != len(bodies):
        return False
    position = start_bit
    for start, end in boundaries:
        if start != position or end < start:
            return False
        position = end
    return position <= stream_bits


class ModuleLoader:
    """One load of one distribution unit.

    After :meth:`load`, ``cache_hit`` says whether the warm (trusted)
    path ran, ``boundaries`` holds the per-body bit index, and
    ``verified`` is True when the residual sweeps ran this load (cold)
    -- a warm load trusts the digest-matched prior verification
    instead.
    """

    def __init__(self, data: bytes, *, lazy: bool = False, cache=None,
                 store=None):
        from repro.encode.format import resolve_stream
        #: the distribution unit as delivered (possibly a v2 envelope)
        self.raw = data
        #: the v1 payload the verifying decoder consumes; envelope
        #: resolution rejects here, before any decode state exists
        self.data = resolve_stream(data, store)
        self.lazy = lazy
        if cache is None:
            cache = default_module_cache()
        elif cache is False:
            cache = None
        self.cache: Optional[VerifiedModuleCache] = cache
        self.cache_hit = False
        self.boundaries: Optional[Boundaries] = None
        self.verified = False

    def load(self) -> Module:
        key = VerifiedModuleCache.key(self.data) if self.cache else None
        cached = self.cache.get(key) if key is not None else None
        if self.lazy:
            from repro.loader.lazy import lazy_load
            return lazy_load(self, key, cached)
        if cached is not None:
            module = self._load_trusted(cached)
            if module is not None:
                self.cache_hit = True
                return module
        return self._load_cold(key)

    # -- cold: sequential fused decode + residual sweep ----------------

    def _load_cold(self, key: Optional[str]) -> Module:
        decoder = FusedDecoder(self.data)
        with _decode_errors():
            module = decoder.decode()
        residual_verify(module, decoder.contexts)
        self.boundaries = decoder.boundaries
        self.verified = True
        if self.cache is not None and key is not None:
            self.cache.put(key, decoder.boundaries)
        return module

    # -- warm: digest-trusted decode, random access, no sweeps ---------

    def _load_trusted(self, boundaries: Boundaries) -> Optional[Module]:
        """Returns None on any disagreement between the cached index
        and the stream, sending the caller down the cold path."""
        decoder = FusedDecoder(self.data)
        try:
            with _decode_errors():
                bodies = decoder.decode_header()
                header_end = decoder.reader.bit_position()
                if not _plausible(boundaries, bodies, header_end,
                                  len(self.data) * 8):
                    return None
                decoder._decode_bodies(bodies)
                if decoder.boundaries != boundaries:
                    return None
                decoder._require_end()
        except DecodeError:
            # the digest matched, so the bytes decoded cleanly once: a
            # failure now means the cached index is bad.  The cold path
            # re-decodes from scratch and re-raises anything genuine.
            return None
        self.boundaries = boundaries
        self.verified = False
        return decoder.module


def load_module(data: bytes, *, lazy: bool = False, cache=None,
                store=None) -> Module:
    """Load (and thereby verify) a SafeTSA distribution unit.

    ``lazy=True`` decodes the header eagerly and each function body on
    first touch.  ``cache`` is a
    :class:`repro.cache.VerifiedModuleCache`, ``None`` for the
    environment default, or ``False`` to disable caching.  ``store``
    is the :class:`repro.cache.DictionaryStore` used to resolve v2
    envelopes (``None`` for the environment default); v1 streams never
    touch it.
    """
    module = ModuleLoader(data, lazy=lazy, cache=cache,
                          store=store).load()
    # the distribution unit's content address; the trace cache keys
    # compiled hot paths on it so warm processes skip re-recording
    module.wire_digest = hashlib.sha256(data).hexdigest()
    return module
