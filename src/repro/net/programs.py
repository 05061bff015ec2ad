"""Remote-side verb programs: chained one-sided verbs in one round trip.

A FASTER GET through a remote region classically pays two dependent
fabric round trips -- READ the hash bucket, then READ the log record the
bucket points at.  "RDMA is Turing complete" shows such dependent access
sequences can execute entirely at the remote NIC: a small *program* of
chained work requests where a later step takes its remote offset from an
earlier step's returned data, guarded by compare-and-swap steps that
abort the chain when the memory it depends on changed underneath it.

A :class:`VerbProgram` is the descriptor for one such offloaded
sequence.  It travels to the remote NIC in **one** request message (the
descriptor plus any inline WRITE payloads), executes step by step at the
remote NIC (each step charged :attr:`~repro.hardware.nic.NicSpec.
program_step_latency` plus its DMA cost), and returns **one** response
carrying the READ payloads -- so a dependent chain costs one round trip
plus remote service time instead of one round trip per hop.  The
execution engine is the queue pair's verb pipeline
(:mod:`repro.net.qp`); this module owns the descriptor, its validation,
and its wire-cost accounting.

Failure semantics: a step that faults (revoked token, out-of-bounds
deref) or a CAS guard that observes a changed value aborts the chain at
that step.  The requester still gets exactly one :class:`~repro.net.
verbs.Completion` -- partial, with ``ok=False``, ``steps_completed``,
per-step results, and ``cas_aborted`` set when a guard fired -- so no
acked work is ever silently dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "MAX_PROGRAM_STEPS",
    "PROGRAM_HEADER_BYTES",
    "PROGRAM_STATUS_BYTES",
    "ProgramError",
    "ProgramShapeCache",
    "ProgramStep",
    "SHAPE_REFERENCE_BYTES",
    "STEP_DESCRIPTOR_BYTES",
    "StepOp",
    "StepResult",
    "VerbProgram",
]

#: NIC-enforced bound on chain length.  Chained WQE execution consumes
#: on-NIC WQE slots; eight covers every dependent-read shape Redy posts
#: (bucket -> record -> guard is three) with room for multi-level chains.
MAX_PROGRAM_STEPS = 8

#: Wire framing of the program descriptor itself (opcode, step count,
#: token, flags).
PROGRAM_HEADER_BYTES = 16

#: Per-step wire descriptor (opcode, offset/offset-source, length,
#: compare-source).
STEP_DESCRIPTOR_BYTES = 24

#: Status trailer on the response (steps completed, abort reason).
PROGRAM_STATUS_BYTES = 8

#: CAS operands are a single machine word.
CAS_WORD_BYTES = 8

#: Wire bytes of a compact reference to an already-installed program
#: shape (shape id + generation), replacing the per-step descriptors
#: when the responder has the shape cached.
SHAPE_REFERENCE_BYTES = 8


class ProgramError(ValueError):
    """A verb program violates the chain constraints (too long, bad
    step reference, malformed operands)."""


class StepOp(enum.Enum):
    """One chained verb inside a program."""

    READ = "read"
    WRITE = "write"
    CAS = "cas"


@dataclass(frozen=True)
class ProgramStep:
    """One step of a verb program.

    ``offset`` is the static remote offset.  When ``offset_from`` names
    an earlier READ step, the remote NIC instead interprets that step's
    returned bytes as a little-endian u64 region offset (pointer
    chasing); ``offset`` then serves as the *fallback* used when the
    source step returned no bytes -- which is exactly what happens on
    size-only (unbacked) measurement regions, keeping the timing path
    identical whether or not the region stores real bytes.

    CAS steps compare the current word at the (resolved) offset against
    ``compare`` -- or against the bytes an earlier step returned, when
    ``compare_from`` is set (the self-verifying guard: "abort unless
    this word still holds what step k saw").  On match, ``data`` (if
    given) is swapped in; a guard passes ``data=None`` and leaves memory
    untouched.  On mismatch the program aborts with ``cas_aborted``.
    """

    op: StepOp
    offset: int = 0
    length: int = 0
    data: Optional[bytes] = None
    #: Index of an earlier READ step whose returned bytes supply this
    #: step's remote offset (None = static offset).
    offset_from: Optional[int] = None
    #: CAS only: index of an earlier step whose returned bytes are the
    #: expected value (None = use ``compare``).
    compare_from: Optional[int] = None
    #: CAS only: static expected value (ignored when ``compare_from``).
    compare: Optional[bytes] = None

    def validate(self, index: int) -> None:
        if self.offset < 0:
            raise ProgramError(f"step {index}: offset must be >= 0")
        if self.length < 0:
            raise ProgramError(f"step {index}: length must be >= 0")
        if self.offset_from is not None and not (
                0 <= self.offset_from < index):
            raise ProgramError(
                f"step {index}: offset_from must name an earlier step, "
                f"got {self.offset_from}")
        if self.op is StepOp.WRITE:
            if self.data is not None and len(self.data) != self.length:
                raise ProgramError(
                    f"step {index}: WRITE data length {len(self.data)} "
                    f"!= length {self.length}")
        elif self.op is StepOp.CAS:
            if self.length != CAS_WORD_BYTES:
                raise ProgramError(
                    f"step {index}: CAS operates on {CAS_WORD_BYTES}-byte "
                    f"words, got length {self.length}")
            if self.compare_from is not None and not (
                    0 <= self.compare_from < index):
                raise ProgramError(
                    f"step {index}: compare_from must name an earlier "
                    f"step, got {self.compare_from}")
            if self.data is not None and len(self.data) != CAS_WORD_BYTES:
                raise ProgramError(
                    f"step {index}: CAS swap value must be "
                    f"{CAS_WORD_BYTES} bytes")
            if self.compare is not None and len(self.compare) != CAS_WORD_BYTES:
                raise ProgramError(
                    f"step {index}: CAS compare value must be "
                    f"{CAS_WORD_BYTES} bytes")
        else:  # READ
            if self.data is not None:
                raise ProgramError(f"step {index}: READ steps carry no data")

    @property
    def request_wire_bytes(self) -> int:
        """Bytes this step adds to the program descriptor on the wire."""
        inline = 0
        if self.op is StepOp.WRITE and self.length:
            inline = self.length
        elif self.op is StepOp.CAS:
            # Compare + swap operands ride in the descriptor.
            inline = 2 * CAS_WORD_BYTES
        return STEP_DESCRIPTOR_BYTES + inline

    @property
    def response_wire_bytes(self) -> int:
        """Bytes this step adds to the single response message."""
        if self.op is StepOp.READ:
            return self.length
        if self.op is StepOp.CAS:
            return CAS_WORD_BYTES  # the observed original value
        return 0


@dataclass(frozen=True)
class StepResult:
    """Remote-side outcome of one executed program step."""

    index: int
    op: StepOp
    ok: bool
    #: Resolved remote offset the step actually targeted.
    offset: int = 0
    #: Bytes the step produced (READ payload / CAS observed value).
    data: Optional[bytes] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class VerbProgram:
    """An ordered chain of verbs executed remotely in one round trip.

    ``label`` is purely cosmetic (log/metric annotations); it never
    reaches the wire, the digest, or any result-cache key.
    """

    steps: Tuple[ProgramStep, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ProgramError("a program needs at least one step")
        if len(self.steps) > MAX_PROGRAM_STEPS:
            raise ProgramError(
                f"program of {len(self.steps)} steps exceeds the NIC "
                f"chain bound of {MAX_PROGRAM_STEPS}")
        for index, step in enumerate(self.steps):
            step.validate(index)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def request_wire_bytes(self) -> int:
        """One descriptor message: header + per-step descriptors +
        inline WRITE/CAS operands."""
        return PROGRAM_HEADER_BYTES + sum(
            step.request_wire_bytes for step in self.steps)

    @property
    def response_wire_bytes(self) -> int:
        """One response message: status trailer + produced payloads."""
        return PROGRAM_STATUS_BYTES + sum(
            step.response_wire_bytes for step in self.steps)

    def response_bytes_through(self, steps_completed: int) -> int:
        """Response size when the chain aborted after ``steps_completed``
        steps (partial completions return only what executed)."""
        return PROGRAM_STATUS_BYTES + sum(
            step.response_wire_bytes
            for step in self.steps[:steps_completed])

    @property
    def write_payload_bytes(self) -> int:
        """Client-side payload bytes the NIC must gather before sending
        (drives the inline-vs-DMA-fetch charge at post time)."""
        return sum(step.length for step in self.steps
                   if step.op is StepOp.WRITE)

    @property
    def shape_key(self) -> Tuple:
        """Structural identity of this program: everything the remote
        NIC needs to pre-compile the chain, *excluding* per-request
        operands (offsets, payloads, compare words).

        Two dependent GETs for different keys share a shape; the first
        posts the full descriptor, later ones a compact reference (see
        :class:`ProgramShapeCache`).  Hashable and deterministic --
        built only from enum values and small ints.
        """
        return tuple(
            (step.op.value, step.length, step.offset_from,
             step.compare_from, step.data is not None,
             step.compare is not None)
            for step in self.steps)

    @property
    def cached_request_wire_bytes(self) -> int:
        """Request size when the responder already holds this shape:
        header + shape reference + per-step operands (a u64 offset per
        step plus inline WRITE/CAS payloads) instead of the full
        per-step descriptors."""
        operand_bytes = 0
        for step in self.steps:
            operand_bytes += CAS_WORD_BYTES  # offset / fallback offset
            if step.op is StepOp.WRITE and step.length:
                operand_bytes += step.length
            elif step.op is StepOp.CAS:
                operand_bytes += 2 * CAS_WORD_BYTES
        return PROGRAM_HEADER_BYTES + SHAPE_REFERENCE_BYTES + operand_bytes

    @classmethod
    def dependent_read(cls, *, pointer_offset: int, read_bytes: int,
                       pointer_bytes: int = CAS_WORD_BYTES,
                       fallback_offset: int = 0,
                       verify: bool = False,
                       label: str = "") -> "VerbProgram":
        """The GET-path chain: READ a pointer word, READ the record it
        points at, optionally re-verify the pointer.

        ``verify=True`` appends a CAS guard that re-reads the pointer at
        the end of the chain and compares it against what step 0 saw --
        the self-verifying read that makes dependent GETs safe against
        concurrent migration/compaction moving the record after the
        pointer was sampled.  ``fallback_offset`` is the static offset
        used when the pointer word has no backing bytes (size-only
        measurement regions).
        """
        steps = [
            ProgramStep(op=StepOp.READ, offset=pointer_offset,
                        length=pointer_bytes),
            ProgramStep(op=StepOp.READ, offset=fallback_offset,
                        length=read_bytes, offset_from=0),
        ]
        if verify:
            steps.append(ProgramStep(op=StepOp.CAS, offset=pointer_offset,
                                     length=CAS_WORD_BYTES, compare_from=0))
        return cls(steps=tuple(steps), label=label)


class ProgramShapeCache:
    """Per-endpoint registry of installed program shapes.

    The first program of a given :attr:`VerbProgram.shape_key` posted to
    an endpoint ships the full per-step descriptors and *installs* the
    shape at the responder NIC; every later program with the same shape
    -- from any connection, which is what makes pooled QPs amortize
    descriptor cost across sessions -- sends only a compact reference
    plus operands (:attr:`VerbProgram.cached_request_wire_bytes`).

    Deterministic: insertion-ordered dict keyed by the structural shape
    tuple; ids are assigned in first-install order.
    """

    __slots__ = ("installs", "hits", "_shapes")

    def __init__(self) -> None:
        self.installs = 0
        self.hits = 0
        #: shape_key -> shape id, in install order.
        self._shapes: dict = {}

    def __len__(self) -> int:
        return len(self._shapes)

    def __contains__(self, shape_key: Tuple) -> bool:
        return shape_key in self._shapes

    def install(self, shape_key: Tuple) -> bool:
        """Look up (and install on miss) one shape; True when it was
        already installed -- i.e. the request may use the compact form."""
        if shape_key in self._shapes:
            self.hits += 1
            return True
        self._shapes[shape_key] = len(self._shapes)
        self.installs += 1
        return False

    def shape_id(self, shape_key: Tuple) -> Optional[int]:
        return self._shapes.get(shape_key)

    def stats(self) -> dict:
        return {"shapes": len(self._shapes), "installs": self.installs,
                "hits": self.hits}


def resolve_offset(step: ProgramStep,
                   produced: Tuple[Optional[bytes], ...]) -> int:
    """Resolve a step's remote offset against earlier steps' data.

    Deref of a source step that produced no bytes (unbacked region)
    falls back to the step's own static ``offset`` so the timing path
    is identical with and without backing.
    """
    if step.offset_from is None:
        return step.offset
    source = produced[step.offset_from]
    if source is None or len(source) == 0:
        return step.offset
    return int.from_bytes(source[:CAS_WORD_BYTES], "little")
