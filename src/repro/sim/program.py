"""Lower a pipeline schedule to per-stream instruction queues.

This is where the paper's policy differences become concrete:

- **Pipeline transfers** go on the dedicated "pp" stream when the
  implementation overlaps them (ours), or inline on the compute stream
  with the synchronization penalty when it does not (Megatron-LM).
- **Data-parallel operations** go on the "dp" stream per stage as soon as
  the stage's gradients are complete (ours — the Figure 4 odd rows), or
  as one serial block after the whole backward pass (Megatron-LM).
- **DP_FS repetition** follows Eqs. (24)-(26): once per micro-batch for
  non-looped schedules, once per sequence of ``N_PP`` micro-batches for
  depth-first, once per stage pass for breadth-first.

Data-parallel collectives proceed layer by layer in a real system (the
paper's Appendix D double-buffers reconstruction against compute), so each
gather/reduce is split into a one-layer *head* — the only part that truly
gates or trails compute — and a *bulk* that pipelines against it on the
DP stream, which provides backpressure when the network, not compute, is
the bottleneck.

Lowering is split in two.  The program's *structure* — which
instructions exist, on which stream, in which order, waiting on what —
depends only on a :class:`ProgramShape`; each instruction carries a
duration *slot* instead of a duration.  The durations are a per-candidate
value vector (:func:`duration_values`) indexed by those slots.
:func:`build_program` joins the two into :class:`~repro.sim.engine
.Instruction` queues; :mod:`repro.sim.topology` compiles the structure
once per shape and replays any candidate's value vector through it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from repro.core.ops import ComputeOp, OpKind
from repro.core.placement import Placement
from repro.core.schedules.base import Schedule, dpfs_repetition_key as _rep_key
from repro.parallel.config import ScheduleKind, Sharding
from repro.sim.cost import CostModel
from repro.sim.engine import Instruction

#: Stream names.
COMPUTE, PP, DP = "compute", "pp", "dp"

#: Data-parallel placement of a program (:attr:`ProgramShape.dp`): no
#: data parallelism, per-stage collectives on an overlapping "dp" stream,
#: or one serial block on the compute stream after the backward pass.
DP_NONE, DP_OVERLAP, DP_SERIAL = 0, 1, 2

#: Duration slots of stage ``s`` start at ``s * STAGE_SLOTS``: forward and
#: backward without and with the launch cost of an overlapped send, then
#: the stage's gather and reduce, each whole, head and bulk.
(
    FORWARD,
    FORWARD_SEND,
    BACKWARD,
    BACKWARD_SEND,
    GATHER,
    GATHER_HEAD,
    GATHER_BULK,
    REDUCE,
    REDUCE_HEAD,
    REDUCE_BULK,
) = range(10)
STAGE_SLOTS = 10
#: Duration slots of rank ``r`` start at ``n_stages * STAGE_SLOTS + r *
#: RANK_SLOTS``: one pipeline transfer, the serial DP block, the
#: optimizer step and the post-step gather.
PP_TRANSFER, DP_SERIAL_BLOCK, OPTIMIZER, POST_GATHER = range(4)
RANK_SLOTS = 4

#: Enum -> uid tag without the per-access ``.value`` descriptor cost.
_KIND_TAG = {kind: kind.value for kind in OpKind}


def _uid_of(op: ComputeOp) -> tuple:
    return (_KIND_TAG[op.kind], op.microbatch, op.stage)


class ProgramShape(NamedTuple):
    """Everything that decides a lowered program's structure.

    Two candidates with equal shapes lower to the same instructions,
    streams, order and dependencies; only their durations differ.

    Attributes:
        kind, n_pp, n_microbatches, n_loop, sequence_size: The schedule.
        pp_overlap: Pipeline transfers run on their own stream.
        dp: :data:`DP_NONE`, :data:`DP_OVERLAP` or :data:`DP_SERIAL`.
        full_sharding: Overlapped DP_FS (per-group weight gathers).
        partial_sharding: Overlapped DP_PS (post-step weight gather).
        single_layer: Bitmask of one-layer stages, whose collectives are
            not split into head and bulk (overlapped DP only, else 0).
    """

    kind: ScheduleKind
    n_pp: int
    n_microbatches: int
    n_loop: int
    sequence_size: int | None
    pp_overlap: bool
    dp: int
    full_sharding: bool
    partial_sharding: bool
    single_layer: int

    @property
    def n_stages(self) -> int:
        return self.n_pp * self.n_loop


@lru_cache(maxsize=1024)
def _layer_split(placement: Placement) -> tuple[tuple[float, ...], int]:
    """Per-stage head fractions and the one-layer-stage bitmask."""
    fractions = tuple(
        1.0 / placement.n_layers_of_stage(s) for s in range(placement.n_stages)
    )
    single = 0
    for stage, frac in enumerate(fractions):
        if frac >= 1.0:
            single |= 1 << stage
    return fractions, single


def program_shape(cost: CostModel, schedule: Schedule) -> ProgramShape:
    """The structure key of ``schedule`` lowered under ``cost``."""
    config = cost.config
    impl = cost.implementation
    if config.n_dp <= 1:
        dp = DP_NONE
    elif impl.dp_overlap:
        dp = DP_OVERLAP
    else:
        dp = DP_SERIAL
    overlap = dp == DP_OVERLAP
    return ProgramShape(
        kind=schedule.kind,
        n_pp=schedule.n_pp,
        n_microbatches=schedule.n_microbatches,
        n_loop=schedule.n_loop,
        sequence_size=schedule.sequence_size,
        pp_overlap=impl.pp_overlap,
        dp=dp,
        full_sharding=overlap and config.sharding is Sharding.FULL,
        partial_sharding=overlap and config.sharding is Sharding.PARTIAL,
        single_layer=_layer_split(cost.placement)[1] if overlap else 0,
    )


def duration_values(cost: CostModel, shape: ProgramShape) -> list[float]:
    """The duration of every slot of ``shape`` under ``cost``.

    Each value is computed with exactly the float operations the
    instruction it prices always used (a forward that sends is
    ``forward + launch``, a gather head ``gather * (1 / n_layers)``), so
    programs and simulations are bit-identical however they are built.
    Slots the shape never references hold 0.0.
    """
    # Per-stage durations come from the memoized family table
    # (repro.sim.cost.stage_time_table): candidates differing only in
    # n_dp / n_mb / sharding / schedule share one computation, within a
    # search cell and across adjacent batch-size cells of a sweep.
    times = cost.stage_times()
    forward = times.forward
    backward = times.backward
    launch = times.pp_launch
    values: list[float] = []
    if shape.dp == DP_OVERLAP:
        # DP-collective durations come from the memoized comm-family
        # table (repro.sim.cost.comm_time_table): one gather/reduce
        # pricing pass per (n_pp, n_loop, n_tp, n_dp, sharding) family.
        comm = cost.comm_times()
        gather = comm.gather
        reduce = comm.reduce
        fractions = _layer_split(cost.placement)[0]
        for s in range(shape.n_stages):
            f = forward[s]
            b = backward[s]
            g = gather[s]
            r = reduce[s]
            frac = fractions[s]
            values += (
                f, f + launch, b, b + launch,
                g, g * frac, g * (1.0 - frac),
                r, r * frac, r * (1.0 - frac),
            )
    else:
        comm = cost.comm_times() if shape.dp == DP_SERIAL else None
        for s in range(shape.n_stages):
            f = forward[s]
            b = backward[s]
            values += (f, f + launch, b, b + launch, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    pp = times.pp_transfer
    for rank in range(shape.n_pp):
        values += (
            pp,
            comm.dp_serial[rank] if shape.dp == DP_SERIAL else 0.0,
            cost.optimizer_time(rank),
            comm.post_gather[rank] if shape.partial_sharding else 0.0,
        )
    return values


class _ProgramBuilder:
    """Accumulates the instruction queues of one program shape.

    Instructions are emitted as ``(uid, slot, deps, label, category)``
    tuples.  With ``labelled=False`` no compute-op label strings are
    built, so search-mode structures allocate nothing that only a
    timeline would read.
    """

    def __init__(
        self, schedule: Schedule, shape: ProgramShape, *, labelled: bool
    ) -> None:
        self.schedule = schedule
        self.shape = shape
        self.labelled = labelled
        self.n_stages = schedule.n_stages
        self.streams: dict[tuple[int, str], list[tuple]] = {}

    def _emit_split(
        self,
        queue: list[tuple],
        prefix: str,
        stage: int,
        key: int,
        slot: int,
        category: str,
        *,
        head_deps: tuple = (),
        bulk_deps: tuple = (),
        head_last: bool = False,
    ) -> tuple[tuple, tuple]:
        """Emit a head+bulk pair on ``queue``; return (head, tail) uids.

        ``slot`` is the whole collective's slot; its head and bulk
        follow it.  The *head* is one layer's worth of traffic — the
        only part that strictly gates (gathers) or trails (reductions)
        compute; the *bulk* pipelines layer-by-layer against compute.
        With ``head_last=False`` the head comes first (gathers: compute
        can start once the first layer arrived); with ``head_last=True``
        it comes last (reductions: only the final layer's reduce trails
        the last backward).  Single-layer stages emit one instruction.
        """
        labelled = self.labelled
        head_uid = (prefix + "H", stage, key)
        if self.shape.single_layer >> stage & 1:
            queue.append((
                head_uid,
                slot,
                head_deps,
                f"{prefix}(s={stage}, g={key})" if labelled else "",
                category,
            ))
            return head_uid, head_uid
        bulk_uid = (prefix + "R", stage, key)
        head = (
            head_uid,
            slot + 1,
            head_deps,
            f"{prefix}-head(s={stage}, g={key})" if labelled else "",
            category,
        )
        bulk = (
            bulk_uid,
            slot + 2,
            bulk_deps,
            f"{prefix}-bulk(s={stage}, g={key})" if labelled else "",
            category,
        )
        if head_last:
            queue.extend((bulk, head))
            return head_uid, head_uid
        queue.extend((head, bulk))
        return head_uid, bulk_uid

    def build(self) -> dict[tuple[int, str], list[tuple]]:
        shape = self.shape
        for rank in range(self.schedule.n_pp):
            self.streams[(rank, COMPUTE)] = []
            if shape.pp_overlap:
                self.streams[(rank, PP)] = []
            if shape.dp == DP_OVERLAP:
                self.streams[(rank, DP)] = []
        for rank in range(self.schedule.n_pp):
            self._build_rank(rank)
        return self.streams

    def _build_rank(self, rank: int) -> None:
        shape = self.shape
        order = self.schedule.ops_of(rank)
        compute_q = self.streams[(rank, COMPUTE)]
        pp_q = self.streams.get((rank, PP), compute_q)
        dp_q = self.streams.get((rank, DP))
        overlap_dp = dp_q is not None

        # The op loop below runs once per instruction of every lowered
        # program.  Attribute lookups are hoisted and the group key
        # inlined rather than closed over.
        forward_kind = OpKind.FORWARD
        last_stage = self.n_stages - 1
        rank_slot = self.n_stages * STAGE_SLOTS + rank * RANK_SLOTS
        pp_slot = rank_slot + PP_TRANSFER
        labelled = self.labelled
        sharded_overlap = shape.full_sharding
        compute_append = compute_q.append
        pp_append = pp_q.append
        # Only DP_FS repeats its network operations per group (Eqs.
        # 24-26); with DP0/DP_PS gradients accumulate locally and each
        # stage reduces exactly once per batch.  One list, computed once,
        # keys both the last-use prefill and the emission loop below.
        schedule_kind = self.schedule.kind
        n_pp = self.schedule.n_pp
        seq = self.schedule.sequence_size
        if sharded_overlap:
            group_keys = [
                (op.stage, _rep_key(schedule_kind, op.microbatch, n_pp, seq))
                for op in order
            ]
        else:
            group_keys = [(op.stage, 0) for op in order]

        # Positions of each DP group's last forward/backward: the last use
        # must wait for the *whole* gather (Eq. 29 — a pass's
        # reconstruction can only hide behind other micro-batches), and
        # the reduction follows the last backward.
        last_fwd_of_group: dict[tuple[int, int], int] = {}
        last_bwd_of_group: dict[tuple[int, int], int] = {}
        if overlap_dp:
            for position, op in enumerate(order):
                if op.kind is forward_kind:
                    last_fwd_of_group[group_keys[position]] = position
                else:
                    last_bwd_of_group[group_keys[position]] = position

        gather_uids_fwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        gather_uids_bwd: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        reduce_heads: list[tuple] = []

        for position, op in enumerate(order):
            stage = op.stage
            microbatch = op.microbatch
            is_forward = op.kind is forward_kind
            group = group_keys[position]
            stage_slot = stage * STAGE_SLOTS
            if is_forward:
                deps = (("XA", microbatch, stage - 1),) if stage > 0 else ()
                if sharded_overlap:
                    if group not in gather_uids_fwd:
                        gather_uids_fwd[group] = self._emit_split(
                            dp_q, "GF", stage, group[1], stage_slot + GATHER,
                            "gather",
                        )
                    head, tail = gather_uids_fwd[group]
                    deps += (head,)
                    if last_fwd_of_group.get(group) == position:
                        deps += (tail,)
                slot = stage_slot + FORWARD
                category = "forward"
                produces_send = stage < last_stage
            else:
                if stage < last_stage:
                    deps = (
                        ("F", microbatch, stage),
                        ("XG", microbatch, stage + 1),
                    )
                else:
                    deps = (("F", microbatch, stage),)
                if sharded_overlap:
                    if group not in gather_uids_bwd:
                        gather_uids_bwd[group] = self._emit_split(
                            dp_q, "GB", stage, group[1], stage_slot + GATHER,
                            "gather",
                        )
                    head, tail = gather_uids_bwd[group]
                    deps += (head,)
                    if last_bwd_of_group.get(group) == position:
                        deps += (tail,)
                slot = stage_slot + BACKWARD
                category = "backward"
                produces_send = stage > 0

            # Issuing an overlapped transfer still costs the compute
            # stream its launch overhead (the ``*_SEND`` slot).
            if produces_send:
                slot += 1

            uid = ("F" if is_forward else "B", microbatch, stage)
            compute_append(
                (uid, slot, deps, str(op) if labelled else "", category)
            )

            if produces_send:
                if is_forward:
                    pp_append((
                        ("XA", microbatch, stage),
                        pp_slot,
                        (uid,),
                        f"send-act(mb={microbatch}, s={stage})" if labelled else "",
                        "pp_comm",
                    ))
                else:
                    pp_append((
                        ("XG", microbatch, stage),
                        pp_slot,
                        (uid,),
                        f"send-grad(mb={microbatch}, s={stage})" if labelled else "",
                        "pp_comm",
                    ))

            # Gradient reduction once the group's last backward ran: the
            # bulk may overlap that backward (real reductions trail the
            # per-layer backward front), only the head strictly follows it.
            if overlap_dp and last_bwd_of_group.get(group) == position:
                bulk_deps = (_uid_of(order[position - 1]),) if position else ()
                head, _ = self._emit_split(
                    dp_q,
                    "RED",
                    stage,
                    group[1],
                    stage_slot + REDUCE,
                    "reduce",
                    head_deps=(uid,),
                    bulk_deps=bulk_deps,
                    head_last=True,
                )
                reduce_heads.append(head)

        # Tail: serial DP block (Megatron mode), optimizer, post-step gather.
        opt_deps: list[tuple] = list(reduce_heads)
        if shape.dp == DP_SERIAL:
            compute_q.append((
                ("DPALL", rank),
                rank_slot + DP_SERIAL_BLOCK,
                (),
                f"dp-all(rank={rank})",
                "dp_comm",
            ))
            opt_deps.append(("DPALL", rank))

        compute_q.append((
            ("OPT", rank),
            rank_slot + OPTIMIZER,
            tuple(opt_deps),
            f"optimizer(rank={rank})",
            "optimizer",
        ))

        if shape.partial_sharding:
            dp_q.append((
                ("POST", rank),
                rank_slot + POST_GATHER,
                (("OPT", rank),),
                f"post-gather(rank={rank})",
                "gather",
            ))


def lower_program(
    schedule: Schedule, shape: ProgramShape, *, labelled: bool = False
) -> dict[tuple[int, str], list[tuple]]:
    """The structure of ``schedule`` lowered as ``shape``.

    Returns queues keyed by ``(rank, stream_name)`` of ``(uid, slot,
    deps, label, category)`` tuples; durations are
    ``duration_values(cost, shape)[slot]``.
    """
    return _ProgramBuilder(schedule, shape, labelled=labelled).build()


def build_program(
    cost: CostModel, schedule: Schedule, *, record_events: bool = True
) -> dict[tuple[int, str], list[Instruction]]:
    """Build the instruction queues for every rank and stream.

    Args:
        cost: Durations for every operation.
        schedule: The pipeline schedule to lower.
        record_events: Set False to skip human-readable labels of the
            per-micro-batch instructions.  Durations, uids and
            dependencies are identical either way.
    """
    shape = program_shape(cost, schedule)
    values = duration_values(cost, shape)
    return {
        key: [
            Instruction(uid, values[slot], deps, label, category)
            for uid, slot, deps, label, category in queue
        ]
        for key, queue in lower_program(
            schedule, shape, labelled=record_events
        ).items()
    }
