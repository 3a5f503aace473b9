"""Static deadlock-freedom proof for lowered programs.

The event engine (:mod:`repro.sim.engine`) executes each (rank, stream)
instruction queue strictly in order, so a program deadlocks if and only
if the graph over *all* instructions — explicit dependency edges plus
the implicit FIFO edge from each instruction to its stream predecessor
— is cyclic, or some dependency names a uid no instruction carries
(a recv whose send was never emitted blocks its stream forever).

This module proves the negative statically, without simulating:

- **P301 unmatched dependency**: a dep uid that exists nowhere in the
  program.  For pipeline transfer uids (``XA``/``XG``) this is exactly
  the "recv without a send" half of cross-rank p2p matching.
- **P302 orphan p2p send**: a transfer instruction no other instruction
  depends on — the "send without a recv" half.  The engine tolerates
  these (the transfer just runs), but a real NCCL send with no matching
  recv blocks its stream, so the verifier treats it as an error.
- **P303 dependency cycle**: a topological order over dep + FIFO edges
  (:func:`repro.sim.topology.topological_order`) leaves nodes out; the smallest blocked stream heads are
  reported with what they wait on, mirroring the engine's dynamic
  deadlock diagnostics.
- **P304 duplicate uid**: two instructions share a uid, so dependency
  edges are ambiguous (the engine rejects this at load time).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.sim.engine import Instruction
from repro.sim.topology import topological_order
from repro.verify.labels import uid_label
from repro.verify.report import Finding

__all__ = ["check_dependency_graph"]

#: Uid tags of point-to-point pipeline transfers (activation send,
#: gradient send).  These must pair with exactly one consumer.
_P2P_TAGS = ("XA", "XG")


def _is_p2p(uid: object) -> bool:
    return isinstance(uid, tuple) and len(uid) > 0 and uid[0] in _P2P_TAGS


def check_dependency_graph(
    streams: Mapping[tuple[int, str], Sequence[Instruction]],
) -> list[Finding]:
    """Prove the program deadlock-free; return findings otherwise.

    ``streams`` is the exact structure :func:`repro.sim.program
    .build_program` produces: instruction queues keyed by
    ``(rank, stream_name)``.
    """
    findings: list[Finding] = []

    # Index every instruction; duplicates make the graph ambiguous.
    owner: dict[object, tuple[int, str, int]] = {}
    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            if instr.uid in owner:
                prev_rank, prev_stream, prev_pos = owner[instr.uid]
                findings.append(
                    Finding(
                        rule="P304",
                        location=f"rank {rank}/{stream}[{position}]",
                        message=(
                            f"duplicate instruction uid "
                            f"{uid_label(instr.uid)} (first emitted at "
                            f"rank {prev_rank}/{prev_stream}[{prev_pos}])"
                        ),
                    )
                )
                continue
            owner[instr.uid] = (rank, stream, position)

    # Unmatched dependencies, and consumer counts for orphan detection.
    consumers: dict[object, int] = {}
    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            for dep in instr.deps:
                if dep not in owner:
                    kind = (
                        "unmatched p2p recv: no instruction sends"
                        if _is_p2p(dep)
                        else "dependency on a uid no instruction carries:"
                    )
                    findings.append(
                        Finding(
                            rule="P301",
                            location=f"rank {rank}/{stream}[{position}]",
                            message=(
                                f"{uid_label(instr.uid)} waits on "
                                f"{kind} {uid_label(dep)}"
                            ),
                        )
                    )
                else:
                    consumers[dep] = consumers.get(dep, 0) + 1

    for (rank, stream), queue in streams.items():
        for position, instr in enumerate(queue):
            if _is_p2p(instr.uid) and instr.uid not in consumers:
                findings.append(
                    Finding(
                        rule="P302",
                        location=f"rank {rank}/{stream}[{position}]",
                        message=(
                            f"orphan p2p send {uid_label(instr.uid)}: no "
                            "instruction depends on it (send without recv)"
                        ),
                    )
                )

    # Topological order over dependency + FIFO edges (the one the
    # simulator compiles programs with).  Unmatched deps were already
    # reported; they are excluded here so a single missing send does not
    # additionally masquerade as a cycle.
    keys = sorted(streams)
    index_of: dict[object, int] = {}
    nodes: list[tuple[int, str, int, Instruction]] = []
    stops: list[int] = []
    for rank, stream in keys:
        for position, instr in enumerate(streams[(rank, stream)]):
            if owner.get(instr.uid) == (rank, stream, position):
                index_of[instr.uid] = len(nodes)
            nodes.append((rank, stream, position, instr))
        stops.append(len(nodes))

    ptr = [0]
    flat: list[int] = []
    for node_index, (rank, stream, position, instr) in enumerate(nodes):
        for dep in instr.deps:
            dep_index = index_of.get(dep)
            if dep_index is not None and dep_index != node_index:
                flat.append(dep_index)
            elif dep_index == node_index:
                findings.append(
                    Finding(
                        rule="P303",
                        location=f"rank {rank}/{stream}[{position}]",
                        message=f"{uid_label(instr.uid)} depends on itself",
                    )
                )
        ptr.append(len(flat))

    order, heads = topological_order(stops, ptr, flat)
    if len(order) < len(nodes):
        # Report each stream's first stuck instruction, as the engine
        # would have at runtime — but provably, without running it.
        ordered = set(order)
        for s, head in enumerate(heads):
            if head == stops[s]:
                continue
            rank, stream, position, instr = nodes[head]
            waiting = [
                uid_label(dep)
                for dep in instr.deps
                if dep in index_of and index_of[dep] not in ordered
            ]
            findings.append(
                Finding(
                    rule="P303",
                    location=f"rank {rank}/{stream}[{position}]",
                    message=(
                        "dependency cycle: "
                        f"{uid_label(instr.uid)} can never start"
                        + (f" (waits on {', '.join(waiting)})" if waiting else "")
                    ),
                )
            )
    return findings
