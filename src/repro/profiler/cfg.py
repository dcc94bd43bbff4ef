"""Dynamic control-flow graph construction (forward pass, part 1).

The profiler builds one CFG per function from the trace of dynamically
executed instructions (paper Section III-A).  Function boundaries are
identified by matching CALL and RETURN instructions; building CFGs from the
*dynamic* trace is necessary because the targets of indirect branches cannot
be derived statically.  Every CFG gets a virtual EXIT node fed by all
observed exit points (return sites, plus the last observed pc of frames that
were still live when trace collection stopped).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..trace.records import InstrKind, TraceRecord

#: Virtual exit node id, shared by every function CFG.  Real pcs are
#: positive (pc = (fn + 1) * FN_SPAN + site), so -1 can never collide.
VIRTUAL_EXIT = -1


class FunctionCFG:
    """Aggregated dynamic CFG of one function.

    All invocations of the function contribute nodes and edges; this matches
    how a static CFG would look restricted to the dynamically exercised
    paths, which is the object the paper computes postdominators on.
    """

    __slots__ = ("fn", "succs", "preds", "entries", "exits", "branch_pcs")

    def __init__(self, fn: int) -> None:
        self.fn = fn
        self.succs: Dict[int, Set[int]] = {}
        self.preds: Dict[int, Set[int]] = {}
        self.entries: Set[int] = set()
        self.exits: Set[int] = set()
        self.branch_pcs: Set[int] = set()

    def add_node(self, pc: int) -> None:
        if pc not in self.succs:
            self.succs[pc] = set()
            self.preds[pc] = set()

    def add_edge(self, src: int, dst: int) -> None:
        self.add_node(src)
        self.add_node(dst)
        self.succs[src].add(dst)
        self.preds[dst].add(src)

    def nodes(self) -> Iterable[int]:
        return self.succs.keys()

    def __len__(self) -> int:
        return len(self.succs)

    def seal(self) -> None:
        """Finalize the CFG: ensure every node can reach an exit.

        Nodes without successors are necessarily last-observed pcs of some
        path, so they are exit points.  This guarantees the virtual EXIT
        postdominates everything, which the postdominator analysis relies
        on.
        """
        for pc, succ in self.succs.items():
            if not succ:
                self.exits.add(pc)
        if not self.exits and self.succs:
            # Pure cycle with no observed exit (can only happen on heavily
            # truncated traces): treat every node as a potential exit.
            self.exits.update(self.succs.keys())


class _Frame:
    """One live invocation during forward stack reconstruction.

    ``last_succs`` is the successor set of ``last_pc`` in ``cfg``, so the
    next record of the invocation adds its edge without a node lookup.
    """

    __slots__ = ("fn", "cfg", "last_pc", "last_succs", "awaiting_callee")

    def __init__(self, fn: int, cfg: FunctionCFG) -> None:
        self.fn = fn
        self.cfg = cfg
        self.last_pc: Optional[int] = None
        self.last_succs: Optional[Set[int]] = None
        self.awaiting_callee = False


class DynamicCFGBuilder:
    """Streams trace records and accumulates per-function CFGs.

    Maintains one call stack per thread; records of different threads may
    interleave arbitrarily (the trace is a single sequential stream of a
    multi-threaded process pinned to one core).
    """

    def __init__(self) -> None:
        self._cfgs: Dict[int, FunctionCFG] = {}
        self._stacks: Dict[int, List[_Frame]] = {}

    def feed(self, record: TraceRecord) -> None:
        self.feed_many((record,))

    def feed_many(self, records: Iterable[TraceRecord]) -> None:
        """Add ``records`` (in execution order) to the CFGs.

        The one forward loop: the thread's stack and top frame are looked
        up only when the tid changes, and a CFG's ``succs``/``preds`` are
        written only for a new node or a new edge.
        """
        cfgs = self._cfgs
        stacks = self._stacks
        BRANCH = InstrKind.BRANCH
        CALL = InstrKind.CALL
        RET = InstrKind.RET
        cur_tid = None
        stack: List[_Frame] = []
        frame: Optional[_Frame] = None
        for rec in records:
            tid = rec.tid
            if tid != cur_tid:
                cur_tid = tid
                stack = stacks.get(tid)
                if stack is None:
                    stack = stacks[tid] = []
                frame = stack[-1] if stack else None
            fn = rec.fn
            if frame is None or frame.awaiting_callee or frame.fn != fn:
                # A thread root, the callee of the previous CALL, or (with
                # unbalanced CALL/RET, e.g. hand-built traces) an
                # unexpected function: each starts a fresh frame.
                if frame is not None:
                    frame.awaiting_callee = False
                cfg = cfgs.get(fn)
                if cfg is None:
                    cfg = cfgs[fn] = FunctionCFG(fn)
                frame = _Frame(fn, cfg)
                stack.append(frame)
            else:
                cfg = frame.cfg
            pc = rec.pc
            succs = cfg.succs
            pc_succs = succs.get(pc)
            if pc_succs is None:
                pc_succs = succs[pc] = set()
                cfg.preds[pc] = set()
            last_succs = frame.last_succs
            if last_succs is None:
                cfg.entries.add(pc)
            elif pc not in last_succs:
                last_succs.add(pc)
                cfg.preds[pc].add(frame.last_pc)
            frame.last_pc = pc
            frame.last_succs = pc_succs

            kind = rec.kind
            if kind == BRANCH:
                cfg.branch_pcs.add(pc)
            elif kind == CALL:
                frame.awaiting_callee = True
            elif kind == RET:
                cfg.exits.add(pc)
                stack.pop()
                frame = stack[-1] if stack else None

    def finish(self) -> Dict[int, FunctionCFG]:
        """Close truncated frames and seal every CFG."""
        for stack in self._stacks.values():
            for frame in stack:
                if frame.last_pc is not None:
                    frame.cfg.exits.add(frame.last_pc)
        for cfg in self._cfgs.values():
            cfg.seal()
        return self._cfgs


def build_cfgs(records: Iterable[TraceRecord]) -> Dict[int, FunctionCFG]:
    """Convenience wrapper: build all function CFGs from a record stream."""
    builder = DynamicCFGBuilder()
    builder.feed_many(records)
    return builder.finish()
