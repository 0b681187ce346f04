"""Data model and ingestion for networks of switched linear subsystems.

A network is a collection of switched linear subsystems

    x_i(k+1) = A_{i,s} x_i(k) + D_{i,s} w_i(k) + B_{i,s} u_i(k)
    y_i(k)   = C_{i,s} x_i(k)            with s = sigma_i(k)

whose outputs are partitioned into named blocks: the block keyed by the
subsystem's own id is its external output, every other block feeds the
in-block of a neighbor (internal input w_ij = y_ji, evaluated at the same
time step, so there is no algebraic loop).

Block maps may vary per mode (a switched topology moves the active neighbor
with the mode); a subsystem-level block map is accepted as the default for
all modes.  The interconnection graph exposed on the spec is the union over
modes.

Specs are immutable after loading.  On first use a spec compiles into a
``NetworkEngine`` that evaluates every node at once on flat stacked
vectors; ``step``, ``step_with_modes`` and ``assemble_internal_input`` are
per-node list wrappers around it, and the lockstep simulator and the
composed oracle run on it directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BlockPartitionError,
    DimensionMismatchError,
    SchemaError,
    WiringError,
)

SCHEMA_NETWORK = "simnet-v1"

BlockMap = dict[int, tuple[int, int]]  # peer id -> half-open index range


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mode:
    """One dynamics mode of a subsystem, with its block wiring."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    out_blocks: BlockMap
    in_blocks: BlockMap

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


class SwitchedLinearSubsystem:
    """One node of the network: a finite family of modes sharing dimensions."""

    def __init__(self, node_id: int, modes: list[Mode]):
        if not modes:
            raise SchemaError(f"subsystem {node_id} declares no modes", node=node_id)
        self.id = int(node_id)
        self.modes = tuple(modes)
        self._validate()

    # shared dimensions
    @property
    def n(self) -> int:
        return self.modes[0].A.shape[0]

    @property
    def m(self) -> int:
        return self.modes[0].B.shape[1]

    @property
    def q(self) -> int:
        return self.modes[0].C.shape[0]

    @property
    def internal_width(self) -> int:
        return self.modes[0].D.shape[1]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def in_neighbors(self, mode: int) -> tuple[int, ...]:
        return tuple(j for j, (lo, hi) in self.modes[mode].in_blocks.items() if hi > lo)

    def out_neighbors(self, mode: int) -> tuple[int, ...]:
        return tuple(
            j
            for j, (lo, hi) in self.modes[mode].out_blocks.items()
            if j != self.id and hi > lo
        )

    def union_in_neighbors(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for s in range(self.n_modes):
            for j in self.in_neighbors(s):
                seen.setdefault(j, None)
        return tuple(sorted(seen))

    def union_out_neighbors(self) -> tuple[int, ...]:
        seen: dict[int, None] = {}
        for s in range(self.n_modes):
            for j in self.out_neighbors(s):
                seen.setdefault(j, None)
        return tuple(sorted(seen))

    def external_range(self, mode: int) -> tuple[int, int]:
        return self.modes[mode].out_blocks[self.id]

    def _validate(self):
        i = self.id
        n, m, q, nw = self.n, self.m, self.q, self.internal_width
        for s, mode in enumerate(self.modes):
            if mode.A.shape != (n, n):
                raise DimensionMismatchError(
                    f"subsystem {i} mode {s}: A must be {n}x{n}, got {mode.A.shape}",
                    node=i, mode=s, matrix="A",
                )
            if mode.B.shape != (n, m):
                raise DimensionMismatchError(
                    f"subsystem {i} mode {s}: B must be {n}x{m}, got {mode.B.shape}",
                    node=i, mode=s, matrix="B",
                )
            if mode.C.shape != (q, n):
                raise DimensionMismatchError(
                    f"subsystem {i} mode {s}: C must be {q}x{n}, got {mode.C.shape}",
                    node=i, mode=s, matrix="C",
                )
            if mode.D.shape != (n, nw):
                raise DimensionMismatchError(
                    f"subsystem {i} mode {s}: D must be {n}x{nw}, got {mode.D.shape}",
                    node=i, mode=s, matrix="D",
                )
            for name in ("A", "B", "C", "D"):
                if not np.all(np.isfinite(getattr(mode, name))):
                    raise SchemaError(
                        f"subsystem {i} mode {s}: matrix {name} has non-finite entries",
                        node=i, mode=s, matrix=name,
                    )
            _check_partition(mode.out_blocks, q, i, s, "out_blocks")
            _check_partition(mode.in_blocks, nw, i, s, "in_blocks")
            if i not in mode.out_blocks:
                raise BlockPartitionError(
                    f"subsystem {i} mode {s}: out_blocks must key the external "
                    f"output block by the subsystem's own id",
                    node=i, mode=s,
                )
            lo, hi = mode.out_blocks[i]
            if hi <= lo:
                raise BlockPartitionError(
                    f"subsystem {i} mode {s}: external output block must be nonempty",
                    node=i, mode=s,
                )
            if i in mode.in_blocks:
                raise WiringError(
                    f"subsystem {i} mode {s}: a subsystem may not feed itself",
                    node=i, mode=s,
                )
            lo0, hi0 = self.external_range(0)
            if hi - lo != hi0 - lo0:
                raise BlockPartitionError(
                    f"subsystem {i} mode {s}: external output block is {hi - lo} wide, "
                    f"{hi0 - lo0} in mode 0 (its width is fixed across modes)",
                    node=i, mode=s,
                )


def _check_partition(blocks: BlockMap, width: int, node: int, mode: int, kind: str):
    ranges = sorted((lo, hi) for lo, hi in blocks.values())
    cursor = 0
    for lo, hi in ranges:
        if lo != cursor or hi < lo:
            raise BlockPartitionError(
                f"subsystem {node} mode {mode}: {kind} ranges leave a gap or overlap "
                f"at index {cursor}",
                node=node, mode=mode, kind=kind, index=cursor,
            )
        cursor = hi
    if cursor != width:
        raise BlockPartitionError(
            f"subsystem {node} mode {mode}: {kind} ranges cover {cursor} of {width} indices",
            node=node, mode=mode, kind=kind, covered=cursor, width=width,
        )


@dataclass(frozen=True)
class InterconnectionGraph:
    """Union-over-modes neighbor sets; j in in_neighbors[i] means j feeds i."""

    nodes: tuple[int, ...]
    in_neighbors: dict[int, tuple[int, ...]]
    out_neighbors: dict[int, tuple[int, ...]]

    def __post_init__(self):
        for i in self.nodes:
            if i in self.in_neighbors.get(i, ()) or i in self.out_neighbors.get(i, ()):
                raise WiringError(f"node {i} may not neighbor itself", node=i)
        for i in self.nodes:
            for j in self.in_neighbors.get(i, ()):
                if i not in self.out_neighbors.get(j, ()):
                    raise WiringError(
                        f"wiring inconsistency: edge {j}->{i} lacks the inverse "
                        f"out-neighbor entry",
                        src=j, dst=i,
                    )
        for j in self.nodes:
            for i in self.out_neighbors.get(j, ()):
                if j not in self.in_neighbors.get(i, ()):
                    raise WiringError(
                        f"wiring inconsistency: edge {j}->{i} lacks the inverse "
                        f"in-neighbor entry",
                        src=j, dst=i,
                    )

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (j, i) for i in self.nodes for j in self.in_neighbors.get(i, ())
        )


class SwitchingSignal:
    """Per-subsystem mode schedules sigma_i : k -> mode index.

    Either an explicit table over a horizon or a periodic rule; switching may
    be asynchronous across subsystems.
    """

    def __init__(self, n_nodes: int, fn, horizon: int | None):
        self._n = n_nodes
        self._fn = fn
        self.horizon = horizon

    @property
    def n_nodes(self) -> int:
        return self._n

    def mode(self, node_pos: int, k: int) -> int:
        if self.horizon is not None and k >= self.horizon:
            raise DimensionMismatchError(
                f"switching horizon {self.horizon} does not cover step {k}",
                step=k, horizon=self.horizon,
            )
        return self._fn(node_pos, k)

    def modes_at(self, k: int) -> list[int]:
        return [self.mode(i, k) for i in range(self._n)]

    @classmethod
    def from_table(cls, table: list[list[int]]) -> "SwitchingSignal":
        rows = [list(map(int, row)) for row in table]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise SchemaError("switching table rows must be nonempty and equal length")
        return cls(len(rows), lambda i, k: rows[i][k], len(rows[0]))

    @classmethod
    def periodic(cls, schedules: list[list[int]], period: int) -> "SwitchingSignal":
        if period < 1:
            raise SchemaError("switching period must be >= 1")
        rows = [list(map(int, row)) for row in schedules]
        if not rows or any(not r for r in rows):
            raise SchemaError("each periodic schedule must be nonempty")
        return cls(
            len(rows), lambda i, k: rows[i][(k // period) % len(rows[i])], None
        )

    @classmethod
    def synchronized(cls, n_nodes: int, schedule: list[int], period: int) -> "SwitchingSignal":
        """All subsystems share one periodic schedule (topology switches at once)."""
        return cls.periodic([list(schedule)] * n_nodes, period)

    @classmethod
    def constant(cls, n_nodes: int, mode: int = 0) -> "SwitchingSignal":
        return cls(n_nodes, lambda i, k: mode, None)


class NetworkSpec:
    """Validated network: subsystems, union graph, optional abstractions."""

    def __init__(self, subsystems, abstract_subsystems=None):
        self.subsystems = tuple(subsystems)
        self.abstract_subsystems = (
            tuple(abstract_subsystems) if abstract_subsystems else None
        )
        ids = [s.id for s in self.subsystems]
        if len(set(ids)) != len(ids):
            raise SchemaError("subsystem ids must be unique", ids=ids)
        self.index = {s.id: pos for pos, s in enumerate(self.subsystems)}
        self._validate_peers()
        self._validate_wiring()  # precise dangling-edge/width diagnostics first
        self.graph = self._build_graph()
        if self.abstract_subsystems is not None:
            self._validate_abstraction()
        self._abstract_view = None

    @property
    def n_nodes(self) -> int:
        return len(self.subsystems)

    def subsystem(self, node_id: int) -> SwitchedLinearSubsystem:
        return self.subsystems[self.index[node_id]]

    def abstract_view(self) -> "NetworkSpec":
        """The abstract network as a spec in its own right (same wiring).

        Built and validated on the first call; specs are immutable, so later
        calls return the same view.
        """
        if self.abstract_subsystems is None:
            raise SchemaError("network declares no abstract subsystems")
        if self._abstract_view is None:
            self._abstract_view = NetworkSpec(self.abstract_subsystems)
        return self._abstract_view

    @cached_property
    def engine(self) -> "NetworkEngine":
        """The spec compiled for evaluation, on first use: loading and
        validating a spec never pay for it."""
        return NetworkEngine(self)

    def _validate_peers(self):
        known = set(self.index)
        for sub in self.subsystems:
            for j in sub.union_in_neighbors() + sub.union_out_neighbors():
                if j not in known:
                    raise WiringError(
                        f"subsystem {sub.id} references unknown peer {j}",
                        node=sub.id, peer=j,
                    )

    def _build_graph(self) -> InterconnectionGraph:
        in_n = {sub.id: sub.union_in_neighbors() for sub in self.subsystems}
        out_n = {sub.id: sub.union_out_neighbors() for sub in self.subsystems}
        return InterconnectionGraph(tuple(s.id for s in self.subsystems), in_n, out_n)

    def _validate_wiring(self):
        # every in-block must find at least one producing mode on the source,
        # and all coexisting widths must agree
        for sub in self.subsystems:
            for s, mode in enumerate(sub.modes):
                for j, (lo, hi) in mode.in_blocks.items():
                    if hi <= lo:
                        continue
                    src = self.subsystem(j)
                    widths = [
                        r[1] - r[0]
                        for sm in src.modes
                        if (r := sm.out_blocks.get(sub.id)) is not None and r[1] > r[0]
                    ]
                    if not widths:
                        raise WiringError(
                            f"dangling edge: subsystem {sub.id} mode {s} expects input "
                            f"from {j}, but {j} never outputs to {sub.id}",
                            src=j, dst=sub.id, mode=s,
                        )
                    if any(w != hi - lo for w in widths):
                        raise WiringError(
                            f"edge {j}->{sub.id}: in-block width {hi - lo} does not "
                            f"match the source output block width",
                            src=j, dst=sub.id, width_in=hi - lo, widths_out=widths,
                        )

    def _validate_abstraction(self):
        if len(self.abstract_subsystems) != len(self.subsystems):
            raise SchemaError(
                "abstract subsystem list must align with the concrete list",
                concrete=len(self.subsystems), abstract=len(self.abstract_subsystems),
            )
        for conc, abst in zip(self.subsystems, self.abstract_subsystems):
            if conc.id != abst.id:
                raise SchemaError(
                    f"abstract subsystem id {abst.id} does not match concrete {conc.id}",
                    concrete=conc.id, abstract=abst.id,
                )
            if conc.n_modes != abst.n_modes:
                raise DimensionMismatchError(
                    f"subsystem {conc.id}: abstract mode count {abst.n_modes} "
                    f"differs from concrete {conc.n_modes}",
                    node=conc.id,
                )
            if conc.q != abst.q:
                raise DimensionMismatchError(
                    f"subsystem {conc.id}: abstract output width {abst.q} differs "
                    f"from concrete {conc.q} (identical output spaces required)",
                    node=conc.id, q=conc.q, q_abstract=abst.q,
                )
            for s, (cm, am) in enumerate(zip(conc.modes, abst.modes)):
                if cm.out_blocks != am.out_blocks or cm.in_blocks != am.in_blocks:
                    raise WiringError(
                        f"subsystem {conc.id} mode {s}: abstract block maps must "
                        f"match the concrete wiring",
                        node=conc.id, mode=s,
                    )


@dataclass(frozen=True)
class StepResult:
    next_states: list[np.ndarray]
    outputs: list[np.ndarray] = field(default_factory=list)
    external_outputs: list[np.ndarray] = field(default_factory=list)


def assemble_internal_input(spec: NetworkSpec, states, modes) -> list[np.ndarray]:
    """Internal inputs w_i built from neighbor outputs at the same step.

    w_ij equals the output block of subsystem j addressed to i, evaluated at
    j's current mode; outputs depend on states only, so no algebraic loop.
    Linear in the states by construction.
    """
    engine = spec.engine
    x = engine.state.stack(states)
    w = engine.step(x, np.zeros(engine.input.size), engine.slots.select(modes))[2]
    return engine.internal_input.split(w)


def step(spec: NetworkSpec, states, inputs, switching: SwitchingSignal, k: int) -> StepResult:
    """Advance the whole network one step under the given switching signal.

    Returns next states, full outputs y_i(k) and external blocks y_ii(k);
    outputs use the same mode sigma_i(k) as the state update.
    """
    return step_with_modes(spec, states, inputs, switching.modes_at(k))


def step_with_modes(spec: NetworkSpec, states, inputs, modes) -> StepResult:
    engine = spec.engine
    x = engine.state.stack(states)
    u = engine.input.stack(inputs)
    x_next, y, _, ext = engine.step(x, u, engine.slots.select(modes))
    return StepResult(
        engine.state.split(x_next), engine.output.split(y), engine.external.split(ext)
    )


class Layout:
    """Per-node vectors of the given sizes, stacked in node order into one
    flat vector."""

    def __init__(self, ids, sizes, what: str):
        self.ids, self.sizes, self.what = tuple(ids), [int(n) for n in sizes], what
        self.off = np.concatenate(([0], np.cumsum(self.sizes, dtype=np.intp)))
        self.size = int(self.off[-1])
        bounds = self.off.tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def stack(self, parts) -> np.ndarray:
        arrays = [np.asarray(p, dtype=float) for p in parts]
        if len(arrays) != len(self.ids):
            raise DimensionMismatchError(
                f"expected {len(self.ids)} {self.what} vectors, got {len(arrays)}",
                expected=len(self.ids), got=len(arrays),
            )
        for node, a, n in zip(self.ids, arrays, self.sizes):
            if a.shape != (n,):
                raise DimensionMismatchError(
                    f"subsystem {node}: {self.what} must have length {n}, got {a.shape}",
                    node=node,
                )
        return np.concatenate(arrays) if arrays else np.zeros(0)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The per-node views of a flat vector."""
        return [flat[s] for s in self._slices]

    def select(self, index) -> np.ndarray:
        """Mask of one element per node, at the given position in the node's
        part: over the (node, mode) slots, the slots of the given modes."""
        index = np.asarray(index, dtype=np.intp)
        if index.shape != (len(self.ids),):
            raise DimensionMismatchError(
                f"expected one {self.what} per node ({len(self.ids)}), got {index.size}",
                expected=len(self.ids), got=index.size,
            )
        bad = np.flatnonzero((index < 0) | (index >= self.sizes))
        if bad.size:
            node, value = self.ids[bad[0]], int(index[bad[0]])
            raise DimensionMismatchError(
                f"subsystem {node}: {self.what} {value} is out of range "
                f"0..{self.sizes[bad[0]] - 1}",
                node=node, index=value,
            )
        mask = np.zeros(self.size, dtype=bool)
        mask[self.off[:-1] + index] = True
        return mask


class TaggedEntries:
    """Matrix blocks placed in a flat matrix with ``size`` rows, stored as
    entries (row, col, value) tagged with two (node, mode) slots; an entry
    applies when both of its slots are active.

    ``blocks`` are (matrix, row, col, slot, slot) tuples.
    """

    def __init__(self, blocks, size: int):
        mats = [np.asarray(b[0], dtype=float) for b in blocks]
        shape = np.array([m.shape for m in mats], dtype=np.intp).reshape(-1, 2)
        tags = np.array([b[1:] for b in blocks], dtype=np.intp).reshape(-1, 4)
        lengths = shape[:, 0] * shape[:, 1]
        seg = np.repeat(np.arange(len(blocks)), lengths)
        t = np.arange(seg.size) - (np.cumsum(lengths) - lengths)[seg]
        self.rows = tags[seg, 0] + t // shape[seg, 1]
        self.cols = tags[seg, 1] + t % shape[seg, 1]
        self.slots = tags[seg, 2], tags[seg, 3]
        self.values = np.concatenate([m.ravel() for m in mats]) if mats else np.zeros(0)
        self.size = size

    @classmethod
    def family(cls, per_node, rows: Layout, cols: Layout, slots: Layout) -> "TaggedEntries":
        """Every node's per-mode matrices (``per_node[pos][mode]``) placed at
        the node's parts of the ``rows`` and ``cols`` layouts."""
        r, c, first = rows.off.tolist(), cols.off.tolist(), slots.off.tolist()
        return cls([(m, r[pos], c[pos], first[pos] + s, first[pos] + s)
                    for pos, mats in enumerate(per_node) for s, m in enumerate(mats)], rows.size)

    def apply(self, active: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """The active entries times ``vec``."""
        keep = active[self.slots[0]] & active[self.slots[1]]
        return np.bincount(
            self.rows[keep], self.values[keep] * vec[self.cols[keep]], minlength=self.size
        )


class NetworkEngine:
    """A spec compiled for evaluation on flat vectors.

    States, inputs, outputs, internal inputs and external outputs of all
    nodes are stacked in node order (the ``Layout`` attributes), and every
    (node, mode) pair has a slot.  The A, B, C and D blocks of every (node,
    mode), and the selection of its external output, become entries tagged
    with its slot; each wiring block w_ij = y_ji becomes unit entries tagged
    with the slots of both ends.  A step applies each family with one
    np.bincount, so every node shape takes the same path.  Nothing here
    calls BLAS, so results do not depend on the thread count.
    """

    def __init__(self, spec: NetworkSpec):
        subs = spec.subsystems
        ids = [sub.id for sub in subs]
        self.slots = Layout(ids, [sub.n_modes for sub in subs], "mode")
        self.state = Layout(ids, [sub.n for sub in subs], "state")
        self.input = Layout(ids, [sub.m for sub in subs], "input")
        self.output = Layout(ids, [sub.q for sub in subs], "output")
        self.internal_input = Layout(ids, [sub.internal_width for sub in subs], "internal input")
        ext_ranges = [sub.external_range(0) for sub in subs]
        self.external = Layout(ids, [hi - lo for lo, hi in ext_ranges], "external output")

        def family(rows, cols, matrix):
            per_node = [[matrix(sub, mode) for mode in sub.modes] for sub in subs]
            return TaggedEntries.family(per_node, rows, cols, self.slots)

        self._A = family(self.state, self.state, lambda sub, mode: mode.A)
        self._B = family(self.state, self.input, lambda sub, mode: mode.B)
        self._C = family(self.output, self.state, lambda sub, mode: mode.C)
        self._D = family(self.state, self.internal_input, lambda sub, mode: mode.D)
        self._external = family(  # rows of y, wherever the mode puts the block
            self.external, self.output,
            lambda sub, mode: np.eye(sub.q)[slice(*mode.out_blocks[sub.id])],
        )
        ys, w0 = self.output.off.tolist(), self.internal_input.off.tolist()
        first = self.slots.off.tolist()
        wiring, self._unwired = [], []
        for pos, sub in enumerate(subs):
            for s, mode in enumerate(sub.modes):
                for j, (lo, hi) in mode.in_blocks.items():
                    if hi <= lo:  # zero-width blocks may name any peer
                        continue
                    src = spec.index[j]
                    for s2, src_mode in enumerate(subs[src].modes):
                        tags = (first[pos] + s, first[src] + s2)
                        r0, r1 = src_mode.out_blocks.get(sub.id, (0, 0))
                        if r1 > r0:
                            wiring.append((np.eye(hi - lo), w0[pos] + lo, ys[src] + r0, *tags))
                        else:
                            self._unwired.append((*tags, sub.id, j, s2))
        self._wiring = TaggedEntries(wiring, self.internal_input.size)
        pairs = [t[:2] for t in self._unwired]
        self._unwired_slots = np.array(pairs, dtype=np.intp).reshape(-1, 2).T

    def step(self, x: np.ndarray, u: np.ndarray, active: np.ndarray):
        """(x_next, y, w, external outputs) at the active slots; WiringError
        when a node's mode expects input that its source's mode does not
        produce."""
        hit = np.flatnonzero(active[self._unwired_slots[0]] & active[self._unwired_slots[1]])
        if hit.size:
            _, _, dst, src, src_mode = self._unwired[hit[0]]
            raise WiringError(
                f"subsystem {dst} expects input from {src}, but {src}'s current "
                f"mode outputs nothing to {dst}",
                src=src, dst=dst, src_mode=src_mode,
            )
        y = self._C.apply(active, x)
        w = self._wiring.apply(active, y)
        x_next = self._A.apply(active, x) + self._D.apply(active, w) + self._B.apply(active, u)
        return x_next, y, w, self._external.apply(active, y)


# ---------------------------------------------------------------------------
# JSON ingestion


def load_network(path) -> NetworkSpec:
    """Load and validate a network file (schema ``simnet-v1``)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", path=str(path)) from exc
    return parse_network(data)


def parse_network(data) -> NetworkSpec:
    if not isinstance(data, dict):
        raise SchemaError("network file must be a JSON object")
    if data.get("schema") != SCHEMA_NETWORK:
        raise SchemaError(
            f"missing or unsupported schema tag (expected '{SCHEMA_NETWORK}')",
            schema=data.get("schema"),
        )
    if "subsystems" not in data or not isinstance(data["subsystems"], list):
        raise SchemaError("network file must declare a 'subsystems' array")
    subs = [_parse_subsystem(entry) for entry in data["subsystems"]]
    abstract = None
    if data.get("abstract_subsystems") is not None:
        abstract = [_parse_subsystem(e) for e in data["abstract_subsystems"]]
    spec = NetworkSpec(subs, abstract)
    declared = {tuple(map(int, e)) for e in data.get("edges", [])}
    derived = set(spec.graph.edges)
    if declared != derived:
        extra = sorted(declared - derived)
        missing = sorted(derived - declared)
        raise WiringError(
            f"wiring inconsistency: declared edges disagree with block wiring "
            f"(dangling declared: {extra}, undeclared: {missing})",
            dangling=extra, undeclared=missing,
        )
    return spec


def _parse_matrix(obj, node, mode, name) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(
            f"subsystem {node} mode {mode}: matrix {name} must be an array of row arrays",
            node=node, mode=mode, matrix=name,
        )
    widths = {len(r) for r in obj}
    if len(widths) > 1:
        raise SchemaError(
            f"subsystem {node} mode {mode}: matrix {name} rows have unequal lengths",
            node=node, mode=mode, matrix=name,
        )
    try:
        a = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"subsystem {node} mode {mode}: matrix {name} has non-numeric entries",
            node=node, mode=mode, matrix=name,
        ) from exc
    if a.ndim == 1:  # zero-column matrices parse as 1-d
        a = a.reshape(len(obj), 0)
    return a


def _parse_blocks(obj, node, mode, kind) -> BlockMap:
    if not isinstance(obj, dict):
        raise SchemaError(
            f"subsystem {node}: {kind} must be an object of id -> [start, stop]",
            node=node, kind=kind,
        )
    blocks: BlockMap = {}
    for key, rng in obj.items():
        try:
            peer = int(key)
        except ValueError as exc:
            raise SchemaError(
                f"subsystem {node}: {kind} key '{key}' is not an integer id",
                node=node, kind=kind,
            ) from exc
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or not all(isinstance(v, int) for v in rng)
        ):
            raise SchemaError(
                f"subsystem {node}: {kind}[{key}] must be an integer pair [start, stop]",
                node=node, kind=kind, key=key,
            )
        blocks[peer] = (rng[0], rng[1])
    return blocks


def _parse_subsystem(entry) -> SwitchedLinearSubsystem:
    if not isinstance(entry, dict) or "id" not in entry:
        raise SchemaError("each subsystem must be an object with an 'id'")
    node = int(entry["id"])
    modes_raw = entry.get("modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        raise SchemaError(f"subsystem {node} must declare a nonempty 'modes' array", node=node)
    default_out = entry.get("out_blocks")
    default_in = entry.get("in_blocks")
    modes = []
    for s, mraw in enumerate(modes_raw):
        if not isinstance(mraw, dict):
            raise SchemaError(f"subsystem {node} mode {s} must be an object", node=node, mode=s)
        missing = [k for k in ("A", "B", "C", "D") if k not in mraw]
        if missing:
            raise SchemaError(
                f"subsystem {node} mode {s} lacks matrices {missing}",
                node=node, mode=s, missing=missing,
            )
        out_raw = mraw.get("out_blocks", default_out)
        in_raw = mraw.get("in_blocks", default_in)
        if out_raw is None or in_raw is None:
            raise SchemaError(
                f"subsystem {node} mode {s}: out_blocks/in_blocks missing (neither "
                f"per-mode nor subsystem-level)",
                node=node, mode=s,
            )
        modes.append(
            Mode(
                A=_parse_matrix(mraw["A"], node, s, "A"),
                B=_parse_matrix(mraw["B"], node, s, "B"),
                C=_parse_matrix(mraw["C"], node, s, "C"),
                D=_parse_matrix(mraw["D"], node, s, "D"),
                out_blocks=_parse_blocks(out_raw, node, s, "out_blocks"),
                in_blocks=_parse_blocks(in_raw, node, s, "in_blocks"),
            )
        )
    return SwitchedLinearSubsystem(node, modes)


def network_to_json(spec: NetworkSpec) -> dict:
    """Canonical JSON form: per-mode block maps, edges sorted."""
    def sub_json(sub: SwitchedLinearSubsystem) -> dict:
        return {
            "id": sub.id,
            "modes": [
                {
                    "A": mode.A.tolist(),
                    "B": mode.B.tolist(),
                    "C": mode.C.tolist(),
                    "D": mode.D.tolist(),
                    "out_blocks": {
                        str(j): list(r) for j, r in sorted(mode.out_blocks.items())
                    },
                    "in_blocks": {
                        str(j): list(r) for j, r in sorted(mode.in_blocks.items())
                    },
                }
                for mode in sub.modes
            ],
        }

    data = {
        "schema": SCHEMA_NETWORK,
        "subsystems": [sub_json(s) for s in spec.subsystems],
        "edges": [list(e) for e in sorted(spec.graph.edges)],
    }
    if spec.abstract_subsystems is not None:
        data["abstract_subsystems"] = [sub_json(s) for s in spec.abstract_subsystems]
    return data


def save_network(spec: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")
