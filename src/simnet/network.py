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

Ingest is columnar.  ``parse_network`` walks the decoded JSON once per
layer (concrete, then abstract): every matrix is converted in one
``np.array`` call per shape, into read-only stacks that the ``Mode``
objects view without copying, and every block of every block map becomes
a row of one integer table (row = (node, mode), kind, peer, lo, hi).
Validation then runs once per check over whole columns, never per matrix
or per mode, in this order:

  1. per layer, node by node in file order: the file's structure (each
     entry an object with an integral id and nonempty modes, matrices as
     arrays of numeric row arrays, block maps as id -> [start, stop] with
     integer bounds; booleans and non-integral ids are rejected), then per
     mode the shapes of A, B, C, D, their finiteness, the out- and
     in-block partitions, the external block (keyed by the own id,
     nonempty, one width in every mode) and self-feeding;
  2. per spec: unique ids, unknown peers, dangling edges and wiring
     widths, inverse wiring entries, abstraction alignment (ids, mode
     counts, output widths and block maps) and, for files, the declared
     edges.

The columns only flag.  The first entry or node flagged is then read or
checked again on its own (``_entry_defect``, ``_subsystem_defect``), which
raises the first defect in file order with its class, message and
details.  A ``NetworkSpec`` built from objects goes through the same
checks.  A ``SwitchedLinearSubsystem`` is checked where it is used, not
when it is made: by its spec, or on its own by the functions that take a
subsystem outside a spec.  The abstract view reuses the checked abstract
layer.

Specs are immutable after loading.  On first use a spec compiles into a
``NetworkEngine`` (``spec.engine``) that evaluates every node at once on
flat stacked vectors: one ``step`` gives the next states, the outputs, the
internal inputs and the external outputs.  The engine is built from what
the layers already hold: its slots are the layer's (node, mode) rows, the
matrices are placed with one stack per shape, and the external selection
and the wiring come from the block table as index arrays, compiled once
per spec (the abstract view shares them).  The lockstep simulator and the
composed oracle run on it.
"""

from __future__ import annotations

import gc
import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    BlockPartitionError,
    DimensionMismatchError,
    SchemaError,
    SimnetError,
    WiringError,
)

SCHEMA_NETWORK = "simnet-v1"

BlockMap = dict[int, tuple[int, int]]  # peer id -> half-open index range


_OUT, _IN = 0, 1  # block kinds in a layer's block table
_FAMILIES = ("A", "B", "C", "D")


def _view(cls, **fields):
    """An instance of ``cls`` holding ``fields``, made without running its
    constructor: for data the columnar validators have already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        for name in _FAMILIES:
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))


class SwitchedLinearSubsystem:
    """One node of the network: a finite family of modes sharing dimensions.

    The node's own checks (shapes, finiteness, block partitions, external
    block, self-feeding) run where subsystems are used: all nodes at once
    when a file is parsed or a NetworkSpec is built, one at a time when a
    subsystem no spec holds is verified, solved for or sampled (see
    ``_check_subsystems``).
    """

    def __init__(self, node_id: int, modes: list[Mode]):
        if not modes:
            raise SchemaError(f"subsystem {node_id} declares no modes", node=node_id)
        self.id = int(node_id)
        self.modes = tuple(modes)

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


def _check_subsystems(subsystems) -> None:
    """Raise the first defect of subsystems used on their own, one at a
    time (see ``_subsystem_defect``); those a file or a spec checked are
    skipped."""
    for sub in subsystems:
        if "_layer" not in sub.__dict__:
            defect = _subsystem_defect(sub)
            if defect is not None:
                raise defect


_FAR = 2**62  # stands in for ids and bounds beyond int64: no node has it, no partition reaches it


def _int64(values: list) -> np.ndarray:
    """Integers as int64, those beyond +-2**62 clipped to it (the checks
    decide them alike, and messages read the block maps themselves)."""
    arr = np.array(values)
    if arr.dtype.kind == "O":
        arr = np.array([min(max(v, -_FAR), _FAR) if type(v) is int else v for v in values])
    if arr.size and arr.dtype.kind not in "iu":
        raise SchemaError("block ids and ranges must be integers")
    return arr.astype(np.int64, copy=False)


def _key(obj):
    """Shape key of a matrix: an array's shape; for a decoded list of
    rows its (rows, columns) judged by the first row, columns -1 if that
    is not a list; None for anything else (``[]`` included)."""
    if type(obj) is list and obj:
        row = obj[0]
        return (len(obj), len(row) if type(row) is list else -1)
    return obj.shape if type(obj) is np.ndarray else None


def _extents(shape: tuple) -> tuple:
    """The first two extents of a shape, -1 past its ndim."""
    return (tuple(shape) + (-1, -1))[:2]


class _Matrices:
    """Matrix families converted to read-only float arrays with one
    ``np.array`` call per (family, shape): ``arrays[f][i]`` is a view into
    the stack of its shape.  Per matrix i of family f: ``dims[f][i]`` (see
    ``_extents``), ``plain[f][i]`` (2-d), ``finite[f][i]`` and
    ``bad[f][i]`` (``convert`` rejects it with a SchemaError).  Matrices
    that do not stack with their shape go through ``convert`` one at a
    time.
    """

    def __init__(self, families, convert):
        self.arrays, self.dims, self.plain, self.finite, self.bad = [], [], [], [], []
        for fam in families:
            self._add(fam, convert)

    def _add(self, fam, convert):
        k = len(fam)
        dims = np.full((k, 2), -1, dtype=np.int64)
        plain = np.zeros(k, dtype=bool)
        finite = np.ones(k, dtype=bool)
        bad = np.zeros(k, dtype=bool)
        arrays = [None] * k
        groups: dict = {}
        for i, obj in enumerate(fam):
            groups.setdefault(_key(obj), []).append(i)
        for key, idx in groups.items():
            group = None if key is None else _stack([fam[i] for i in idx], key)
            if group is not None:
                at = np.array(idx, dtype=np.intp)
                dims[at] = _extents(key)
                plain[at] = len(key) == 2
                finite[at] = np.isfinite(group).reshape(len(idx), -1).all(axis=1)
                for i, a in zip(idx, group):
                    arrays[i] = a
                continue
            for i in idx:
                try:
                    a = convert(fam[i])
                except SchemaError:
                    bad[i] = True
                    continue
                arrays[i] = _frozen(a)
                dims[i] = _extents(a.shape)
                plain[i] = a.ndim == 2
                finite[i] = bool(np.isfinite(a).all())
        self.arrays.append(arrays)
        self.dims.append(dims)
        self.plain.append(plain)
        self.finite.append(finite)
        self.bad.append(bad)


def _stack(group, shape):
    """The read-only stack of ``group``, or None if its items do not
    convert together to matrices of ``shape``."""
    try:
        stack = np.array(group, dtype=float)
    except (TypeError, ValueError):
        return None
    return _frozen(stack) if stack.shape[1:] == shape else None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Layer:
    """One layer of a network (its concrete or its abstract subsystems),
    column by column, as the validators read it.

    Rows are the (node, mode) pairs in node order: ``node`` and ``first``
    map rows to node positions and back, ``modes`` holds their Modes,
    ``dims``/``plain``/``finite`` describe A, B, C and D per row (see
    ``_Matrices``).  The block table has one entry per block of every
    row's block maps, in file order: ``row``, ``kind`` (``_OUT``/``_IN``),
    ``peer``, ``lo``, ``hi``.  Subsystems parsed from a file carry their
    layer, so a spec built from them reuses it (see ``of``).
    """

    def __init__(self, subsystems, mats: _Matrices | None = None):
        self.subsystems = subsystems
        self.checked = False
        modes = [mode for sub in subsystems for mode in sub.modes]
        maps = [m for mode in modes for m in (mode.out_blocks, mode.in_blocks)]
        peers = list(chain.from_iterable(maps))
        ranges = list(chain.from_iterable(m.values() for m in maps))
        if mats is None:  # built from objects; parsed block maps hold integer keys and pairs
            mats = _Matrices([[getattr(mode, f) for mode in modes] for f in _FAMILIES], np.asarray)
            if not _integer_blocks(peers, ranges):  # raise the first node defect, if any
                _check_subsystems(subsystems)
        counts = [len(sub.modes) for sub in subsystems]
        self.ids = np.array([sub.id for sub in subsystems], dtype=np.int64)
        self.first = _starts(counts)
        self.node = np.repeat(np.arange(len(subsystems)), counts)
        n_rows = len(modes)
        self.dims = np.stack([dims[:n_rows] for dims in mats.dims], axis=1)
        self.plain = np.stack([plain[:n_rows] for plain in mats.plain], axis=1)
        self.finite = np.stack([finite[:n_rows] for finite in mats.finite], axis=1)
        seg = np.repeat(np.arange(2 * len(modes)), [len(m) for m in maps])
        self.row, self.kind = seg >> 1, seg & 1
        self.peer = _int64(peers)
        bounds = _int64(list(chain.from_iterable(ranges)))
        self.lo, self.hi = bounds.reshape(-1, 2).T
        self.owner = self.node[self.row]
        self.modes = modes

    @staticmethod
    def of(subsystems) -> "_Layer":
        """The layer of these subsystems: the one they were parsed into, if
        they are exactly its subsystems in order, else built from them."""
        layer = subsystems[0].__dict__.get("_layer") if subsystems else None
        if (
            layer is not None
            and len(layer.subsystems) == len(subsystems)
            and all(map(operator.is_, layer.subsystems, subsystems))
        ):
            return layer
        return _Layer(subsystems)

    def check_nodes(self) -> None:
        """Raise the first node defect, else mark the subsystems checked:
        each then carries this layer, which a spec of exactly these
        subsystems reuses."""
        if not self.checked:
            defect = self.node_defect()
            if defect is not None:
                raise defect
            self.checked = True
            for sub in self.subsystems:
                sub._layer = self

    def _locate(self, row: int):
        pos = int(self.node[row])
        sub = self.subsystems[pos]
        s = int(row - self.first[pos])
        return sub, s, sub.modes[s]

    # -- node checks -------------------------------------------------------

    def node_defect(self) -> SimnetError | None:
        """The first defect of any node in file order, or None.  The checks
        of ``_subsystem_defect`` run over all (node, mode) rows at once;
        that function then names the defect of the first node flagged."""
        d, n_rows = self.dims, len(self.node)
        if not n_rows:
            return None
        f = self.first[self.node]
        n, m, q, nw = d[f, 0, 0], d[f, 1, 1], d[f, 2, 0], d[f, 3, 1]
        want = np.stack([n, n, n, m, q, n, n, nw], axis=1).reshape(n_rows, 4, 2)
        mine = self.peer == self.ids[self.owner]
        ext = self.ext_blocks
        ext_width = np.zeros(n_rows, dtype=np.int64)  # 0 where the block is missing
        ext_width[self.row[ext]] = (self.hi - self.lo)[ext]
        feeds_self = np.zeros(n_rows, dtype=bool)
        feeds_self[self.row[mine & (self.kind == _IN)]] = True
        fails = (
            ~(self.plain & (d == want).all(axis=2)).all(axis=1)
            | ~self.finite.all(axis=1)
            | self._partition_bad(np.stack([q, nw], axis=1)).any(axis=1)
            | (ext_width <= 0)
            | feeds_self
            | (ext_width != ext_width[f])
        )
        rows = np.flatnonzero(fails)
        if not rows.size:
            return None
        defect = _subsystem_defect(self.subsystems[int(self.node[rows[0]])])
        if defect is None:
            raise AssertionError("a flagged subsystem passed its checks")
        return defect

    def _partition_bad(self, widths: np.ndarray) -> np.ndarray:
        """(rows, 2): whether each row's out-/in-block ranges fail to
        partition 0..width (one lexsort over the block table)."""
        order = np.lexsort((self.hi, self.lo, self.kind, self.row))
        group = (self.row * 2 + self.kind)[order]
        lo, hi = self.lo[order], self.hi[order]
        new = np.ones(group.size, dtype=bool)
        new[1:] = group[1:] != group[:-1]
        cursor = np.where(new, 0, np.concatenate(([0], hi[:-1])))
        bad = np.zeros(widths.size, dtype=bool)
        bad[group[(lo != cursor) | (hi < lo)]] = True
        covered = np.zeros(widths.size, dtype=np.int64)
        last = np.ones(group.size, dtype=bool)
        last[:-1] = new[1:]
        covered[group[last]] = hi[last]
        return (bad | (covered != widths.ravel())).reshape(-1, 2)

    # -- spec checks -------------------------------------------------------

    def wire(self) -> "InterconnectionGraph":
        """Check the layer as a network, in NetworkSpec's order (unique ids,
        unknown peers, dangling edges and wiring widths, inverse wiring
        entries) and return its union graph; the join of in- and out-blocks
        is kept for ``links``."""
        ids, n_nodes = self.ids, len(self.ids)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise SchemaError("subsystem ids must be unique", ids=ids.tolist())
        width = self.hi - self.lo
        live_in = (self.kind == _IN) & (width > 0)
        live_out = (self.kind == _OUT) & (width > 0) & (self.peer != ids[self.owner])
        rank = np.minimum(np.searchsorted(sorted_ids, self.peer), max(n_nodes - 1, 0))
        known = sorted_ids[rank] == self.peer if n_nodes else np.zeros(self.peer.size, bool)
        unknown = np.flatnonzero((live_in | live_out) & ~known)
        if unknown.size:
            b = unknown[np.lexsort((self.peer[unknown], self.kind[unknown] == _OUT,
                                    self.owner[unknown]))[0]]
            node, peer = int(ids[self.owner[b]]), self._peer_of(b)
            raise WiringError(
                f"subsystem {node} references unknown peer {peer}", node=node, peer=peer
            )
        peer_pos = order[rank]
        ins, outs = np.flatnonzero(live_in), np.flatnonzero(live_out)
        # (source, reader) position pairs: an in-block's peer is its source,
        # an out-block's owner is
        in_key = peer_pos[ins] * n_nodes + self.owner[ins]
        out_key = self.owner[outs] * n_nodes + peer_pos[outs]
        o = np.argsort(out_key, kind="stable")
        out_key, out_width = out_key[o], width[outs][o]
        new = np.ones(out_key.size, dtype=bool)
        new[1:] = out_key[1:] != out_key[:-1]
        start = np.flatnonzero(new)
        pairs = out_key[start]
        if pairs.size:
            narrow = np.minimum.reduceat(out_width, start)
            wide = np.maximum.reduceat(out_width, start)
            at = np.minimum(np.searchsorted(pairs, in_key), pairs.size - 1)
            found = pairs[at] == in_key
            fine = found & (narrow[at] == width[ins]) & (wide[at] == width[ins])
        else:
            at = np.zeros(ins.size, dtype=np.intp)
            found = fine = np.zeros(ins.size, dtype=bool)
        bad = np.flatnonzero(~fine)
        if bad.size:
            raise self._wiring_defect(int(ins[bad[0]]), bool(found[bad[0]]))
        lonely = pairs[~np.isin(pairs, in_key)]
        if lonely.size:
            src, dst = lonely // n_nodes, lonely % n_nodes
            b = np.lexsort((ids[dst], src))[0]
            j, i = int(ids[src[b]]), int(ids[dst[b]])
            raise WiringError(
                f"wiring inconsistency: edge {j}->{i} lacks the inverse in-neighbor entry",
                src=j, dst=i,
            )
        # per live in-block, its source and its join group: the out-blocks
        # outs[o][begin:end] of its source toward its reader, one per source
        # mode that outputs to the reader
        self._join = ins, peer_pos[ins], outs[o], start[at], np.append(start[1:], o.size)[at]
        src_id, dst_id = ids[pairs // n_nodes], ids[pairs % n_nodes]
        nodes = ids.tolist()

        def neighbors(pos, other):
            o = np.lexsort((other, pos))
            vals = other[o].tolist()
            bounds = _starts(np.bincount(pos, minlength=n_nodes)).tolist()
            return {i: tuple(vals[bounds[p]:bounds[p + 1]]) for p, i in enumerate(nodes)}

        return _view(
            InterconnectionGraph,
            nodes=tuple(nodes),
            in_neighbors=neighbors(pairs % n_nodes, src_id),
            out_neighbors=neighbors(pairs // n_nodes, dst_id),
        )

    @cached_property
    def ext_blocks(self) -> np.ndarray:
        """The external blocks, the out-blocks keyed by their node's own id:
        one per row, in row order, once the nodes are checked."""
        return np.flatnonzero((self.kind == _OUT) & (self.peer == self.ids[self.owner]))

    @cached_property
    def links(self) -> tuple:
        """The external selection and the wiring of a wired layer as unit
        entries, and its unwired table (reader row, source row, reader id,
        source id, source mode), from the block table and ``wire``'s join.
        A layer that aligns with this one has the same three."""
        heads, width, row, ext = self.first[:-1], self.hi - self.lo, self.row, self.ext_blocks
        # offsets of the outputs, internal inputs and external outputs
        y0, w0, e0 = map(_starts, (self.dims[heads, 2, 0], self.dims[heads, 3, 1],
                                   width[ext][heads]))
        external = _unit_entries(e0[self.node], y0[self.node] + self.lo[ext], width[ext],
                                 (row[ext], row[ext]), e0[-1])
        ins, src, outs, begin, end = self._join
        pair, t = _ranges(end - begin)  # each in-block with each out-block of its group
        b_in, b_out = ins[pair], outs[begin[pair] + t]
        wiring = _unit_entries(w0[self.owner[b_in]] + self.lo[b_in],
                               y0[src[pair]] + self.lo[b_out], width[b_in],
                               (row[b_in], row[b_out]), w0[-1])
        n_modes = np.diff(self.first)[src]
        block, s2 = _ranges(n_modes)  # each in-block with each source mode
        unwired = np.ones(block.size, dtype=bool)
        unwired[_starts(n_modes)[pair] + row[b_out] - self.first[src[pair]]] = False
        b, s2, src = ins[block[unwired]], s2[unwired], src[block[unwired]]
        return external, wiring, np.stack([row[b], self.first[src] + s2,
                                           self.ids[self.owner[b]], self.peer[b], s2])

    def _peer_of(self, b: int) -> int:
        """The id block ``b`` names, as its block map holds it."""
        _, _, mode = self._locate(int(self.row[b]))
        blocks = mode.in_blocks if self.kind[b] == _IN else mode.out_blocks
        group = self.row * 2 + self.kind
        return list(blocks)[b - int(np.searchsorted(group, group[b]))]

    def _wiring_defect(self, b: int, found: bool) -> WiringError:
        sub, s, mode = self._locate(int(self.row[b]))
        j = int(self.peer[b])
        if not found:
            return WiringError(
                f"dangling edge: subsystem {sub.id} mode {s} expects input "
                f"from {j}, but {j} never outputs to {sub.id}",
                src=j, dst=sub.id, mode=s,
            )
        lo, hi = mode.in_blocks[j]
        src = self.subsystems[int(np.flatnonzero(self.ids == j)[0])]
        widths = [
            r[1] - r[0]
            for sm in src.modes
            if (r := sm.out_blocks.get(sub.id)) is not None and r[1] > r[0]
        ]
        return WiringError(
            f"edge {j}->{sub.id}: in-block width {hi - lo} does not "
            f"match the source output block width",
            src=j, dst=sub.id, width_in=hi - lo, widths_out=widths,
        )

    def align(self, abstract: "_Layer") -> None:
        """Check that ``abstract`` abstracts this layer node by node: same
        ids, mode counts and output widths, and equal block maps per mode.
        The layers are compared as whole columns; only a mismatch is then
        located node by node, to raise what the first node gets wrong."""
        if len(abstract.ids) != len(self.ids):
            raise SchemaError(
                "abstract subsystem list must align with the concrete list",
                concrete=len(self.ids), abstract=len(abstract.ids),
            )
        if (
            np.array_equal(self.ids, abstract.ids)
            and np.array_equal(self.first, abstract.first)
            and np.array_equal(self.dims[self.first[:-1], 2, 0],
                               abstract.dims[abstract.first[:-1], 2, 0])
            and np.array_equal(self._blocks(), abstract._blocks())
        ):
            return
        for conc, abst in zip(self.subsystems, abstract.subsystems):
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

    def _blocks(self) -> np.ndarray:
        """The block table sorted by (row, kind, peer): equal for two layers
        iff every row has equal block maps (ids are unique per map)."""
        table = np.stack([self.row, self.kind, self.peer, self.lo, self.hi], axis=1)
        return table[np.lexsort((self.peer, self.kind, self.row))]


def _subsystem_defect(sub: SwitchedLinearSubsystem) -> SimnetError | None:
    """The first defect of one subsystem, or None.  Mode by mode: the
    shapes of A, B, C, D against mode 0, their finiteness, the out- and
    in-block partitions of the output and internal-input widths, the
    external block (present, nonempty, as wide as in mode 0) and
    self-feeding.  ``_Layer.node_defect`` runs the same checks on many
    subsystems at once and calls this on the first one it flags."""
    i, first = sub.id, sub.modes[0]
    n, m = _extents(first.A.shape)[0], _extents(first.B.shape)[1]
    q, nw = _extents(first.C.shape)[0], _extents(first.D.shape)[1]
    for s, mode in enumerate(sub.modes):
        for name, (rows, cols) in zip(_FAMILIES, ((n, n), (n, m), (q, n), (n, nw))):
            shape = getattr(mode, name).shape
            if shape != (rows, cols):
                return DimensionMismatchError(
                    f"subsystem {i} mode {s}: {name} must be {rows}x{cols}, got {shape}",
                    node=i, mode=s, matrix=name,
                )
        for name in _FAMILIES:
            if not np.isfinite(getattr(mode, name)).all():
                return SchemaError(
                    f"subsystem {i} mode {s}: matrix {name} has non-finite entries",
                    node=i, mode=s, matrix=name,
                )
        for blocks, width, kind in ((mode.out_blocks, q, "out_blocks"),
                                    (mode.in_blocks, nw, "in_blocks")):
            defect = _partition_defect(blocks, width, i, s, kind)
            if defect is not None:
                return defect
        if i not in mode.out_blocks:
            return BlockPartitionError(
                f"subsystem {i} mode {s}: out_blocks must key the external "
                f"output block by the subsystem's own id",
                node=i, mode=s,
            )
        lo, hi = mode.out_blocks[i]
        if hi <= lo:
            return BlockPartitionError(
                f"subsystem {i} mode {s}: external output block must be nonempty",
                node=i, mode=s,
            )
        if i in mode.in_blocks:
            return WiringError(
                f"subsystem {i} mode {s}: a subsystem may not feed itself", node=i, mode=s
            )
        lo0, hi0 = first.out_blocks[i]
        if hi - lo != hi0 - lo0:
            return BlockPartitionError(
                f"subsystem {i} mode {s}: external output block is {hi - lo} wide, "
                f"{hi0 - lo0} in mode 0 (its width is fixed across modes)",
                node=i, mode=s,
            )
    return None


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _integer_blocks(ids: list, ranges: list) -> bool:
    """Whether every block id is an integer and every range a pair of
    integers (booleans are not), judged by one conversion each."""
    try:
        arr = np.array(ranges)
        types = set(map(type, chain(ids, chain.from_iterable(ranges))))
    except (TypeError, ValueError):
        return False
    return (arr.shape == (len(ranges), 2) and arr.dtype.kind in "iu" and bool not in types
            and np.array(ids).dtype.kind in "iu")


def _partition_defect(blocks: BlockMap, width: int, node: int, mode: int, kind: str):
    """The error of a block map that does not partition 0..width (the
    first key that is not an integer or range that is not an integer pair,
    gap or overlap, else the coverage), or None."""
    for key, rng in blocks.items():
        if not _is_integer(key):
            return SchemaError(
                f"subsystem {node} mode {mode}: {kind} key {key!r} must be an integer node id",
                node=node, mode=mode, kind=kind, key=key,
            )
        if not (isinstance(rng, (tuple, list)) and len(rng) == 2 and all(map(_is_integer, rng))):
            return SchemaError(
                f"subsystem {node} mode {mode}: {kind}[{key}] must be an integer pair "
                f"(start, stop), got {rng!r}",
                node=node, mode=mode, kind=kind, key=key,
            )
    cursor = 0
    for lo, hi in sorted((lo, hi) for lo, hi in blocks.values()):
        if lo != cursor or hi < lo:
            return BlockPartitionError(
                f"subsystem {node} mode {mode}: {kind} ranges leave a gap or overlap "
                f"at index {cursor}",
                node=node, mode=mode, kind=kind, index=cursor,
            )
        cursor = hi
    if cursor != width:
        return BlockPartitionError(
            f"subsystem {node} mode {mode}: {kind} ranges cover {cursor} of {width} indices",
            node=node, mode=mode, kind=kind, covered=cursor, width=width,
        )
    return None


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

    ``at(k)`` gives every node's mode at step k as one integer array, for
    the steps 0 <= k < horizon (any k >= 0 if horizon is None); switching
    may be asynchronous across subsystems.  The built-in schedules are an
    explicit table over a horizon and periodic rules, read-only arrays.
    """

    def __init__(self, n_nodes: int, at, horizon: int | None):
        self.n_nodes = n_nodes
        self._at = at
        self.horizon = horizon

    def modes_at(self, k: int) -> np.ndarray:
        """Every node's mode at step k, as an int64 array."""
        if k < 0:
            raise DimensionMismatchError(f"switching step must be nonnegative, got {k}", step=k)
        if self.horizon is not None and k >= self.horizon:
            raise DimensionMismatchError(
                f"switching horizon {self.horizon} does not cover step {k}",
                step=k, horizon=self.horizon,
            )
        return _integers(self._at(k), "mode")

    @classmethod
    def from_table(cls, table: list[list[int]]) -> "SwitchingSignal":
        rows = [_integers(row, "mode") for row in table]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise SchemaError("switching table rows must be nonempty and equal length")
        columns = _frozen(np.array(rows, dtype=np.int64).reshape(len(rows), -1))
        return cls(len(rows), lambda k: columns[:, k], columns.shape[1])

    @classmethod
    def periodic(cls, schedules: list[list[int]], period: int) -> "SwitchingSignal":
        if not (_is_integer(period) and period >= 1):
            raise SchemaError(f"switching period must be an integer >= 1, got {period!r}")
        rows = [_integers(row, "mode") for row in schedules]
        if not rows or any(not r.size for r in rows):
            raise SchemaError("each periodic schedule must be nonempty")
        lengths = np.array([r.size for r in rows], dtype=np.int64)
        start = np.cumsum(lengths) - lengths
        flat = _frozen(np.concatenate(rows))
        return cls(len(rows), lambda k: flat[start + (k // period) % lengths], None)

    @classmethod
    def synchronized(cls, n_nodes: int, schedule: list[int], period: int) -> "SwitchingSignal":
        """All subsystems share one periodic schedule (topology switches at once)."""
        return cls.periodic([list(schedule)] * n_nodes, period)

    @classmethod
    def constant(cls, n_nodes: int, mode: int = 0) -> "SwitchingSignal":
        modes = _frozen(np.full(n_nodes, mode, dtype=np.int64))
        return cls(n_nodes, lambda k: modes, None)


def _integers(values, what: str, ids=None) -> np.ndarray:
    """``values`` as an int64 array; SchemaError at the first that is not an
    integer (booleans and integral floats are not, as for block ids), naming
    its subsystem when ``ids`` are given."""
    if not (type(values) is np.ndarray and values.dtype.kind in "iu"):
        values = values.tolist() if type(values) is np.ndarray else list(values)
        bad = next((p for p, v in enumerate(values) if not _is_integer(v)), None)
        if bad is not None:
            where = "switching " if ids is None else f"subsystem {ids[bad]}: "
            raise SchemaError(f"{where}{what} {values[bad]!r} is not an integer",
                              index=values[bad])
    return np.asarray(values, dtype=np.int64)


class NetworkSpec:
    """Validated network: subsystems, union graph, optional abstractions."""

    def __init__(self, subsystems, abstract_subsystems=None):
        self.subsystems = tuple(subsystems)
        self.abstract_subsystems = (
            tuple(abstract_subsystems) if abstract_subsystems else None
        )
        self._layer = _Layer.of(self.subsystems)
        self._layer.check_nodes()
        self._abstract_layer = None
        if self.abstract_subsystems is not None:
            self._abstract_layer = _Layer.of(self.abstract_subsystems)
            self._abstract_layer.check_nodes()
        self.graph = self._layer.wire()
        self._wired = self._layer  # its block table compiles the engines' wiring
        if self._abstract_layer is not None:
            self._layer.align(self._abstract_layer)
        self._abstract_view = None

    @property
    def n_nodes(self) -> int:
        return len(self.subsystems)

    def abstract_view(self) -> "NetworkSpec":
        """The abstract network as a spec in its own right (same wiring).

        Built on the first call from the abstract layer the spec validated:
        its block maps equal the concrete ones mode by mode, so the graph and
        the wiring checks carry over unchanged.  Specs are immutable, so later
        calls return the same view.
        """
        if self.abstract_subsystems is None:
            raise SchemaError("network declares no abstract subsystems")
        if self._abstract_view is None:
            self._abstract_view = _view(
                NetworkSpec,
                subsystems=self.abstract_subsystems,
                abstract_subsystems=None,
                graph=self.graph,
                _layer=self._abstract_layer,
                _wired=self._layer,
                _abstract_layer=None,
                _abstract_view=None,
            )
        return self._abstract_view

    @cached_property
    def engine(self) -> "NetworkEngine":
        """The spec compiled for evaluation, on first use: loading and
        validating a spec never pay for it."""
        return NetworkEngine(self)


class Layout:
    """Per-node vectors of the given sizes, stacked in node order into one
    flat vector."""

    def __init__(self, ids, sizes, what: str):
        self.ids, self.sizes, self.what = tuple(ids), [int(n) for n in sizes], what
        self.off = _starts(self.sizes)
        self.size = int(self.off[-1])

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

    def select(self, index) -> np.ndarray:
        """Mask of one element per node, at the given position in the node's
        part: over the (node, mode) slots, the slots of the given modes."""
        size = np.size(index)
        if np.shape(index) != (len(self.ids),):
            raise DimensionMismatchError(
                f"expected one {self.what} per node ({len(self.ids)}), got {size}",
                expected=len(self.ids), got=size,
            )
        index = _integers(index, self.what, self.ids)
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
    """Entries (row, col, value) of a flat matrix with ``size`` rows, each
    tagged with two (node, mode) slots; an entry applies when both of its
    slots are active.  ``_placed`` makes them from per-slot matrices,
    ``_unit_entries`` from the block table.

    ``apply`` keeps the entries it picked for the last active pattern and
    picks again only when the pattern changes: a run's modes change every
    switching period, not every step.
    """

    def __init__(self, rows, cols, values, slots, size: int):
        self.rows, self.cols, self.values = rows, cols, values
        self.slots, self.size = slots, size
        self._last = None  # (active, rows, cols, values) of the last pattern

    def apply(self, active: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """The active entries times ``vec``."""
        last = self._last
        if last is None or not np.array_equal(last[0], active):
            keep = active[self.slots[0]] & active[self.slots[1]]
            last = (active.copy(), self.rows[keep], self.cols[keep], self.values[keep])
            self._last = last
        _, rows, cols, values = last
        return np.bincount(rows, values * vec[cols], minlength=self.size)


def _placed(mats, rows: Layout, cols: Layout, slots: Layout) -> TaggedEntries:
    """Slot k's matrix ``mats[k]``, sized by its node's parts of the
    ``rows`` and ``cols`` layouts, placed at those parts and tagged with
    slot k: one stack per matrix shape, the entries' indices broadcast from
    the offsets."""
    node = np.repeat(np.arange(len(slots.sizes)), slots.sizes)
    height, width = (np.array(layout.sizes, dtype=np.intp)[node] for layout in (rows, cols))
    shapes, group = np.unique(height * (width.max(initial=0) + 1) + width, return_inverse=True)
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)]
    for at in (np.flatnonzero(group == g) for g in range(shapes.size)):
        shape = (at.size, height[at[0]], width[at[0]])
        stack = np.array([mats[k] for k in at.tolist()], dtype=float).reshape(shape)
        index = (rows.off[node[at], None, None] + np.arange(shape[1])[:, None],
                 cols.off[node[at], None, None] + np.arange(shape[2]),
                 at[:, None, None])
        parts.append([np.broadcast_to(i, shape).ravel() for i in index] + [stack.ravel()])
    r, c, slot, values = map(np.concatenate, zip(*parts))
    return TaggedEntries(r, c, values, (slot, slot), rows.size)


def _unit_entries(rows0, cols0, widths, slots, size) -> TaggedEntries:
    """Block k as unit entries (rows0[k] + t, cols0[k] + t) for t below
    widths[k], tagged with slots[0][k] and slots[1][k]."""
    seg, t = _ranges(widths)
    return TaggedEntries(rows0[seg] + t, cols0[seg] + t, np.ones(seg.size),
                         (slots[0][seg], slots[1][seg]), int(size))


def _ranges(lengths: np.ndarray):
    """(seg, t): for each i, t = 0 .. lengths[i] - 1 with seg = i."""
    seg = np.repeat(np.arange(lengths.size), lengths)
    return seg, np.arange(seg.size) - _starts(lengths)[seg]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive parts of the given sizes, then the total."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))


class NetworkEngine:
    """A spec compiled for evaluation on flat vectors.

    States, inputs, outputs, internal inputs and external outputs of all
    nodes are stacked in node order (the ``Layout`` attributes), and each
    row (node, mode) of the spec's layer has a slot.  The slots' A, B, C
    and D are placed as entries tagged with their slot, one stack per
    shape; the external selection and the wiring w_ij = y_ji are unit
    entries from the wired layer's block table (``_Layer.links``), which
    the abstract view shares with its concrete spec.  A step applies each
    family with one np.bincount, so every node shape takes the same path.
    Nothing here calls BLAS, so results do not depend on the thread count.
    """

    def __init__(self, spec: NetworkSpec):
        layer = spec._layer
        ids, heads = layer.ids.tolist(), layer.first[:-1]
        dims = layer.dims[heads]
        self.slots = Layout(ids, np.diff(layer.first), "mode")
        self.state = Layout(ids, dims[:, 0, 0], "state")
        self.input = Layout(ids, dims[:, 1, 1], "input")
        self.output = Layout(ids, dims[:, 2, 0], "output")
        self.internal_input = Layout(ids, dims[:, 3, 1], "internal input")
        ext = layer.ext_blocks[heads]
        self.external = Layout(ids, layer.hi[ext] - layer.lo[ext], "external output")
        modes = layer.modes
        self._A = _placed([m.A for m in modes], self.state, self.state, self.slots)
        self._B = _placed([m.B for m in modes], self.state, self.input, self.slots)
        self._C = _placed([m.C for m in modes], self.output, self.state, self.slots)
        self._D = _placed([m.D for m in modes], self.state, self.internal_input, self.slots)
        self._external, self._wiring, self._unwired = spec._wired.links

    def step(self, x: np.ndarray, u: np.ndarray, active: np.ndarray):
        """(x_next, y, w, external outputs) at the active slots; WiringError
        when a node's mode expects input that its source's mode does not
        produce."""
        unwired = self._unwired
        hit = np.flatnonzero(active[unwired[0]] & active[unwired[1]])
        if hit.size:
            dst, src, src_mode = unwired[2:, hit[0]].tolist()
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
    with _paused_gc():
        return parse_network(_read_json(path))


@contextmanager
def _paused_gc():
    """Hold the cyclic garbage collector for the duration of an ingest.

    Decoding and parsing allocate hundreds of thousands of objects and no
    reference cycles; every collection in between would traverse the whole
    decoded tree again (a third of ``json.load``'s time on a 2 MB file).
    Collection resumes afterwards if it was enabled before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_json(path):
    """The decoded JSON file, a SchemaError if it is not valid JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", path=str(path)) from exc


def parse_network(data) -> NetworkSpec:
    """The validated spec of a decoded network file: each layer parsed by
    ``_parse_layer``, then the spec checks and the declared edges."""
    if not isinstance(data, dict):
        raise SchemaError("network file must be a JSON object")
    if data.get("schema") != SCHEMA_NETWORK:
        raise SchemaError(
            f"missing or unsupported schema tag (expected '{SCHEMA_NETWORK}')",
            schema=data.get("schema"),
        )
    if "subsystems" not in data or not isinstance(data["subsystems"], list):
        raise SchemaError("network file must declare a 'subsystems' array")
    subs = _parse_layer(data["subsystems"])
    abstract = None
    if data.get("abstract_subsystems") is not None:
        abstract = _parse_layer(data["abstract_subsystems"])
    spec = NetworkSpec(subs, abstract)
    try:
        declared = {tuple(map(_integral, e)) for e in data.get("edges", [])}
    except (TypeError, ValueError) as exc:
        raise SchemaError("'edges' must be an array of [source, destination] id pairs") from exc
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


def _integral(value) -> int:
    """An integer read from a file: an int, an integral float or an integer
    string.  ValueError or TypeError otherwise, booleans too."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _file_id(value) -> int:
    """A subsystem id read from a file (see ``_integral``), within int64."""
    value = _integral(value)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is out of range")
    return value


_KINDS = ("out_blocks", "in_blocks")


def _parse_layer(entries) -> tuple[SwitchedLinearSubsystem, ...]:
    """The subsystems of one layer's decoded entries, as views into the
    layer's matrix stacks, node-checked in one pass.

    The walk reads each entry's id and per-mode structure and stops at the
    first entry it cannot read; the matrices are then converted and the
    block bounds type-checked all at once.  An entry is malformed if the
    walk stopped at it or one of its matrices or bounds is; the nodes
    before the first malformed entry are checked first, then
    ``_entry_defect`` names what is wrong with it.  So the first defect in
    file order is raised.
    """
    try:
        entries = list(entries)
    except TypeError as exc:
        raise SchemaError("'abstract_subsystems' must be an array") from exc
    ids, counts, raw, blocks = [], [], [], []
    for pos, entry in enumerate(entries):
        try:
            node = _node_id(pos, entry)
            modes = [(mats, _block_map(out_raw), _block_map(in_raw))
                     for mats, out_raw, in_raw in _raw_modes(node, entry)]
        except (SchemaError, AttributeError, TypeError, ValueError):
            break
        ids.append(node)
        counts.append(len(modes))
        for mats, out_map, in_map in modes:
            raw.append(mats)
            blocks += (out_map, in_map)
    families = [list(f) for f in zip(*raw)] or [[] for _ in _FAMILIES]
    mats = _Matrices(families, _parse_matrix)
    flagged = np.logical_or.reduce(mats.bad)  # per row
    if _bound_types(blocks) - {int}:  # booleans and floats unpack like ints
        flagged[next(b for b, m in enumerate(blocks) if _bound_types([m]) - {int}) // 2] = True
    rows = np.flatnonzero(flagged)
    keep = int(np.repeat(np.arange(len(ids)), counts)[rows[0]]) if rows.size else len(ids)
    row = sum(counts[:keep])
    arrays = [iter(f) for f in mats.arrays]
    outs, ins = blocks[0:2 * row:2], blocks[1:2 * row:2]
    modes = [
        _view(Mode, A=a, B=b, C=c, D=d, out_blocks=o, in_blocks=i)
        for a, b, c, d, o, i in zip(*arrays, outs, ins)
    ]
    subs, start = [], 0
    for node, count in zip(ids[:keep], counts):
        subs.append(_view(SwitchedLinearSubsystem, id=node, modes=tuple(modes[start:start + count])))
        start += count
    subs = tuple(subs)
    _Layer(subs, mats).check_nodes()
    if keep < len(entries):
        raise _entry_defect(keep, entries[keep])
    return subs


def _node_id(pos: int, entry) -> int:
    if not isinstance(entry, dict) or "id" not in entry:
        raise SchemaError("each subsystem must be an object with an 'id'")
    try:
        return _file_id(entry["id"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"subsystem at position {pos}: id {entry['id']!r} is not an integer",
            position=pos, id=entry["id"],
        ) from exc


def _raw_modes(node: int, entry: dict):
    """Per mode of a decoded entry, in file order: its (A, B, C, D) as
    decoded and its out- and in-block maps (the mode's, else the entry's).
    SchemaError at the first mode whose structure is malformed."""
    modes_raw = entry.get("modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        raise SchemaError(f"subsystem {node} must declare a nonempty 'modes' array", node=node)
    default_out = entry.get("out_blocks")
    default_in = entry.get("in_blocks")
    for s, mraw in enumerate(modes_raw):
        if not isinstance(mraw, dict):
            raise SchemaError(f"subsystem {node} mode {s} must be an object", node=node, mode=s)
        try:
            mats = (mraw["A"], mraw["B"], mraw["C"], mraw["D"])
        except KeyError:
            missing = [k for k in _FAMILIES if k not in mraw]
            raise SchemaError(
                f"subsystem {node} mode {s} lacks matrices {missing}",
                node=node, mode=s, missing=missing,
            ) from None
        out_raw = mraw.get("out_blocks", default_out)
        in_raw = mraw.get("in_blocks", default_in)
        if out_raw is None or in_raw is None:
            raise SchemaError(
                f"subsystem {node} mode {s}: out_blocks/in_blocks missing (neither "
                f"per-mode nor subsystem-level)",
                node=node, mode=s,
            )
        yield mats, out_raw, in_raw


def _entry_defect(pos: int, entry) -> SchemaError:
    """The first malformed part of one decoded entry in file order: its id,
    then mode by mode its structure, A, B, C, D, out_blocks and in_blocks.
    Called on the first entry that ``_parse_layer`` flags."""
    try:
        node = _node_id(pos, entry)
        for s, (mats, out_raw, in_raw) in enumerate(_raw_modes(node, entry)):
            for name, obj in zip(_FAMILIES, mats):
                _parse_matrix(obj, node, s, name)
            for kind, obj in zip(_KINDS, (out_raw, in_raw)):
                _check_block_map(obj, node, kind)
    except SchemaError as exc:
        return exc
    raise AssertionError(f"subsystem at position {pos} is not malformed")


def _bound_types(blocks) -> set:
    return set(map(type, chain.from_iterable(chain.from_iterable(m.values() for m in blocks))))


def _parse_matrix(obj, node=None, mode=None, name=None) -> np.ndarray:
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


def _block_map(obj) -> BlockMap:
    """A decoded block map with integer ids; its bounds are type-checked
    in bulk by the caller."""
    return {int(key): (lo, hi) for key, (lo, hi) in obj.items()}


def _check_block_map(obj, node, kind) -> None:
    """SchemaError if a decoded block map is not an object of integer id
    -> [start, stop] with integer bounds (booleans are not integers)."""
    if not isinstance(obj, dict):
        raise SchemaError(
            f"subsystem {node}: {kind} must be an object of id -> [start, stop]",
            node=node, kind=kind,
        )
    for key, rng in obj.items():
        try:
            int(key)
        except ValueError as exc:
            raise SchemaError(
                f"subsystem {node}: {kind} key '{key}' is not an integer id",
                node=node, kind=kind,
            ) from exc
        if type(rng) is not list or len(rng) != 2 or any(type(v) is not int for v in rng):
            raise SchemaError(
                f"subsystem {node}: {kind}[{key}] must be an integer pair [start, stop]",
                node=node, kind=kind, key=key,
            )


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
    _write_json(network_to_json(spec), path)


def _write_json(data, path) -> None:
    """Compact JSON with sorted keys, through CPython's C encoder (not with ``indent``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
