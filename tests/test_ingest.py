"""Columnar ingest of network and certificate files: every error the
loaders raise (class, message and details, pinned), the first of several
defects, byte-identical round trips, read-only views, counted numpy calls
and the cases that crashed or were accepted before."""

import dataclasses
import gc
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import simnet
from simnet import (
    ComposedCertificate,
    CompositionError,
    LocalCertificate,
    Mode,
    NetworkSpec,
    SchemaError,
    SwingParams,
    SwitchedLinearSubsystem,
    certificates_to_json,
    check_composed_dissipation,
    check_dissipation_sampled,
    closed_form_certificate,
    derive_gains,
    generate_ring_network,
    load_certificates,
    load_network,
    network_to_json,
    save_certificates,
    save_network,
    solve_structural,
    synthesize_certificate_matrix,
    verify_certificate,
)
from simnet.cli import main
from simnet.network import _integers
from simnet.simulate import _synchronized
from simnet.swing import compose_ring
from vehicles import heterogeneous_network

NAN = float("nan")
HUGE = 10**400  # an integer beyond float range


def mode(data, node, s, layer="subsystems"):
    return data[layer][node]["modes"][s]


def widen_d(data, node):
    # node's D gets two columns, its in-block two wide, in both modes
    for s, nb in ((0, "0"), (1, "2")):
        m = mode(data, node, s)
        m["D"] = [row + [0.0] for row in m["D"]]
        m["in_blocks"] = {nb: [0, 2]}


def third_output(data, node):
    # node gets a third output row, sent to node 3, which does not read it
    for s in (0, 1):
        m = mode(data, node, s)
        m["C"] = m["C"] + [[1.0, 1.0]]
        m["out_blocks"]["3"] = [2, 3]


def abstract_wide(data, node):
    for s in (0, 1):
        m = mode(data, node, s, "abstract_subsystems")
        m["C"] = m["C"] + [[0.5]]
        key = [k for k in m["out_blocks"] if k != str(node)][0]
        m["out_blocks"] = {str(node): [0, 2], key: [2, 3]}


def widen_state(data, node):
    # node's concrete state gets a third entry in both modes, wired as before
    for s in (0, 1):
        m = mode(data, node, s)
        m["A"] = [row + [0.0] for row in m["A"]] + [[0.0, 0.0, 0.5]]
        m["B"] = m["B"] + [[0.0]]
        m["C"] = [row + [0.0] for row in m["C"]]
        m["D"] = m["D"] + [[0.0]]


NETWORK_CASES = {
    "not-object": lambda d: [],
    "not-utf8": lambda d: b"\xff\xfe{}",
    "schema-missing": lambda d: d.pop("schema"),
    "subsystems-missing": lambda d: d.pop("subsystems"),
    "entry-not-object": lambda d: d["subsystems"].__setitem__(1, 5),
    "entry-without-id": lambda d: d["subsystems"][1].pop("id"),
    "modes-empty": lambda d: d["subsystems"][1].__setitem__("modes", []),
    "mode-not-object": lambda d: d["subsystems"][1]["modes"].__setitem__(1, 3),
    "matrix-missing": lambda d: mode(d, 1, 1).pop("B"),
    "block-maps-missing": lambda d: mode(d, 1, 1).pop("in_blocks"),
    "matrix-not-rows": lambda d: mode(d, 1, 1).__setitem__("A", [1.0, 2.0]),
    "matrix-ragged": lambda d: mode(d, 1, 1).__setitem__("A", [[1.0, 2.0], [3.0]]),
    "matrix-non-numeric": lambda d: mode(d, 1, 1)["A"][0].__setitem__(0, "x"),
    "block-map-not-object": lambda d: mode(d, 1, 1).__setitem__("out_blocks", [0, 1]),
    "block-key-not-integer": lambda d: mode(d, 1, 1)["out_blocks"].__setitem__("a", [2, 2]),
    "block-range-float": lambda d: mode(d, 1, 1)["out_blocks"].__setitem__("1", [0, 1.5]),
    "block-range-huge": lambda d: mode(d, 1, 1)["out_blocks"].__setitem__("0", [1, 10**20]),
    "unknown-peer-huge": lambda d: mode(d, 1, 1).__setitem__(
        "out_blocks", {"1": [0, 1], str(10**20): [1, 2]}),
    "A-shape": lambda d: mode(d, 1, 1).__setitem__("A", [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
    "B-shape": lambda d: mode(d, 1, 1).__setitem__("B", [[0.0, 0.0], [1.0, 0.0]]),
    "C-shape": lambda d: mode(d, 1, 1).__setitem__("C", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]),
    "D-shape": lambda d: mode(d, 1, 1).__setitem__("D", [[0.0, 0.0], [1.0, 0.0]]),
    "non-finite": lambda d: mode(d, 1, 1)["A"][1].__setitem__(0, NAN),
    "partition-gap": lambda d: mode(d, 1, 1)["out_blocks"].__setitem__("0", [2, 2]),
    "partition-coverage": lambda d: mode(d, 1, 1).__setitem__("in_blocks", {}),
    "external-block-missing": lambda d: mode(d, 1, 1).__setitem__(
        "out_blocks", {"3": [0, 1], "0": [1, 2]}),
    "external-block-empty": lambda d: mode(d, 1, 1).__setitem__(
        "out_blocks", {"1": [0, 0], "0": [0, 2]}),
    "self-feed": lambda d: mode(d, 1, 1).__setitem__("in_blocks", {"1": [0, 1]}),
    "external-width-changes": lambda d: mode(d, 1, 1).__setitem__(
        "out_blocks", {"1": [0, 2], "0": [2, 2]}),
    "ids-not-unique": lambda d: d["subsystems"].append(json.loads(json.dumps(d["subsystems"][1]))),
    "unknown-peer": lambda d: mode(d, 1, 1).__setitem__("out_blocks", {"1": [0, 1], "9": [1, 2]}),
    "dangling-edge": lambda d: mode(d, 1, 1).__setitem__("in_blocks", {"3": [0, 1]}),
    "wiring-width": lambda d: widen_d(d, 1),
    "inverse-entry-missing": lambda d: third_output(d, 1),
    "abstract-count": lambda d: d["abstract_subsystems"].pop(3),
    "abstract-order": lambda d: d["abstract_subsystems"].insert(2, d["abstract_subsystems"].pop(1)),
    "abstract-mode-count": lambda d: d["abstract_subsystems"][1]["modes"].pop(1),
    "abstract-output-width": lambda d: abstract_wide(d, 1),
    "abstract-block-maps": lambda d: mode(d, 1, 1, "abstract_subsystems").__setitem__(
        "in_blocks", {"0": [0, 1]}),
    "declared-edges": lambda d: d["edges"].pop(),
    # the bulk shortcuts, on the side that falls back to the per-item checks
    "last-node-non-numeric": lambda d: mode(d, 3, 1)["D"][1].__setitem__(0, "x"),
    "abstract-bound-float": lambda d: mode(d, 1, 1, "abstract_subsystems")["out_blocks"].__setitem__(
        "1", [0, 1.0]),
    "abstract-bound-boolean": lambda d: mode(d, 1, 1, "abstract_subsystems")["in_blocks"].__setitem__(
        "0", [False, True]),
    "edges-unknown-id": lambda d: d["edges"].append([1, 9]),
    # inputs that crashed or were accepted before
    "id-not-integer": lambda d: d["subsystems"][1].__setitem__("id", "x"),
    "id-fractional": lambda d: d["subsystems"][1].__setitem__("id", 1.5),
    "block-range-boolean": lambda d: mode(d, 1, 1)["out_blocks"].__setitem__("1", [False, True]),
    "edges-not-pairs": lambda d: d.__setitem__("edges", 5),
    "edges-boolean-id": lambda d: next(e for e in d["edges"] if e[0] == 1).__setitem__(0, True),
    "abstract-not-array": lambda d: d.__setitem__("abstract_subsystems", "x"),
    "abstract-object": lambda d: d.__setitem__("abstract_subsystems", {"id": 0}),
    "abstract-empty": lambda d: d.__setitem__("abstract_subsystems", []),
    "matrix-huge-integer": lambda d: mode(d, 0, 0)["A"][0].__setitem__(0, HUGE),
    # two defects: the earlier node's is reported
    "two-defects-validation-first": lambda d: (
        mode(d, 1, 1)["A"][1].__setitem__(0, NAN), d["subsystems"][2]["modes"].__setitem__(0, 3)),
    "two-defects-structure-first": lambda d: (
        mode(d, 1, 1).pop("B"), mode(d, 2, 0)["A"][0].__setitem__(0, NAN)),
    "two-defects-matrix-then-entry": lambda d: (
        mode(d, 1, 1)["A"][0].__setitem__(0, "x"), d["subsystems"][2]["modes"].__setitem__(0, 3)),
    # a boolean bound (accepted before) ahead of a malformed entry
    "two-defects-bounds-then-entry": lambda d: (
        mode(d, 1, 0)["in_blocks"].__setitem__("0", [0, True]), d["subsystems"][2].pop("id")),
    "two-defects-same-node": lambda d: (
        mode(d, 1, 0)["A"][1].__setitem__(0, NAN), mode(d, 1, 1).__setitem__("A", [1.0])),
}

CERTIFICATE_CASES = {
    "not-utf8": lambda d: b"\xff\xfe{}",
    "schema-missing": lambda d: d.pop("schema"),
    "entry-without-id": lambda d: d["certificates"][1].pop("id"),
    "field-missing": lambda d: d["certificates"][1].pop("Q"),
    "mode-missing": lambda d: d["certificates"][1]["K"].pop("1"),
    "kappa-missing": lambda d: d["certificates"][1].pop("kappa"),
    "M-not-square": lambda d: d["certificates"][1]["M"].__setitem__("1", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "kappa-range": lambda d: d["certificates"][1].__setitem__("kappa", 1.5),
    "P-rows": lambda d: d["certificates"][1].__setitem__("P", [[1.0]]),
    "M-dimension": lambda d: d["certificates"][1]["M"].__setitem__(
        "1", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "M-indefinite": lambda d: d["certificates"][1]["M"].__setitem__("1", [[-1.0, 0.0], [0.0, 1.0]]),
    "K-shape": lambda d: d["certificates"][1]["K"].__setitem__("1", [[1.0]]),
    "Q-shape": lambda d: d["certificates"][1]["Q"].__setitem__("1", [[1.0, 2.0]]),
    "R-width": lambda d: d["certificates"][1]["R"].__setitem__("1", [[1.0, 2.0]]),
    "T-width": lambda d: d["certificates"][1]["T"].__setitem__("1", [[1.0, 2.0]]),
    "transition-unknown-mode": lambda d: d["certificates"][1].__setitem__("transitions", [[0, 2]]),
    # the bulk shortcuts, on the side that falls back to the per-item checks
    "last-M-non-numeric": lambda d: d["certificates"][3]["M"]["1"][0].__setitem__(0, "x"),
    "kappa-null": lambda d: d["certificates"][3].__setitem__("kappa", None),
    # inputs that crashed or were accepted before
    "id-not-integer": lambda d: d["certificates"][1].__setitem__("id", "x"),
    "id-fractional": lambda d: d["certificates"][1].__setitem__("id", 1.5),
    "entry-not-object": lambda d: d["certificates"].__setitem__(1, 5),
    "kappa-not-number": lambda d: d["certificates"][1].__setitem__("kappa", "x"),
    "mode-key-not-integer": lambda d: d["certificates"][1]["M"].__setitem__(
        "a", d["certificates"][1]["M"].pop("1")),
    "M-non-numeric": lambda d: d["certificates"][1]["M"]["0"][0].__setitem__(0, "x"),
    "Q-non-finite": lambda d: d["certificates"][1]["Q"]["0"][0].__setitem__(0, NAN),
    "P-non-finite": lambda d: d["certificates"][1]["P"][1].__setitem__(0, NAN),
    "transitions-not-pairs": lambda d: d["certificates"][1].__setitem__("transitions", [[0]]),
    "kappa-huge-integer": lambda d: d["certificates"][1].__setitem__("kappa", HUGE),
    "M-huge-integer": lambda d: d["certificates"][1]["M"]["0"][0].__setitem__(0, HUGE),
    "transitions-infinite": lambda d: d["certificates"][1].__setitem__(
        "transitions", [[0, float("inf")]]),
    # two defects: the earlier certificate's is reported
    "two-defects-validation-first": lambda d: (
        d["certificates"][1]["K"].__setitem__("1", [[1.0]]),
        d["certificates"][2]["M"]["0"][0].__setitem__(0, "x")),
    "two-defects-structure-first": lambda d: (
        d["certificates"][1].pop("T"), d["certificates"][2].__setitem__("kappa", 1.5)),
    # non-finite entries (accepted before) come after every older check
    "two-defects-non-finite-last": lambda d: (
        d["certificates"][1]["T"]["0"][0].__setitem__(0, NAN),
        d["certificates"][1]["Q"].__setitem__("1", [[1.0, 2.0]])),
}




# (class, message, details as the CLI prints them) per case.  Every case the
# loaders rejected before this table was written raises as it did then; the
# ones marked above crashed with a traceback or were accepted.
EXPECTED = {
    'load_network/not-object': ('SchemaError', 'network file must be a JSON object', {}),
    'load_network/schema-missing': ('SchemaError', "missing or unsupported schema tag (expected 'simnet-v1')", {'schema': None}),
    'load_network/subsystems-missing': ('SchemaError', "network file must declare a 'subsystems' array", {}),
    'load_network/entry-not-object': ('SchemaError', "each subsystem must be an object with an 'id'", {}),
    'load_network/entry-without-id': ('SchemaError', "each subsystem must be an object with an 'id'", {}),
    'load_network/modes-empty': ('SchemaError', "subsystem 1 must declare a nonempty 'modes' array", {'node': 1}),
    'load_network/mode-not-object': ('SchemaError', 'subsystem 1 mode 1 must be an object', {'node': 1, 'mode': 1}),
    'load_network/matrix-missing': ('SchemaError', "subsystem 1 mode 1 lacks matrices ['B']", {'node': 1, 'mode': 1, 'missing': ['B']}),
    'load_network/block-maps-missing': ('SchemaError', 'subsystem 1 mode 1: out_blocks/in_blocks missing (neither per-mode nor subsystem-level)', {'node': 1, 'mode': 1}),
    'load_network/matrix-not-rows': ('SchemaError', 'subsystem 1 mode 1: matrix A must be an array of row arrays', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/matrix-ragged': ('SchemaError', 'subsystem 1 mode 1: matrix A rows have unequal lengths', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/matrix-non-numeric': ('SchemaError', 'subsystem 1 mode 1: matrix A has non-numeric entries', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/block-map-not-object': ('SchemaError', 'subsystem 1: out_blocks must be an object of id -> [start, stop]', {'node': 1, 'kind': 'out_blocks'}),
    'load_network/block-key-not-integer': ('SchemaError', "subsystem 1: out_blocks key 'a' is not an integer id", {'node': 1, 'kind': 'out_blocks'}),
    'load_network/block-range-float': ('SchemaError', 'subsystem 1: out_blocks[1] must be an integer pair [start, stop]', {'node': 1, 'kind': 'out_blocks', 'key': '1'}),
    'load_network/block-range-huge': ('BlockPartitionError', 'subsystem 1 mode 1: out_blocks ranges cover 100000000000000000000 of 2 indices', {'node': 1, 'mode': 1, 'kind': 'out_blocks', 'covered': 100000000000000000000, 'width': 2}),
    'load_network/unknown-peer-huge': ('WiringError', 'subsystem 1 references unknown peer 100000000000000000000', {'node': 1, 'peer': 100000000000000000000}),
    'load_network/A-shape': ('DimensionMismatchError', 'subsystem 1 mode 1: A must be 2x2, got (2, 3)', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/B-shape': ('DimensionMismatchError', 'subsystem 1 mode 1: B must be 2x1, got (2, 2)', {'node': 1, 'mode': 1, 'matrix': 'B'}),
    'load_network/C-shape': ('DimensionMismatchError', 'subsystem 1 mode 1: C must be 2x2, got (2, 3)', {'node': 1, 'mode': 1, 'matrix': 'C'}),
    'load_network/D-shape': ('DimensionMismatchError', 'subsystem 1 mode 1: D must be 2x1, got (2, 2)', {'node': 1, 'mode': 1, 'matrix': 'D'}),
    'load_network/non-finite': ('SchemaError', 'subsystem 1 mode 1: matrix A has non-finite entries', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/partition-gap': ('BlockPartitionError', 'subsystem 1 mode 1: out_blocks ranges leave a gap or overlap at index 1', {'node': 1, 'mode': 1, 'kind': 'out_blocks', 'index': 1}),
    'load_network/partition-coverage': ('BlockPartitionError', 'subsystem 1 mode 1: in_blocks ranges cover 0 of 1 indices', {'node': 1, 'mode': 1, 'kind': 'in_blocks', 'covered': 0, 'width': 1}),
    'load_network/external-block-missing': ('BlockPartitionError', "subsystem 1 mode 1: out_blocks must key the external output block by the subsystem's own id", {'node': 1, 'mode': 1}),
    'load_network/external-block-empty': ('BlockPartitionError', 'subsystem 1 mode 1: external output block must be nonempty', {'node': 1, 'mode': 1}),
    'load_network/self-feed': ('WiringError', 'subsystem 1 mode 1: a subsystem may not feed itself', {'node': 1, 'mode': 1}),
    'load_network/external-width-changes': ('BlockPartitionError', 'subsystem 1 mode 1: external output block is 2 wide, 1 in mode 0 (its width is fixed across modes)', {'node': 1, 'mode': 1}),
    'load_network/ids-not-unique': ('SchemaError', 'subsystem ids must be unique', {'ids': [0, 1, 2, 3, 1]}),
    'load_network/unknown-peer': ('WiringError', 'subsystem 1 references unknown peer 9', {'node': 1, 'peer': 9}),
    'load_network/dangling-edge': ('WiringError', 'dangling edge: subsystem 1 mode 1 expects input from 3, but 3 never outputs to 1', {'src': 3, 'dst': 1, 'mode': 1}),
    'load_network/wiring-width': ('WiringError', 'edge 0->1: in-block width 2 does not match the source output block width', {'src': 0, 'dst': 1, 'width_in': 2, 'widths_out': [1]}),
    'load_network/inverse-entry-missing': ('WiringError', 'wiring inconsistency: edge 1->3 lacks the inverse in-neighbor entry', {'src': 1, 'dst': 3}),
    'load_network/abstract-count': ('SchemaError', 'abstract subsystem list must align with the concrete list', {'concrete': 4, 'abstract': 3}),
    'load_network/abstract-order': ('SchemaError', 'abstract subsystem id 2 does not match concrete 1', {'concrete': 1, 'abstract': 2}),
    'load_network/abstract-mode-count': ('DimensionMismatchError', 'subsystem 1: abstract mode count 1 differs from concrete 2', {'node': 1}),
    'load_network/abstract-output-width': ('DimensionMismatchError', 'subsystem 1: abstract output width 3 differs from concrete 2 (identical output spaces required)', {'node': 1, 'q': 2, 'q_abstract': 3}),
    'load_network/abstract-block-maps': ('WiringError', 'subsystem 1 mode 1: abstract block maps must match the concrete wiring', {'node': 1, 'mode': 1}),
    'load_network/last-node-non-numeric': ('SchemaError', 'subsystem 3 mode 1: matrix D has non-numeric entries', {'node': 3, 'mode': 1, 'matrix': 'D'}),
    'load_network/abstract-bound-float': ('SchemaError', 'subsystem 1: out_blocks[1] must be an integer pair [start, stop]', {'node': 1, 'kind': 'out_blocks', 'key': '1'}),
    'load_network/abstract-bound-boolean': ('SchemaError', 'subsystem 1: in_blocks[0] must be an integer pair [start, stop]', {'node': 1, 'kind': 'in_blocks', 'key': '0'}),
    'load_network/edges-unknown-id': ('WiringError', 'wiring inconsistency: declared edges disagree with block wiring (dangling declared: [(1, 9)], undeclared: [])', {'dangling': [[1, 9]], 'undeclared': []}),
    'load_network/declared-edges': ('WiringError', 'wiring inconsistency: declared edges disagree with block wiring (dangling declared: [], undeclared: [(3, 2)])', {'dangling': [], 'undeclared': [[3, 2]]}),
    'load_network/id-not-integer': ('SchemaError', "subsystem at position 1: id 'x' is not an integer", {'position': 1, 'id': 'x'}),
    'load_network/id-fractional': ('SchemaError', 'subsystem at position 1: id 1.5 is not an integer', {'position': 1, 'id': 1.5}),
    'load_network/block-range-boolean': ('SchemaError', 'subsystem 1: out_blocks[1] must be an integer pair [start, stop]', {'node': 1, 'kind': 'out_blocks', 'key': '1'}),
    'load_network/edges-not-pairs': ('SchemaError', "'edges' must be an array of [source, destination] id pairs", {}),
    'load_network/edges-boolean-id': ('SchemaError', "'edges' must be an array of [source, destination] id pairs", {}),
    'load_network/not-utf8': ('SchemaError', "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", {'path': 'file.json'}),
    'load_network/abstract-not-array': ('SchemaError', "'abstract_subsystems' must be an array", {}),
    'load_network/abstract-object': ('SchemaError', "'abstract_subsystems' must be an array", {}),
    'load_network/abstract-empty': ('SchemaError', 'abstract subsystem list must align with the concrete list', {'concrete': 4, 'abstract': 0}),
    'load_network/matrix-huge-integer': ('SchemaError', 'subsystem 0 mode 0: matrix A has non-numeric entries', {'node': 0, 'mode': 0, 'matrix': 'A'}),
    'load_network/two-defects-validation-first': ('SchemaError', 'subsystem 1 mode 1: matrix A has non-finite entries', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/two-defects-structure-first': ('SchemaError', "subsystem 1 mode 1 lacks matrices ['B']", {'node': 1, 'mode': 1, 'missing': ['B']}),
    'load_network/two-defects-matrix-then-entry': ('SchemaError', 'subsystem 1 mode 1: matrix A has non-numeric entries', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_network/two-defects-bounds-then-entry': ('SchemaError', 'subsystem 1: in_blocks[0] must be an integer pair [start, stop]', {'node': 1, 'kind': 'in_blocks', 'key': '0'}),
    'load_network/two-defects-same-node': ('SchemaError', 'subsystem 1 mode 1: matrix A must be an array of row arrays', {'node': 1, 'mode': 1, 'matrix': 'A'}),
    'load_certificates/not-utf8': ('SchemaError', "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", {'path': 'file.json'}),
    'load_certificates/schema-missing': ('SchemaError', "missing or unsupported schema tag (expected 'simnet-certs-v1')", {'schema': None}),
    'load_certificates/entry-without-id': ('SchemaError', "certificate entries must carry an 'id'", {}),
    'load_certificates/field-missing': ('SchemaError', "certificate for node 1 lacks field 'Q'", {'node': 1}),
    'load_certificates/mode-missing': ('SchemaError', "certificate for node 1 lacks field '1'", {'node': 1}),
    'load_certificates/kappa-missing': ('SchemaError', "certificate for node 1 lacks field 'kappa'", {'node': 1}),
    'load_certificates/M-not-square': ('DimensionMismatchError', 'symmetric matrix must be square, got shape (2, 3)', {'shape': [2, 3]}),
    'load_certificates/kappa-range': ('CertificateError', 'kappa must lie in (0, 1), got 1.5', {}),
    'load_certificates/P-rows': ('DimensionMismatchError', 'P must have 2 rows, got (1, 1)', {'matrix': 'P'}),
    'load_certificates/M-dimension': ('DimensionMismatchError', 'M[1] must be 2x2', {'mode': 1}),
    'load_certificates/M-indefinite': ('CertificateError', 'M[1] must be positive semidefinite (lambda_min = -1.000e+00)', {'mode': 1, 'lambda_min': -1.0}),
    'load_certificates/K-shape': ('DimensionMismatchError', 'K[1] must be 1x2', {'mode': 1}),
    'load_certificates/Q-shape': ('DimensionMismatchError', 'Q[1] must be 1x1', {'mode': 1}),
    'load_certificates/R-width': ('DimensionMismatchError', 'R[1] must have 1 rows and as many columns as R[0]', {'mode': 1}),
    'load_certificates/T-width': ('DimensionMismatchError', 'T[1] must have 1 rows and as many columns as T[0]', {'mode': 1}),
    'load_certificates/transition-unknown-mode': ('CertificateError', 'transition pair (0, 2) references an unknown mode', {'pair': [0, 2]}),
    'load_certificates/last-M-non-numeric': ('SchemaError', 'certificate for node 3 mode 1: matrix M has non-numeric entries', {'node': 3, 'mode': 1, 'matrix': 'M'}),
    'load_certificates/kappa-null': ('SchemaError', 'certificate for node 3: kappa None is not a number', {'node': 3}),
    'load_certificates/id-not-integer': ('SchemaError', "certificate at position 1: id 'x' is not an integer", {'position': 1, 'id': 'x'}),
    'load_certificates/id-fractional': ('SchemaError', 'certificate at position 1: id 1.5 is not an integer', {'position': 1, 'id': 1.5}),
    'load_certificates/entry-not-object': ('SchemaError', "certificate entries must carry an 'id'", {}),
    'load_certificates/kappa-not-number': ('SchemaError', "certificate for node 1: kappa 'x' is not a number", {'node': 1}),
    'load_certificates/mode-key-not-integer': ('SchemaError', "certificate for node 1: mode key 'a' is not an integer", {'node': 1, 'key': 'a'}),
    'load_certificates/M-non-numeric': ('SchemaError', 'certificate for node 1 mode 0: matrix M has non-numeric entries', {'node': 1, 'mode': 0, 'matrix': 'M'}),
    'load_certificates/Q-non-finite': ('SchemaError', 'certificate for node 1 mode 0: matrix Q has non-finite entries', {'node': 1, 'mode': 0, 'matrix': 'Q'}),
    'load_certificates/P-non-finite': ('SchemaError', 'certificate for node 1: matrix P has non-finite entries', {'node': 1, 'mode': None, 'matrix': 'P'}),
    'load_certificates/transitions-not-pairs': ('SchemaError', 'certificate for node 1: transitions must be [current, next] mode pairs', {'node': 1}),
    'load_certificates/kappa-huge-integer': ('SchemaError', f'certificate for node 1: kappa {HUGE} is not a number', {'node': 1}),
    'load_certificates/M-huge-integer': ('SchemaError', 'certificate for node 1 mode 0: matrix M has non-numeric entries', {'node': 1, 'mode': 0, 'matrix': 'M'}),
    'load_certificates/transitions-infinite': ('SchemaError', 'certificate for node 1: transitions must be [current, next] mode pairs', {'node': 1}),
    'load_certificates/two-defects-validation-first': ('DimensionMismatchError', 'K[1] must be 1x2', {'mode': 1}),
    'load_certificates/two-defects-structure-first': ('SchemaError', "certificate for node 1 lacks field 'T'", {'node': 1}),
    'load_certificates/two-defects-non-finite-last': ('DimensionMismatchError', 'Q[1] must be 1x1', {'mode': 1}),
}


@pytest.fixture(scope="module")
def ring_files_json():
    params = SwingParams(n_nodes=4)
    cert = closed_form_certificate(params)
    return (network_to_json(generate_ring_network(params)),
            certificates_to_json({i: cert for i in range(4)}))


REPLACING = ("not-object", "not-utf8")  # cases whose result replaces the file


def raised(load, data, tmp_path):
    path = tmp_path / "file.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    with pytest.raises(simnet.SimnetError) as err:
        load(path)
    details = json.loads(json.dumps(err.value.details))
    if details.get("path") == str(path):
        details["path"] = path.name
    return type(err.value).__name__, str(err.value), details


@pytest.mark.parametrize("case", sorted(NETWORK_CASES))
def test_network_error(case, ring_files_json, tmp_path):
    data = json.loads(json.dumps(ring_files_json[0]))
    replaced = NETWORK_CASES[case](data)
    if case in REPLACING:
        data = replaced
    assert raised(load_network, data, tmp_path) == EXPECTED[f"load_network/{case}"]


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_error(case, ring_files_json, tmp_path):
    data = json.loads(json.dumps(ring_files_json[1]))
    replaced = CERTIFICATE_CASES[case](data)
    if case in REPLACING:
        data = replaced
    assert raised(load_certificates, data, tmp_path) == EXPECTED[f"load_certificates/{case}"]


def canonical(data) -> bytes:
    """The bytes ``save_network``/``save_certificates`` write for ``data``."""
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


# inputs each bulk shortcut of the loaders hands to its per-item fallback
# (or reads on its own), which load as they did before the shortcut
ACCEPTED_NETWORKS = {
    "last-node-wider": lambda d: widen_state(d, 3),  # A, B, C, D grouped by shape
    "edges-reordered": lambda d: d.__setitem__("edges", d["edges"][::-1] + d["edges"][:2]),
    "edges-float-string": lambda d: d.__setitem__(
        "edges", [[float(a), str(b)] for a, b in d["edges"]]),
    "abstract-key-order": lambda d: mode(d, 1, 1, "abstract_subsystems").__setitem__(
        "out_blocks", dict(reversed(mode(d, 1, 1, "abstract_subsystems")["out_blocks"].items()))),
    "entry-level-block-maps": lambda d: d["subsystems"][1].__setitem__(
        "in_blocks", mode(d, 1, 0).pop("in_blocks")),
    "ids-float": lambda d: [entry.__setitem__("id", float(entry["id"]))
                            for layer in ("subsystems", "abstract_subsystems") for entry in d[layer]],
}

ACCEPTED_CERTIFICATES = {
    "last-R-wider": lambda d: [d["certificates"][3]["R"].__setitem__(s, [[1.0, 2.0]])
                               for s in ("0", "1")],
    "mode-keys-reordered": lambda d: d["certificates"][3].__setitem__(
        "K", dict(reversed(d["certificates"][3]["K"].items()))),
    "kappa-string": lambda d: d["certificates"][3].__setitem__("kappa", "0.2"),
    "ids-string": lambda d: [entry.__setitem__("id", str(entry["id"])) for entry in d["certificates"]],
}


@pytest.mark.parametrize("case", sorted(ACCEPTED_NETWORKS))
def test_network_shortcut_fallback_loads(case, ring_files_json, tmp_path):
    original = ring_files_json[0]
    data = json.loads(json.dumps(original))
    ACCEPTED_NETWORKS[case](data)
    path, again = tmp_path / "file.json", tmp_path / "again.json"
    path.write_text(json.dumps(data))
    spec = load_network(path)
    save_network(spec, again)
    if case == "last-node-wider":  # a file as written: read back byte for byte
        assert again.read_bytes() == canonical(data)
        assert spec.subsystems[3].n == 3 and spec.subsystems[2].n == 2
    else:  # the file it stands for
        assert again.read_bytes() == canonical(original)


@pytest.mark.parametrize("case", sorted(ACCEPTED_CERTIFICATES))
def test_certificate_shortcut_fallback_loads(case, ring_files_json, tmp_path):
    original = ring_files_json[1]
    data = json.loads(json.dumps(original))
    ACCEPTED_CERTIFICATES[case](data)
    path, again = tmp_path / "file.json", tmp_path / "again.json"
    path.write_text(json.dumps(data))
    save_certificates(load_certificates(path), again)
    assert again.read_bytes() == canonical(data if case == "last-R-wider" else original)


def test_certificate_modes_read_in_integer_order(ring_files_json, tmp_path):
    # eleven modes as written: sorted keys put "10" before "2"
    data = json.loads(json.dumps(ring_files_json[1]))
    for entry in data["certificates"]:
        for name in ("M", "K", "Q", "R", "T"):
            first = entry[name]["0"]  # M scaled by 1 + s in mode s, to tell the modes apart
            entry[name] = {str(s): [[v * (1.0 + s if name == "M" else 1.0) for v in row]
                                    for row in first] for s in range(11)}
        entry.pop("transitions", None)
    path, again = tmp_path / "file.json", tmp_path / "again.json"
    path.write_text(canonical(data).decode())
    assert list(json.loads(path.read_text())["certificates"][0]["M"])[:3] == ["0", "1", "10"]
    assert simnet.certificates._certificate_columns(data["certificates"]) is not None
    certs = load_certificates(path)
    m0 = np.array(data["certificates"][0]["M"]["0"])
    for s in range(11):
        np.testing.assert_array_equal(certs[0].M[s].entries, m0 * (1.0 + s))
    save_certificates(certs, again)
    assert again.read_bytes() == path.read_bytes()


def test_abstract_empty_blocks_in_another_key_order(ring_files_json, tmp_path):
    # two empty out-blocks at one place sort in key order: the block tables
    # differ, and the node-by-node comparison finds the maps equal
    data = json.loads(json.dumps(ring_files_json[0]))
    for layer in ("subsystems", "abstract_subsystems"):
        mode(data, 1, 1, layer)["out_blocks"].update({"2": [2, 2], "3": [2, 2]})
    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    spec = load_network(path)
    abstract = [
        SwitchedLinearSubsystem(sub.id, tuple(
            dataclasses.replace(m, out_blocks=dict(reversed(m.out_blocks.items())))
            for m in sub.modes))
        for sub in spec.abstract_subsystems
    ]
    assert list(abstract[1].modes[1].out_blocks) != list(spec.subsystems[1].modes[1].out_blocks)
    NetworkSpec(spec.subsystems, abstract)


def test_abstract_block_maps_are_their_own(ring_files_json, tmp_path):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(ring_files_json[0]))
    spec = load_network(path)
    for conc, abst in zip(spec.subsystems, spec.abstract_subsystems):
        for mode_c, mode_a in zip(conc.modes, abst.modes):
            assert mode_a.out_blocks == mode_c.out_blocks and mode_a.out_blocks is not mode_c.out_blocks
            assert mode_a.in_blocks == mode_c.in_blocks and mode_a.in_blocks is not mode_c.in_blocks


def test_object_built_spec_checked_like_a_file(ring_files_json, tmp_path):
    data = json.loads(json.dumps(ring_files_json[0]))
    NETWORK_CASES["non-finite"](data)
    from_file = raised(load_network, data, tmp_path)
    spec = generate_ring_network(SwingParams(n_nodes=4))
    sub = spec.subsystems[1]
    bad = [Mode(A=mode.A, B=mode.B, C=mode.C, D=mode.D, out_blocks=mode.out_blocks,
                in_blocks=mode.in_blocks) for mode in sub.modes]
    bad[1] = Mode(A=[[1.0, 1.0], [np.nan, 1.0]], B=bad[1].B, C=bad[1].C, D=bad[1].D,
                  out_blocks=bad[1].out_blocks, in_blocks=bad[1].in_blocks)
    subs = list(spec.subsystems)
    subs[1] = SwitchedLinearSubsystem(1, bad)
    with pytest.raises(SchemaError) as err:
        NetworkSpec(subs, spec.abstract_subsystems)
    assert (type(err.value).__name__, str(err.value), err.value.details) == from_file


@pytest.mark.parametrize("earlier_defect", [False, True])
@pytest.mark.parametrize("bad", [
    {"in_blocks": {0: (1,)}}, {"in_blocks": {0: (0, 1, 2)}}, {"in_blocks": {0: (False, 1)}},
    {"out_blocks": {"1": (0, 1)}}, {"out_blocks": {1.0: (0, 1)}}, {"out_blocks": {True: (0, 1)}},
], ids=["one", "three", "bool", "key-str", "key-float", "key-bool"])
def test_object_built_range_not_a_pair(bad, earlier_defect):
    # a range raised a bare ValueError, a key a bare SchemaError, from the
    # block table before any node check
    def node(i, a, out_blocks=None, in_blocks=None):
        return SwitchedLinearSubsystem(i, [Mode(A=a, B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                                                out_blocks=out_blocks or {i: (0, 1)},
                                                in_blocks=in_blocks or {})])

    first = node(0, [[NAN if earlier_defect else 0.5]])
    second = node(1, [[0.5]], **bad)
    ((kind, blocks),) = bad.items()
    ((key, rng),) = blocks.items()
    if kind == "in_blocks":
        message = f"in_blocks[{key}] must be an integer pair (start, stop), got {rng!r}"
    else:
        message = f"out_blocks key {key!r} must be an integer node id"
    message = f"subsystem 1 mode 0: {message}"
    with pytest.raises(SchemaError) as err:
        NetworkSpec([first, second])
    if earlier_defect:
        expected = ("subsystem 0 mode 0: matrix A has non-finite entries",
                    {"node": 0, "mode": 0, "matrix": "A"})
    else:
        expected = (message, {"node": 1, "mode": 0, "kind": kind, "key": key})
        assert type(err.value.details["key"]) is type(key)
    assert (str(err.value), err.value.details) == expected
    # a subsystem used on its own is checked alike
    with pytest.raises(SchemaError, match=re.escape(message)):
        synthesize_certificate_matrix(second, [np.zeros((1, 1))], 0.5)


def test_standalone_subsystem_checked_when_verified(swing_cert, swing_pair):
    concrete, abstract = swing_pair
    mode = concrete.modes[0]
    wrong = SwitchedLinearSubsystem(0, [
        Mode(A=mode.A, B=np.zeros((3, 1)), C=mode.C, D=mode.D,
             out_blocks=mode.out_blocks, in_blocks=mode.in_blocks),
        concrete.modes[1],
    ])
    with pytest.raises(simnet.DimensionMismatchError, match="B must be 2x1, got"):
        derive_gains(swing_cert, wrong, abstract)


def test_standalone_subsystem_checked_before_solving(swing_cert, swing_pair):
    # a NaN in A used to come back from solve_structural as a NaN solution
    concrete, abstract = swing_pair
    mode = concrete.modes[1]
    a = np.array(mode.A)
    a[0, 0] = np.nan
    bad = SwitchedLinearSubsystem(0, [concrete.modes[0], Mode(
        A=a, B=mode.B, C=mode.C, D=mode.D, out_blocks=mode.out_blocks, in_blocks=mode.in_blocks)])
    gains = derive_gains(swing_cert, concrete, abstract)
    calls = {
        "solve_structural": lambda: solve_structural(
            bad, [m.A for m in abstract.modes], swing_cert.P,
            abstract_B=[m.B for m in abstract.modes]),
        "synthesize_certificate_matrix": lambda: synthesize_certificate_matrix(
            bad, swing_cert.K, swing_cert.kappa),
        "check_dissipation_sampled": lambda: check_dissipation_sampled(
            swing_cert, bad, abstract, samples=10, gains=gains),
    }
    for name, call in calls.items():
        with pytest.raises(SchemaError) as err:
            call()
        assert (str(err.value), err.value.details) == (
            "subsystem 0 mode 1: matrix A has non-finite entries",
            {"node": 0, "mode": 1, "matrix": "A"},
        ), name


def test_structural_nan_residual_fails_closed():
    # finite entries whose state matching residual overflows to inf - inf
    big = 1e300
    concrete = SwitchedLinearSubsystem(0, [Mode(
        A=np.diag([big, big]), B=[[0.0], [1.0]], C=[[1.0, 0.0]], D=np.zeros((2, 0)),
        out_blocks={0: (0, 1)}, in_blocks={})])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            simnet.StructuralInfeasibleError, match="state matching residual nan"):
        solve_structural(concrete, [[[big]]], [[big], [-big]], abstract_B=[[[1.0]]])


def test_nan_dissipation_slack_is_a_violation(swing_cert, swing_pair):
    concrete, abstract = swing_pair
    for gain in ("alpha", "rho_int", "rho_ext"):  # NaN gains used to be accepted
        with pytest.raises(simnet.CertificateError):
            simnet.LocalGains(**{"alpha": 1.0, "lam": 0.5, "rho_int": 0.0, "rho_ext": 0.0,
                                 gain: NAN})
    # the oracle reads lam, rho_int and rho_ext; here they skip LocalGains' checks
    gains = SimpleNamespace(lam=0.5, rho_int=NAN, rho_ext=0.0)
    report = check_dissipation_sampled(swing_cert, concrete, abstract, samples=10, gains=gains)
    assert not report.ok and report.violations == report.samples == 40
    # the report used to carry worst_slack -inf and no witness
    assert np.isnan(report.worst_slack) and np.isnan(report.witness["slack"])


def test_nan_composed_slack_is_a_violation():
    params = SwingParams(n_nodes=4)
    spec, composed = generate_ring_network(params), compose_ring(params)[0]
    fields = {"mu": composed.mu, "lambda_inf": composed.lambda_inf,
              "alpha_total": composed.alpha_total, "rho_ext_coeff": composed.rho_ext_coeff}
    for name, bad in (("mu", np.full(4, NAN)), ("alpha_total", NAN), ("rho_ext_coeff", NAN)):
        with pytest.raises(CompositionError):  # used to be accepted
            ComposedCertificate(**{**fields, name: bad}, certificates=composed.certificates)
    composed.rho_ext_coeff = NAN  # past the constructor's checks
    report = check_composed_dissipation(composed, spec, samples=20, synchronized=True)
    # the oracle used to return ok with no violation
    assert not report.ok and report.violations == report.samples == 20
    assert np.isnan(report.worst_slack) and np.isnan(report.witness["slack"])


def test_abstract_view_reuses_the_checked_layer(monkeypatch):
    spec = generate_ring_network(SwingParams(n_nodes=5))
    calls = []
    for name in ("wire", "align", "node_defect"):
        original = getattr(simnet.network._Layer, name)
        monkeypatch.setattr(simnet.network._Layer, name,
                            lambda self, *a, _f=original, _n=name: calls.append(_n) or _f(self, *a))
    view = spec.abstract_view()
    assert calls == []
    assert view.graph is spec.graph and view.subsystems == spec.abstract_subsystems
    assert spec.abstract_view() is view


class TestScalarFieldsThroughTheCli:
    """Malformed scalars exit 2 with a JSON SchemaError naming the entry;
    they used to exit 1 with a traceback, or load silently."""

    @pytest.mark.parametrize("layer, case", [
        ("network", "id-not-integer"),
        ("network", "id-fractional"),
        ("network", "block-range-boolean"),
        ("certificates", "kappa-not-number"),
        ("certificates", "mode-key-not-integer"),
        ("certificates", "M-non-numeric"),
        ("certificates", "entry-not-object"),
        ("certificates", "id-not-integer"),
        ("network", "matrix-huge-integer"),
        ("certificates", "kappa-huge-integer"),
    ])
    def test_exit_two(self, layer, case, ring_files_json, tmp_path, capsys):
        net, certs = (json.loads(json.dumps(d)) for d in ring_files_json)
        if layer == "network":
            NETWORK_CASES[case](net)
        else:
            CERTIFICATE_CASES[case](certs)
        paths = tmp_path / "net.json", tmp_path / "certs.json"
        for path, data in zip(paths, (net, certs)):
            path.write_text(json.dumps(data))
        code = main(["verify", *map(str, paths)])
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        loader = "load_network" if layer == "network" else "load_certificates"
        assert [report["error"], report["message"], report["details"]] == list(
            EXPECTED[f"{loader}/{case}"])


def test_nan_certificate_entries_rejected(tmp_path, capsys):
    # node 0's Q[0] and T[1] set to NaN used to verify and compose as ok
    net, certs = tmp_path / "net.json", tmp_path / "certs.json"
    assert main(["swing-gen", "--nodes", "1000", "-o", str(net), "--certs-out", str(certs)]) == 0
    data = json.loads(certs.read_text())
    data["certificates"][0]["Q"]["0"] = [[float("nan")]]
    data["certificates"][0]["T"]["1"] = [[float("nan")]]
    certs.write_text(json.dumps(data))
    capsys.readouterr()
    for command in ("verify", "compose"):
        code = main([command, str(net), str(certs)])
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        assert report["error"] == "SchemaError"
        assert report["details"] == {"node": 0, "mode": 0, "matrix": "Q"}


def test_nan_residuals_fail_closed(monkeypatch, swing_cert, swing_pair):
    # finite entries whose state matching residual overflows to inf - inf
    big = 1e300
    concrete = SwitchedLinearSubsystem(0, [Mode(
        A=np.diag([big, big]), B=[[0.0], [1.0]], C=[[1.0, 0.0]], D=np.zeros((2, 0)),
        out_blocks={0: (0, 1)}, in_blocks={})])
    abstract = SwitchedLinearSubsystem(0, [Mode(
        A=[[big]], B=[[1.0]], C=[[big]], D=np.zeros((1, 0)), out_blocks={0: (0, 1)}, in_blocks={})])
    cert = LocalCertificate(M=[np.eye(2)], K=[np.zeros((1, 2))], P=[[big], [-big]],
                            Q=[[[0.0]]], R=[[[0.0]]], T=[np.zeros((1, 0))], kappa=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_certificate(cert, concrete, abstract).structure
    assert report.failures == ("mode 0: state matching residual nan",)
    # a NaN semidefinite margin and a NaN output mismatch fail as well
    monkeypatch.setattr(simnet.certificates, "psd_margin_batch",
                        lambda a, b: (np.full(len(a), np.nan), np.ones(len(a))))
    monkeypatch.setattr(simnet.certificates, "_max_abs", lambda a: np.full(len(a), np.nan))
    concrete, abstract = swing_pair
    report = verify_certificate(swing_cert, concrete, abstract).output_dominance
    assert report.failures == tuple(
        f"mode {s}: {what}" for s in (0, 1) for what in (
            "output Gram matrix is not dominated by M", "C P differs from the abstract C by nan")
    )


@pytest.mark.parametrize("source", ["swing-gen", "heterogeneous"])
def test_round_trip_byte_identical(source, tmp_path):
    net, certs = tmp_path / "net.json", tmp_path / "certs.json"
    if source == "swing-gen":
        assert main(["swing-gen", "--nodes", "50", "-o", str(net), "--certs-out", str(certs)]) == 0
    else:
        spec, by_id = heterogeneous_network(0)
        save_network(spec, net)
        save_certificates(by_id, certs)
    again = tmp_path / "again.json"
    save_network(load_network(net), again)
    assert again.read_bytes() == net.read_bytes()
    save_certificates(load_certificates(certs), again)
    assert again.read_bytes() == certs.read_bytes()


@pytest.mark.parametrize("kind", ["network", "certificates"])
def test_indented_file_loads_and_saves_compact(kind, tmp_path):
    # a file written with indent=1 still loads; saving it again gives the
    # bytes of a direct save, which are compact
    spec, by_id = heterogeneous_network(0)
    obj, to_json, save, load = {
        "network": (spec, simnet.network_to_json, save_network, load_network),
        "certificates": (by_id, simnet.certificates_to_json, save_certificates,
                         load_certificates),
    }[kind]
    old, direct, again = (tmp_path / f"{name}.json" for name in ("old", "direct", "again"))
    old.write_text(json.dumps(to_json(obj), indent=1, sort_keys=True) + "\n")
    save(obj, direct)
    save(load(old), again)
    assert again.read_bytes() == direct.read_bytes()
    assert len(direct.read_bytes()) < len(old.read_bytes())


def test_checks_independent_of_node_count(tmp_path, monkeypatch):
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    per_size = {}
    for nodes in (10, 40):
        net, certs = tmp_path / f"net{nodes}.json", tmp_path / f"certs{nodes}.json"
        assert main(["swing-gen", "--nodes", str(nodes), "-o", str(net),
                     "--certs-out", str(certs)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(np, "isfinite", counting("isfinite", np.isfinite))
            patch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
            load_network(net)
            load_certificates(certs)
        per_size[nodes] = dict(counts)
        counts.clear()
    assert per_size[10] == per_size[40], per_size
    assert per_size[10]["isfinite"] > 0 and per_size[10]["eigvalsh"] == 1


def test_views_are_read_only(tmp_path):
    spec, by_id = heterogeneous_network(1)
    net, certs = tmp_path / "net.json", tmp_path / "certs.json"
    save_network(spec, net)
    save_certificates(by_id, certs)
    loaded = load_network(net)
    arrays = [getattr(mode, name) for layer in (loaded.subsystems, loaded.abstract_subsystems)
              for sub in layer for mode in sub.modes for name in "ABCD"]
    for origin in (load_certificates(certs), by_id):
        for cert in origin.values():
            arrays += [m.entries for m in cert.M] + [cert.P, *cert.K, *cert.Q, *cert.R, *cert.T]
    assert arrays and not any(a.flags.writeable for a in arrays)
    loaded_cert = load_certificates(certs)[3]
    assert loaded_cert.K[0].base is not None and loaded_cert.M[0].entries.base is not None


class TestSwitchingSignalModes:
    # (a (steps, nodes) mode table of each kind, every node's mode at step k
    # computed node by node)
    SIGNALS = {
        "table": (lambda: [[0, 1, 2], [1, 0, 2], [1, 0, 0], [0, 1, 1]],
                  lambda i, k: [[0, 1, 1, 0], [1, 0, 0, 1], [2, 2, 0, 1]][i][k]),
        "periodic": (lambda: [[s[(k // 2) % len(s)] for s in ([0, 1], [1], [2, 0, 1])]
                              for k in range(4)],
                     lambda i, k: [[0, 1], [1], [2, 0, 1]][i][(k // 2) % (2, 1, 3)[i]]),
        "synchronized": (lambda: _synchronized(3, 2, 3, 3), lambda i, k: (k // 3) % 2),
        "constant": (lambda: np.ones((4, 3), dtype=np.int32), lambda i, k: 1),
        "callable": (lambda: np.fromfunction(lambda k, i: (i + k) % 2, (4, 3), dtype=int),
                     lambda i, k: (i + k) % 2),
    }

    @pytest.mark.parametrize("kind", sorted(SIGNALS))
    def test_modes_at_matches_mode(self, kind):
        # the table as the simulator reads it, before its first step
        make, mode = self.SIGNALS[kind]
        table = _integers(make(), "mode", (0, 1, 2))
        assert type(table) is np.ndarray and table.dtype == np.int64
        assert table.tolist() == [[mode(i, k) for i in range(3)] for k in range(4)]

    @pytest.mark.parametrize("period", [1.5, 0, True, 2.0])
    def test_period_must_be_an_integer(self, period):
        # a period of 1.5 used to raise a bare IndexError at modes_at(3)
        with pytest.raises(SchemaError, match="switching period must be an integer >= 1"):
            _synchronized(1, 1, period, 3)

    def test_ring_experiment_rejects_fractional_period(self):
        with pytest.raises(SchemaError, match=r"an integer >= 1, got 1\.5"):
            simnet.run_ring_experiment(SwingParams(n_nodes=3, switch_period=1.5), 10)


class TestCollectorState:
    """The writers and the ring generator build their trees with the cyclic
    collector paused, as the loaders do, and leave it as they found it."""

    N = 1000

    @pytest.fixture(scope="class")
    def ring(self):
        params = SwingParams(n_nodes=self.N)
        cert = closed_form_certificate(params)
        return generate_ring_network(params), {i: cert for i in range(self.N)}

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def writers(ring, directory):
        spec, certs = ring
        return {
            "save_network": lambda: save_network(spec, directory / "net.json"),
            "save_certificates": lambda: save_certificates(certs, directory / "certs.json"),
            "network_to_json": lambda: network_to_json(spec),
            "certificates_to_json": lambda: certificates_to_json(certs),
            "generate_ring_network": lambda: generate_ring_network(SwingParams(n_nodes=len(certs))),
        }

    # each writer as it fails inside the paused build or the write after it
    FAILING = {
        "save_network": lambda ring, missing: save_network(ring[0], missing / "net.json"),
        "save_certificates": lambda ring, missing: save_certificates(ring[1], missing / "c.json"),
        "network_to_json": lambda ring, missing: network_to_json(
            SimpleNamespace(subsystems=[None])),
        "certificates_to_json": lambda ring, missing: certificates_to_json({0: None}),
        "generate_ring_network": lambda ring, missing: generate_ring_network(
            SimpleNamespace(n_nodes=3)),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_state_left_as_found(self, name, enabled, ring, tmp_path, restore_gc):
        (gc.enable if enabled else gc.disable)()
        self.writers(ring, tmp_path)[name]()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_state_left_as_found_when_raising(self, name, enabled, ring, tmp_path, restore_gc):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises((OSError, AttributeError)):
            self.FAILING[name](ring, tmp_path / "missing")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_no_collection_while_building(self, name, ring, tmp_path, restore_gc):
        # the 1000-node trees would set off dozens of collections unpaused;
        # the one allowed may run as the collector resumes
        gc.enable()
        starts = []
        callback = lambda phase, info: phase == "start" and starts.append(info["generation"])
        gc.callbacks.append(callback)
        try:
            self.writers(ring, tmp_path)[name]()
        finally:
            gc.callbacks.remove(callback)
        assert len(starts) <= 1
