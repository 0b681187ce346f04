"""Network model tests: ingestion, wiring validation, stepping, round trips."""

import numpy as np
import pytest

from simnet import (
    BlockPartitionError,
    DimensionMismatchError,
    InterconnectionGraph,
    Mode,
    NetworkSpec,
    SchemaError,
    SwingParams,
    SwitchedLinearSubsystem,
    WiringError,
    generate_ring_network,
    load_network,
    network_to_json,
    parse_network,
    save_network,
    simulate_lockstep,
)
from simnet.composition import ComposedCertificate, Lockstep
from simnet.network import _distinct
from simnet.simulate import _synchronized
from vehicles import (
    heterogeneous_network,
    live_peers,
    per_node,
    random_network,
    stacked_step_oracle,
    tight_two_node_network,
)

# random_network seeds, then heterogeneous_network seeds 0 and 1 (dims 1-4,
# three modes, zero-width D, an isolated node)
STEP_CASES = [*range(10), "heterogeneous-0", "heterogeneous-1"]


def step_case_network(case) -> NetworkSpec:
    if isinstance(case, int):
        return random_network(case)
    return heterogeneous_network(int(case.rsplit("-", 1)[1]))[0]


def engine_step(spec, states, inputs, modes):
    """spec.engine.step on per-node lists: per node the next states, the
    outputs, the internal inputs and the external outputs."""
    engine = spec.engine
    x_next, y, w, ext = engine.step(
        np.concatenate(states), np.concatenate(inputs), engine.slots.select(modes)
    )
    return (per_node(engine.state, x_next), per_node(engine.output, y),
            per_node(engine.internal_input, w), per_node(engine.external, ext))


def internal_input(spec, states, modes):
    """The internal inputs w_ij = y_ji of one engine step."""
    return engine_step(spec, states, [np.zeros(sub.m) for sub in spec.subsystems], modes)[2]


def single_node_json():
    return {
        "schema": "simnet-v1",
        "subsystems": [
            {
                "id": 0,
                "modes": [{"A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[]]}],
                "out_blocks": {"0": [0, 1]},
                "in_blocks": {},
            }
        ],
        "edges": [],
    }


def two_node_chain():
    """Node 1 feeds node 0 through an identity output block."""
    sub0 = SwitchedLinearSubsystem(
        0,
        [
            Mode(
                A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 2)),
                out_blocks={0: (0, 2)}, in_blocks={1: (0, 2)},
            )
        ],
    )
    sub1 = SwitchedLinearSubsystem(
        1,
        [
            Mode(
                A=np.eye(2), B=np.zeros((2, 1)),
                C=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], D=np.zeros((2, 0)),
                out_blocks={1: (0, 1), 0: (1, 3)}, in_blocks={},
            )
        ],
    )
    return NetworkSpec([sub0, sub1])


class TestLoadNetwork:
    def test_single_node_valid(self):
        spec = parse_network(single_node_json())
        assert spec.n_nodes == 1
        assert spec.subsystems[0].n == 1
        assert spec.subsystems[0].internal_width == 0
        assert spec.graph.edges == ()

    def test_missing_schema_tag(self):
        data = single_node_json()
        del data["schema"]
        with pytest.raises(SchemaError):
            parse_network(data)

    def test_ring_spec_valid_and_single_in_neighbor_per_topology(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        for sub in spec.subsystems:
            for mode in sub.modes:
                assert len(live_peers(mode.in_blocks)) == 1
        # union graph has both ring directions
        assert spec.graph.in_neighbors[0] == (1, 2)

    def test_declared_edge_without_blocks_is_wiring_inconsistency(self):
        data = single_node_json()
        data["subsystems"].append(
            {
                "id": 1,
                "modes": [{"A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[]]}],
                "out_blocks": {"1": [0, 1]},
                "in_blocks": {},
            }
        )
        data["edges"] = [[1, 0]]
        with pytest.raises(WiringError) as err:
            parse_network(data)
        assert "wiring inconsistency" in str(err.value)

    def test_undeclared_edge_is_wiring_inconsistency(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        data = network_to_json(spec)
        data["edges"] = data["edges"][:-1]
        with pytest.raises(WiringError):
            parse_network(data)

    def test_in_block_without_producer_is_dangling(self):
        data = single_node_json()
        data["subsystems"][0]["in_blocks"] = {"1": [0, 1]}
        data["subsystems"][0]["modes"][0]["D"] = [[1.0]]
        data["subsystems"].append(
            {
                "id": 1,
                "modes": [{"A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[]]}],
                "out_blocks": {"1": [0, 1]},
                "in_blocks": {},
            }
        )
        with pytest.raises(WiringError) as err:
            parse_network(data)
        assert "dangling" in str(err.value)

    def test_block_partition_gap(self):
        data = single_node_json()
        data["subsystems"][0]["modes"][0]["C"] = [[1.0], [0.5]]
        data["subsystems"][0]["out_blocks"] = {"0": [0, 1]}  # row 1 uncovered
        with pytest.raises(BlockPartitionError):
            parse_network(data)

    def test_dimension_mismatch(self):
        data = single_node_json()
        data["subsystems"][0]["modes"][0]["B"] = [[0.0, 1.0]]
        data["subsystems"][0]["modes"].append(
            {"A": [[0.5]], "B": [[0.0]], "C": [[1.0]], "D": [[]]}
        )
        with pytest.raises(DimensionMismatchError):
            parse_network(data)

    def test_non_finite_entries_rejected(self):
        data = single_node_json()
        data["subsystems"][0]["modes"][0]["A"] = [[float("nan")]]
        with pytest.raises(SchemaError):
            parse_network(data)

    def test_self_feeding_rejected(self):
        data = single_node_json()
        data["subsystems"][0]["modes"][0]["D"] = [[1.0]]
        data["subsystems"][0]["in_blocks"] = {"0": [0, 1]}
        with pytest.raises(WiringError):
            parse_network(data)

    def test_external_block_width_fixed_across_modes(self):
        # node 0's external block is 1 wide in mode 0 and 2 wide in mode 1
        # (its block to node 1 shrinks to nothing); the run CSV's columns
        # come from one step, so the width may not change with the mode
        def mode(out_blocks):
            return Mode(A=[[0.5]], B=[[1.0]], C=[[1.0], [0.5]], D=np.zeros((1, 0)),
                        out_blocks=out_blocks, in_blocks={})

        reader = SwitchedLinearSubsystem(1, [
            Mode(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[1.0]],
                 out_blocks={1: (0, 1)}, in_blocks={0: (0, 1)})
        ] * 2)
        isolated = SwitchedLinearSubsystem(2, [
            Mode(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=np.zeros((1, 0)),
                 out_blocks={2: (0, 1)}, in_blocks={})
        ] * 2)
        with pytest.raises(BlockPartitionError, match="external output block is 2 wide"):
            node0 = SwitchedLinearSubsystem(
                0, [mode({0: (0, 1), 1: (1, 2)}), mode({0: (0, 2), 1: (2, 2)})]
            )
            NetworkSpec([node0, reader, isolated])

    def test_zero_width_block_is_inert(self):
        # a zero-width out-block keeps q constant across modes without
        # creating an edge
        sub = SwitchedLinearSubsystem(
            0,
            [
                Mode(
                    A=[[0.5]], B=[[0.0]], C=[[1.0]], D=np.zeros((1, 0)),
                    out_blocks={0: (0, 1), 1: (1, 1)}, in_blocks={2: (0, 0)},
                )
            ],
        )
        assert live_peers(sub.modes[0].out_blocks, 0) == ()
        spec = NetworkSpec([sub])
        assert spec.graph.edges == ()
        next_states = engine_step(spec, [np.array([2.0])], [np.zeros(1)], [0])[0]
        np.testing.assert_array_equal(next_states[0], [1.0])

    def test_round_trip_identity(self, tmp_path):
        spec = generate_ring_network(SwingParams(n_nodes=4))
        path = tmp_path / "net.json"
        save_network(spec, path)
        loaded = load_network(path)
        assert network_to_json(loaded) == network_to_json(spec)
        # and the canonical file itself is stable
        path2 = tmp_path / "net2.json"
        save_network(loaded, path2)
        assert path.read_text() == path2.read_text()


@pytest.mark.parametrize("values", [
    [], [7], [-3], [3, 1, 3, -2, 1], list(range(50, 0, -3)) * 2,
    np.random.default_rng(0).integers(-40, 40, 500).tolist(),
], ids=["empty", "one", "one-negative", "repeats", "descending-twice", "random"])
@pytest.mark.parametrize("dtype", [np.int64, np.intp, np.int32])
def test_distinct_equals_unique(values, dtype):
    # the parsers' and the verifier's replacement for plain np.unique
    values = np.array(values, dtype=dtype)
    got, want = _distinct(values), np.unique(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestInterconnectionGraph:
    def test_unknown_in_neighbor_is_a_wiring_error(self):
        with pytest.raises(WiringError, match="node 1 references unknown peer 7"):
            InterconnectionGraph((0, 1), {0: (1,), 1: (0, 7)})

    def test_self_loop_is_a_wiring_error(self):
        with pytest.raises(WiringError, match="node 1 may not neighbor itself"):
            InterconnectionGraph((0, 1), {0: (), 1: (1,)})


class TestAssembleInternalInput:
    def test_two_node_chain_identity_block(self):
        spec = two_node_chain()
        states = [np.zeros(2), np.array([1.0, 0.0])]
        w = internal_input(spec, states, [0, 0])
        np.testing.assert_allclose(w[0], [1.0, 0.0])
        assert w[1].shape == (0,)

    def test_ring_mode0_receives_predecessor_phase(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        states = [np.array([float(i + 1), 10.0 * (i + 1)]) for i in range(3)]
        w = internal_input(spec, states, [0, 0, 0])
        # phase is the first state component of the predecessor
        np.testing.assert_allclose([float(x[0]) for x in w], [3.0, 1.0, 2.0])
        w2 = internal_input(spec, states, [1, 1, 1])
        np.testing.assert_allclose([float(x[0]) for x in w2], [2.0, 3.0, 1.0])

    def test_zero_states_zero_inputs(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        w = internal_input(spec, [np.zeros(2)] * 3, [0, 0, 0])
        assert all(float(np.abs(x).max()) == 0.0 for x in w)

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_network(seed)
        modes = [int(rng.integers(0, s.n_modes)) for s in spec.subsystems]
        xs = [rng.uniform(-1, 1, s.n) for s in spec.subsystems]
        ys = [rng.uniform(-1, 1, s.n) for s in spec.subsystems]
        # homogeneity is bitwise for power-of-two scales
        doubled = internal_input(spec, [2.0 * x for x in xs], modes)
        wx = internal_input(spec, xs, modes)
        for wd, w1 in zip(doubled, wx):
            np.testing.assert_array_equal(wd, 2.0 * w1)
        # superposition up to rounding of the state sum
        a, b = 0.5, -2.0
        mixed = internal_input(
            spec, [a * x + b * y for x, y in zip(xs, ys)], modes
        )
        wy = internal_input(spec, ys, modes)
        for wm, w1, w2 in zip(mixed, wx, wy):
            np.testing.assert_allclose(wm, a * w1 + b * w2, atol=1e-13, rtol=1e-13)


class TestStep:
    def test_identity_dynamics_keeps_states(self):
        spec = two_node_chain()
        states = [np.array([0.3, -0.7]), np.array([0.0, 0.0])]
        next_states = engine_step(spec, states, [np.zeros(1), np.zeros(1)], [0, 0])[0]
        np.testing.assert_allclose(next_states[0], states[0])

    def test_swing_node_zero_coupling_step(self):
        # x = (0, 1) maps to (1, 1 - d/m) when the neighbor phase is zero
        spec = generate_ring_network(SwingParams(n_nodes=3))
        states = [np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)]
        next_states = engine_step(spec, states, [np.zeros(1)] * 3, [0, 0, 0])[0]
        np.testing.assert_allclose(next_states[0], [1.0, 0.99999], atol=1e-15)

    def test_outputs_use_current_mode(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        states = [np.array([2.0, 5.0]), np.zeros(2), np.zeros(2)]
        _, outputs, _, external = engine_step(spec, states, [np.zeros(1)] * 3, [0, 0, 0])
        np.testing.assert_allclose(outputs[0], [5.0, 2.0])  # freq then phase
        np.testing.assert_allclose(external[0], [5.0])

    def test_ring_step_matches_stacked_oracle(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        rng = np.random.default_rng(1)
        states = [rng.uniform(-1, 1, 2) for _ in range(3)]
        inputs = [rng.uniform(-1, 1, 1) for _ in range(3)]
        for modes in ([0, 0, 0], [1, 1, 1]):
            blockwise = engine_step(spec, states, inputs, modes)[0]
            stacked = stacked_step_oracle(spec, states, inputs, modes)
            for a, b in zip(blockwise, stacked):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_ring_rejects_mixed_modes(self):
        # the switched ring's wiring is total only under synchronized modes:
        # a node in mode 1 expects its successor's output, which the
        # successor only produces in mode 1
        spec = generate_ring_network(SwingParams(n_nodes=3))
        states = [np.zeros(2)] * 3
        with pytest.raises(WiringError) as err:
            internal_input(spec, states, [0, 1, 0])
        assert str(err.value) == (
            "subsystem 1 expects input from 2, but 2's current mode outputs nothing to 1"
        )
        assert err.value.details == {"src": 2, "dst": 1, "src_mode": 0}
        assert all(type(v) is int for v in err.value.details.values())

    @pytest.mark.parametrize("seed", STEP_CASES)
    def test_random_network_matches_stacked_oracle(self, seed):
        rng = np.random.default_rng(STEP_CASES.index(seed) + 77)
        spec = step_case_network(seed)
        modes = [int(rng.integers(0, s.n_modes)) for s in spec.subsystems]
        states = [rng.uniform(-1, 1, s.n) for s in spec.subsystems]
        inputs = [rng.uniform(-1, 1, s.m) for s in spec.subsystems]
        blockwise = engine_step(spec, states, inputs, modes)[0]
        stacked = stacked_step_oracle(spec, states, inputs, modes)
        for a, b in zip(blockwise, stacked):
            assert float(np.abs(a - b).max()) <= 1e-12

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_out_of_range_mode_rejected(self, mode):
        # the ring has two modes: -1 used to alias mode 1, 2 to raise IndexError
        spec = generate_ring_network(SwingParams(n_nodes=3))
        states, inputs = [np.zeros(2)] * 3, [np.zeros(1)] * 3
        for call in (
            lambda: engine_step(spec, states, inputs, [0, mode, 0]),
            lambda: internal_input(spec, states, [mode] * 3),
        ):
            with pytest.raises(DimensionMismatchError, match=f"subsystem [01]: mode {mode} "):
                call()

    @pytest.mark.parametrize("n_nodes", [2, 5])
    def test_switching_signal_must_cover_every_node(self, n_nodes):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        match = f"one mode per node \\(3\\), got {n_nodes}"
        with pytest.raises(DimensionMismatchError, match=match):
            engine_step(spec, [np.zeros(2)] * 3, [np.zeros(1)] * 3, np.zeros(n_nodes, dtype=int))

    def test_step_respects_switching_signal(self):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        table = _synchronized(3, 2, 2, 5)
        rng = np.random.default_rng(2)
        states = [rng.uniform(-1, 1, 2) for _ in range(3)]
        inputs = [rng.uniform(-1, 1, 1) for _ in range(3)]
        for k in (0, 2):  # mode 0, then mode 1
            next_states = engine_step(spec, states, inputs, table[k])[0]
            reference = stacked_step_oracle(spec, states, inputs, table[k].tolist())
            np.testing.assert_allclose(np.concatenate(next_states), np.concatenate(reference),
                                       rtol=1e-12, atol=1e-12)
        with pytest.raises(DimensionMismatchError):
            engine_step(spec, states, inputs, _synchronized(2, 2, 2, 5)[5])


class TestActivePatterns:
    """Each entry family keeps the entries of the last active pattern; every
    step must still equal the per-node reference whenever the pattern
    changes, however the caller hands it over."""

    @staticmethod
    def check_step(spec, active, modes, rng):
        engine = spec.engine
        states = [rng.uniform(-1, 1, sub.n) for sub in spec.subsystems]
        inputs = [rng.uniform(-1, 1, sub.m) for sub in spec.subsystems]
        x_next = engine.step(np.concatenate(states), np.concatenate(inputs), active)[0]
        reference = stacked_step_oracle(spec, states, inputs, modes)
        np.testing.assert_allclose(x_next, np.concatenate(reference), rtol=1e-12, atol=1e-12)

    def two_patterns(self, seed):
        spec = heterogeneous_network(seed)[0]
        rng = np.random.default_rng(seed + 40)
        a, b = ([int(rng.integers(sub.n_modes)) for sub in spec.subsystems] for _ in range(2))
        assert a != b
        return spec, a, b, rng

    @pytest.mark.parametrize("seed", [0, 1])
    def test_active_mutated_in_place(self, seed):
        spec, a, b, rng = self.two_patterns(seed)
        active = spec.engine.slots.select(a)
        self.check_step(spec, active, a, rng)
        active[:] = spec.engine.slots.select(b)
        self.check_step(spec, active, b, rng)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_alternating_patterns(self, seed):
        spec, a, b, rng = self.two_patterns(seed)
        for modes in (a, b, a, b):
            self.check_step(spec, spec.engine.slots.select(modes), modes, rng)

    def test_table_switching_every_step(self):
        spec = heterogeneous_network(0)[0]
        rng = np.random.default_rng(5)
        table = np.array([rng.integers(sub.n_modes, size=8) for sub in spec.subsystems]).T
        for modes in table:
            self.check_step(spec, spec.engine.slots.select(modes), modes.tolist(), rng)

    def test_abstract_view_shares_the_concrete_wiring(self):
        spec = heterogeneous_network(0)[0]
        concrete, abstract = spec.engine, spec.abstract_view().engine
        assert abstract is not concrete and abstract._A is not concrete._A
        assert abstract._wiring is concrete._wiring
        assert abstract._external is concrete._external
        assert abstract._unwired is concrete._unwired


class TestSwitchingSignal:
    """A switching signal over a finite run is a (steps, nodes) mode table."""

    @staticmethod
    def run(table):
        """A lockstep run of heterogeneous_network(0) (three modes per node,
        uhat = 0) under the table."""
        spec, by_id = heterogeneous_network(0)
        certs = [by_id[i] for i in spec.graph.nodes]
        composed = ComposedCertificate(np.ones(spec.n_nodes), 0.1, 1.0, 1.0, certs)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1, 1, spec.engine.state.size)
        xhat0 = rng.uniform(-1, 1, spec.abstract_view().engine.state.size)
        u_hat = np.zeros(spec.abstract_view().engine.input.size)
        run = simulate_lockstep(spec, certs, composed, x0, xhat0, lambda x_hat, k: u_hat, table)
        return Lockstep(spec, certs, composed), x0, xhat0, u_hat, run

    def test_periodic_schedule(self):
        table = _synchronized(2, 2, 5, 10)
        assert table[[0, 4, 5, 9, 10], 0].tolist() == [0, 0, 1, 1, 0]

    def test_table_horizon(self):
        n_nodes = heterogeneous_network(0)[0].n_nodes
        table = np.zeros((3, n_nodes), dtype=int)
        table[1:, 1] = [2, 1]
        run = self.run(table.tolist())[-1]
        assert run.horizon == 2 and run.modes.dtype == np.int64
        assert run.modes.tolist() == table.tolist()

    def test_asynchronous_per_node(self):
        # every node follows its own column: the run equals the lockstep
        # stepped row by row
        n_nodes = heterogeneous_network(0)[0].n_nodes
        table = np.array([[(i + k) % 3 for i in range(n_nodes)] for k in range(4)])
        lockstep, x, x_hat, u_hat, run = self.run(table)
        for k, modes in enumerate(table):
            x, x_hat, y, _, v = lockstep.step(x, x_hat, u_hat, modes)
            assert run.external_outputs[k].tolist() == y.tolist() and run.v_trace[k] == v

    @pytest.mark.parametrize("make", [
        lambda: [[0, 1.7]],
        lambda: [[0, 1.0]],
        lambda: [[True, 1]],
        lambda: np.array([[0.0, 1.0]]),
        lambda: [[0, 0], [0, False]],
        lambda: np.array([[0, 1.5]], dtype=object),
    ])
    def test_non_integer_modes_rejected(self, make):
        # they used to be truncated: 1.7 read as mode 1, True as mode 1
        spec, certs, gains, composed = tight_two_node_network()
        with pytest.raises(SchemaError, match=r"step \d, subsystem \d: mode .* is not an integer"):
            simulate_lockstep(spec, certs, composed, np.zeros(4), np.zeros(2),
                              lambda x_hat, k: np.zeros(2), make())

    @pytest.mark.parametrize("modes, first", [
        ([0, 0.7, 0], "1: mode 0.7"), ([0, True, 0], "1: mode True"),
        (np.array([0.0, 1.0, 0.0]), "0: mode 0.0"),
    ])
    def test_selection_rejects_non_integer_modes(self, modes, first):
        spec = generate_ring_network(SwingParams(n_nodes=3))
        with pytest.raises(SchemaError, match=f"subsystem {first} is not an integer"):
            spec.engine.slots.select(modes)
