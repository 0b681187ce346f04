"""The public API: ``simnet.__all__`` is pinned, every name in it resolves,
and the per-matrix and per-node copies of the batch kernels and the
compiled engines are gone (each capability has one public path)."""

import importlib

import pytest

import simnet

PUBLIC = (
    "BlockPartitionError", "BoundConstants", "CertificateError", "ComposedCertificate",
    "CompositionError", "ConvergenceError", "DEFAULT_TOL", "DimensionMismatchError",
    "DissipationReport", "EdgePattern", "GainOperator", "IndefiniteMatrixError",
    "InterconnectionGraph", "LocalCertificate", "LocalGains", "Mode", "MuCertificate",
    "NetworkSpec", "NetworkVerification", "RadiusBracket", "RingExperiment", "SchemaError",
    "SimnetError",
    "SimulationRun", "SmallGainResult", "StructuralInfeasibleError", "StructuralSolution",
    "SwingParams", "SwingReport", "SwitchedLinearSubsystem", "SymMatrix",
    "TemplateGains", "TemplatedGainOperator", "ToleranceProfile", "TrajectoryReport",
    "VerificationReport", "VerifiedCertificate", "WiringError", "benchmark_report",
    "build_gain_operator", "build_gain_operator_from_network", "certificates_to_json",
    "check_V_decrease", "check_composed_dissipation", "check_dissipation_sampled",
    "check_small_gain", "check_trajectory_bound", "closed_form_certificate",
    "compose_certificate", "compose_ring", "construct_mu", "derive_gains", "edge_pattern",
    "export_run", "generate_ring_network", "load_certificates", "load_network",
    "network_to_json", "operator_norm_batch", "parse_network", "principal_sqrt_batch",
    "psd_margin_batch", "radius_bracket", "ring_gains", "run_ring_experiment",
    "save_certificates", "save_network", "simulate_lockstep", "solve_linear_least_squares",
    "solve_structural", "spectral_radius_dense", "synthesize_certificate_matrix",
    "templated_gain_operator", "templated_ring_operator", "topology_graph",
    "verified_template", "verify_certificate", "verify_network",
)

# module -> names that duplicated a surviving path and were removed
REMOVED = {
    "linalg": ("operator_norm", "principal_sqrt", "psd_margin", "psd_order", "spectral_radius"),
    "network": (
        "StepResult", "SwitchingSignal", "assemble_internal_input", "step", "step_with_modes",
    ),
    "certificates": (
        "evaluate_V", "interface_input", "verify_decay", "verify_output_dominance",
        "verify_structure",
    ),
}


def test_all_is_pinned():
    assert len(PUBLIC) == 78
    assert simnet.__all__ == sorted(PUBLIC)


def test_every_name_resolves():
    for name in simnet.__all__:
        assert getattr(simnet, name) is not None, name


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in REMOVED.items() for name in names]
)
def test_removed_name_is_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(simnet, name)
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(f"simnet.{module}"), name)
