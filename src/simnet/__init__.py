"""simnet: compositional certification and lockstep simulation for networks
of discrete-time switched linear subsystems.

The pipeline: verify per-node quadratic tracking certificates, extract
dissipation gains, certify the network small-gain condition, compose the
network certificate, refine abstract controllers through interface
functions, and validate the resulting trajectory error bounds on a
lockstep simulator.

The public names below are imported on first use (PEP 562), so
``import simnet`` loads neither numpy nor any submodule.  That lets the
command line cap the BLAS thread pool before numpy starts it.
"""

import importlib

_EXPORTS = {
    "certificates": (
        "DissipationReport",
        "LocalCertificate",
        "LocalGains",
        "NetworkVerification",
        "StructuralSolution",
        "VerificationReport",
        "VerifiedCertificate",
        "certificates_to_json",
        "check_dissipation_sampled",
        "derive_gains",
        "load_certificates",
        "save_certificates",
        "solve_structural",
        "synthesize_certificate_matrix",
        "verify_network",
        "verify_certificate",
    ),
    "composition": (
        "ComposedCertificate",
        "GainOperator",
        "MuCertificate",
        "SmallGainResult",
        "TemplateGains",
        "TemplatedGainOperator",
        "build_gain_operator",
        "build_gain_operator_from_network",
        "check_composed_dissipation",
        "check_small_gain",
        "compose_certificate",
        "construct_mu",
        "templated_gain_operator",
    ),
    "errors": (
        "BlockPartitionError",
        "CertificateError",
        "CompositionError",
        "ConvergenceError",
        "DimensionMismatchError",
        "IndefiniteMatrixError",
        "SchemaError",
        "SimnetError",
        "StructuralInfeasibleError",
        "WiringError",
    ),
    "linalg": (
        "DEFAULT_TOL",
        "EdgePattern",
        "RadiusBracket",
        "SymMatrix",
        "ToleranceProfile",
        "edge_pattern",
        "operator_norm_batch",
        "principal_sqrt_batch",
        "psd_margin_batch",
        "radius_bracket",
        "solve_linear_least_squares",
        "spectral_radius_dense",
    ),
    "network": (
        "InterconnectionGraph",
        "Mode",
        "NetworkSpec",
        "SwitchedLinearSubsystem",
        "load_network",
        "network_to_json",
        "parse_network",
        "save_network",
    ),
    "simulate": (
        "BoundConstants",
        "SimulationRun",
        "TrajectoryReport",
        "check_trajectory_bound",
        "check_V_decrease",
        "export_run",
        "simulate_lockstep",
    ),
    "swing": (
        "RingExperiment",
        "SwingParams",
        "SwingReport",
        "benchmark_report",
        "closed_form_certificate",
        "compose_ring",
        "generate_ring_network",
        "ring_gains",
        "run_ring_experiment",
        "templated_ring_operator",
        "topology_graph",
        "verified_template",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
