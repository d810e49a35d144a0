"""Graph analyses: expansion, isolation, degrees, ages, spectra, edge probabilities.

The topology analyses (expansion probes, degree summaries, isolated and
component censuses, distances, spectra) have one implementation, on a
:class:`~repro.core.csr.CSRView`; a frozen
:class:`~repro.core.snapshot.Snapshot` argument is converted once at
entry (see ``docs/architecture.md``).
"""

from repro.analysis.ages import AgeProfile, age_profile, age_slices
from repro.analysis.components import (
    component_sizes,
    component_summary,
    giant_component_fraction,
)
from repro.analysis.degrees import (
    degree_histogram,
    degree_summary,
    in_out_degree_split,
    live_degree_summary,
    max_degree,
)
from repro.analysis.edge_prob import (
    poisson_slot_destination_frequency,
    streaming_slot_destination_frequency,
)
from repro.analysis.expansion import (
    ExpansionProbe,
    adversarial_expansion_upper_bound,
    expansion_of_set,
    large_set_expansion_probe,
    probe_network_expansion,
    vertex_expansion_exact,
)
from repro.analysis.isolated import (
    IsolatedCensus,
    count_isolated,
    isolated_fraction,
    lifetime_isolated_census,
)
from repro.analysis.kl import (
    kl_divergence,
    paper_profile_distribution,
    profile_distribution_mass,
)
from repro.analysis.spectral import cheeger_bounds, normalized_laplacian_lambda2

__all__ = [
    "AgeProfile",
    "ExpansionProbe",
    "IsolatedCensus",
    "adversarial_expansion_upper_bound",
    "age_profile",
    "age_slices",
    "cheeger_bounds",
    "component_sizes",
    "component_summary",
    "count_isolated",
    "degree_histogram",
    "degree_summary",
    "expansion_of_set",
    "giant_component_fraction",
    "in_out_degree_split",
    "isolated_fraction",
    "kl_divergence",
    "large_set_expansion_probe",
    "lifetime_isolated_census",
    "live_degree_summary",
    "max_degree",
    "probe_network_expansion",
    "normalized_laplacian_lambda2",
    "paper_profile_distribution",
    "poisson_slot_destination_frequency",
    "profile_distribution_mass",
    "streaming_slot_destination_frequency",
    "vertex_expansion_exact",
]
