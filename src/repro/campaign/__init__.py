"""Scenario campaign engine (ROADMAP item 5).

The paper's whole point is a model accurate enough to ask "what changes
if the topology changes".  This package sweeps entire scenario spaces —
every single-session depeering, tier-1 link failures, prefix hijacks,
anycast catchments — executing each scenario as one crash-isolated task
of the supervised pool, diffing its answers against the baseline serve
artifact, and ranking everything into one deterministic impact report.
"""

from repro.campaign.diffing import ScenarioDiff, diff_path_maps
from repro.campaign.engine import (
    CHECKPOINT_FORMAT,
    campaign_fingerprint,
    context_from_artifact,
    load_checkpoint,
    plan_campaign,
    run_campaign,
    validate_baseline,
    whatif,
    write_checkpoint,
)
from repro.campaign.report import STATUS_OK, CampaignReport, ScenarioOutcome
from repro.campaign.scenarios import (
    CAMPAIGN_KINDS,
    CampaignContext,
    CatchmentScenario,
    EdgeFailureScenario,
    HijackScenario,
    generate_catchment,
    generate_depeer,
    generate_hijack,
    generate_link_failure,
)

__all__ = [
    "CAMPAIGN_KINDS",
    "CHECKPOINT_FORMAT",
    "CampaignContext",
    "CampaignReport",
    "CatchmentScenario",
    "EdgeFailureScenario",
    "HijackScenario",
    "STATUS_OK",
    "ScenarioDiff",
    "ScenarioOutcome",
    "campaign_fingerprint",
    "context_from_artifact",
    "diff_path_maps",
    "generate_catchment",
    "generate_depeer",
    "generate_hijack",
    "generate_link_failure",
    "load_checkpoint",
    "plan_campaign",
    "run_campaign",
    "validate_baseline",
    "whatif",
    "write_checkpoint",
]
