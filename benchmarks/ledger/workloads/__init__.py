"""The ledger's workloads and the per-layer probe groups beside them.

Importing this package imports ``repro``; the harness times that import
as the first set-up phase.
"""

from benchmarks.ledger.workloads import (
    campaign_pooled,
    rpc_record_check,
    trace_postmortem,
    world_churn,
)

#: name → workload class, in the order ``run --all`` takes them.
WORKLOADS = {
    cls.name: cls
    for cls in (
        rpc_record_check.RpcRecordCheck,
        world_churn.WorldChurn,
        trace_postmortem.TracePostmortem,
        campaign_pooled.CampaignPooled,
    )
}

#: Probe groups, each named after the workload whose program it takes
#: apart.  Layers are shared between workloads, so a traced run of any
#: workload runs every group.
PROBES = {
    "rpc_record_check": rpc_record_check.probes,
    "world_churn": world_churn.probes,
    "trace_postmortem": trace_postmortem.probes,
    "campaign_pooled": campaign_pooled.probes,
}
