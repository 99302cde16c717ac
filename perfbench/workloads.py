"""The benchmark's workloads: sizes, units and the expected CSV shape.

Plain data with no imports, so the per-repetition child can read it
before it imports the program without changing what the import loads.
"""

#: Each workload is one batch job, run one at a time (a closed loop with
#: one client).  ``units`` is the size the program is given; a unit is a
#: participant for study and arena and a device-second for fleet.
WORKLOADS = {
    # The analytic model, persona derivation and streaming aggregation
    # do all the work in a few large shards; the device stack never runs.
    # 4 shards of 4,096 users, so both workers get equal shards.
    "study-population": {
        "experiment": "STUDY1",
        "units": 16384,
        "jobs": 2,
        "unit": "participants",
        "header": (
            "scenario,users,error_rate,errorless_frac,mean_trial_s,"
            "p50_trial_s,p90_trial_s,mean_submovements"
        ),
        "rows": 4,
    },
    # ~99% of compute is DistScrollTechnique.select() driving the event
    # kernel, firmware, ADC, GP2D120 and hand model; 8 small 4-user shards
    # (4 per worker) use the runner differently from study's few large ones.
    "arena-fullstack": {
        "experiment": "ARENA",
        "units": 32,
        "jobs": 2,
        "unit": "participants",
        "header": (
            "rank,technique,score,mean_trial_s,p50_trial_s,error_rate,"
            "ops_per_trial,recovery_s,one_handed,glove_ok"
        ),
        "rows": 9,
    },
    # The same firmware and sensor logic as a structure-of-arrays batch:
    # one kernel event per tick, inline, no worker processes.  The
    # no-change control for scalar-stack, analytic-model and runner work.
    # Resized through the runner API because the CLI cannot resize it.
    "fleet-batch": {
        "experiment": "FLEET",
        "units": 2048,
        "duration_s": 10.0,
        "fault_every": 8,
        "jobs": 1,
        "unit": "device-seconds",
        "header": (
            "surface,devices,measurements,corrupted,foldback_latches,"
            "rejections,confirmations,highlight_moves"
        ),
        "rows": None,  # one per surface present; devices must sum to units
    },
}
