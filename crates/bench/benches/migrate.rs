//! Preemption/migration bench (testkit harness): the pinned
//! `scenarios/cluster_priority.json` study — a contended two-chassis
//! PAI-style mix where ~20% of jobs arrive at the high tier — replayed
//! against its no-priority baseline: the *same* jobs, arrivals, and
//! sizes with every tier flattened to low and every priority knob off,
//! i.e. plain arrival-order scheduling with no preemption. Both legs run
//! the same policy, so the per-tier mean-JCT ratios (per job id, tiers
//! taken from the real trace) are exactly the cost/benefit of the
//! priority machinery, and the bench **asserts** the tentpole claim:
//! high-tier mean JCT improves by at least [`MIN_HIGH_TIER_GAIN`] while
//! low-tier mean JCT inflates by at most [`MAX_LOW_TIER_INFLATION`] — a
//! pinned property, not a vibe.
//!
//! Results land in `BENCH_migrate.json` at the workspace root: per-tier
//! mean JCTs for both legs, the asserted ratios, and the preemption /
//! migration counters of the enabled leg.

use desim::json::Value;
use scheduler::{
    policy_by_name, ClusterSim, ProbeCache, RackTopology, Scenario, ScheduleReport,
    SchedulerConfig, Trace,
};
use testkit::bench::{black_box, BenchOpts, Suite};

/// The asserted floor on the high-tier improvement: preemption must cut
/// high-tier mean JCT by at least this fraction vs the baseline.
const MIN_HIGH_TIER_GAIN: f64 = 0.20;

/// The asserted ceiling on the low-tier cost: preempted low-tier jobs may
/// see mean JCT inflate by at most this factor.
const MAX_LOW_TIER_INFLATION: f64 = 1.5;

fn load_cluster_priority() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/cluster_priority.json");
    let text =
        std::fs::read_to_string(path).expect("scenarios/cluster_priority.json is checked in");
    let sc = Scenario::from_json_str(&text).expect("cluster_priority parses");
    sc.validate().expect("cluster_priority validates");
    assert!(
        sc.config.preempt,
        "cluster_priority is the preemption study; its preempt knob must be on"
    );
    sc
}

/// The same study with every priority lever off: arrivals queue behind
/// whatever is running, exactly the pre-priority engine.
fn baseline_config(sc: &Scenario) -> SchedulerConfig {
    SchedulerConfig {
        preempt: false,
        defrag: false,
        relocate_slo: false,
        ..sc.config.clone()
    }
}

fn replay(
    topo: RackTopology,
    trace: &Trace,
    policy_name: &str,
    cfg: &SchedulerConfig,
    warm: &str,
) -> ScheduleReport {
    let cache = ProbeCache::load_str_for(warm, cfg.probe_iters, topo);
    let policy = policy_by_name(policy_name).expect("pinned policy is registered");
    ClusterSim::with_probe_cache_on(topo, trace.clone(), policy, cfg.clone(), cache)
        .expect("cluster_priority trace admits")
        .run()
        .expect("cluster_priority trace drains")
}

/// Mean JCT over the jobs the *real* trace puts at `tier`, selected by
/// job id so the flattened baseline leg groups identically.
fn tier_mean_jct_secs(r: &ScheduleReport, trace: &Trace, tier: u8) -> f64 {
    let jcts: Vec<f64> = r
        .jobs
        .iter()
        .filter(|o| trace.jobs.iter().any(|j| j.id == o.id && j.priority == tier))
        .map(|o| o.jct().as_secs_f64())
        .collect();
    assert!(!jcts.is_empty(), "the seeded mix must draw tier-{tier} jobs");
    jcts.iter().sum::<f64>() / jcts.len() as f64
}

fn main() {
    let mut s = Suite::with_opts("migrate", BenchOpts { warmup_iters: 1, iters: 3 });

    let sc = load_cluster_priority();
    let topo = sc.topology.rack();
    let (mix, plan) = sc.materialize();
    assert!(plan.is_empty(), "cluster_priority is fault-free; wire the plan in if that changes");
    let trace = mix.training();
    let policy_name = sc.policies[0].clone();
    // The no-priority baseline workload: identical jobs with every tier
    // flattened to low, so the queue is plain arrival order and nothing
    // can preempt — the pre-tier engine's behavior on this mix.
    let flat = Trace {
        name: trace.name.clone(),
        jobs: trace
            .jobs
            .iter()
            .cloned()
            .map(|mut j| {
                j.priority = 1;
                j
            })
            .collect(),
    };

    // Warm the probe cache once (probing is deterministic and identical
    // for both legs; the bench times the replay, not the probes).
    let warm = {
        let cache = ProbeCache::new_for(sc.config.probe_iters, topo);
        let policy = policy_by_name(&policy_name).expect("pinned policy is registered");
        let (_, cache) =
            ClusterSim::with_probe_cache_on(topo, trace.clone(), policy, sc.config.clone(), cache)
                .expect("warm-up replay admits")
                .run_report()
                .expect("warm-up replay drains");
        cache.save_json()
    };

    let tiered = replay(topo, &trace, &policy_name, &sc.config, &warm);

    let base_cfg = baseline_config(&sc);
    let base = replay(topo, &flat, &policy_name, &base_cfg, &warm);
    assert!(base.migration.is_none(), "knob-free baseline must not report migration metrics");
    let mig = tiered.migration.as_ref().expect("priority leg reports migration metrics");
    assert!(mig.preemptions > 0, "the pinned study must actually preempt");

    let (base_high, base_low) =
        (tier_mean_jct_secs(&base, &trace, 2), tier_mean_jct_secs(&base, &trace, 1));
    let (high, low) =
        (tier_mean_jct_secs(&tiered, &trace, 2), tier_mean_jct_secs(&tiered, &trace, 1));
    let gain = 1.0 - high / base_high;
    let inflation = low / base_low;
    println!(
        "  -> high-tier mean JCT {base_high:.1}s -> {high:.1}s ({:.1}% better), \
         low-tier {base_low:.1}s -> {low:.1}s ({inflation:.2}x), \
         {} preemptions / {} migrations",
        gain * 100.0,
        mig.preemptions,
        mig.migrations
    );
    assert!(
        gain >= MIN_HIGH_TIER_GAIN,
        "preemption benefit regressed: high-tier mean JCT improved only {:.1}% < {:.0}% \
         (baseline {base_high:.1}s, tiered {high:.1}s)",
        gain * 100.0,
        MIN_HIGH_TIER_GAIN * 100.0
    );
    assert!(
        inflation <= MAX_LOW_TIER_INFLATION,
        "preemption cost regressed: low-tier mean JCT inflated {inflation:.2}x > \
         {MAX_LOW_TIER_INFLATION}x (baseline {base_low:.1}s, tiered {low:.1}s)"
    );

    let base_t = s
        .bench("cluster_priority_baseline", || {
            black_box(replay(topo, &flat, &policy_name, &base_cfg, &warm).n_jobs)
        })
        .clone();
    let tier_t = s
        .bench("cluster_priority_preempt", || {
            black_box(replay(topo, &trace, &policy_name, &sc.config, &warm).n_jobs)
        })
        .clone();

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let fields: Vec<(&str, Value)> = vec![
        ("suite", Value::str("migrate")),
        ("trace_jobs", Value::from_u64(trace.jobs.len() as u64)),
        ("pool_gpus", Value::from_u64(topo.total_gpus() as u64)),
        ("policy", Value::str(policy_name)),
        ("baseline_high_tier_mean_jct_s", Value::Num(round2(base_high))),
        ("preempt_high_tier_mean_jct_s", Value::Num(round2(high))),
        ("baseline_low_tier_mean_jct_s", Value::Num(round2(base_low))),
        ("preempt_low_tier_mean_jct_s", Value::Num(round2(low))),
        ("high_tier_gain", Value::Num(round2(gain))),
        ("min_high_tier_gain_asserted", Value::Num(MIN_HIGH_TIER_GAIN)),
        ("low_tier_inflation", Value::Num(round2(inflation))),
        ("max_low_tier_inflation_asserted", Value::Num(MAX_LOW_TIER_INFLATION)),
        ("preemptions", Value::from_u64(u64::from(mig.preemptions))),
        ("migrations", Value::from_u64(u64::from(mig.migrations))),
        ("work_lost_gpu_secs", Value::Num(mig.work_lost_gpu_secs)),
        ("baseline_median_ns", Value::from_u64(base_t.median_ns as u64)),
        ("preempt_median_ns", Value::from_u64(tier_t.median_ns as u64)),
        (
            "note",
            Value::str(
                "cluster_priority study (48 jobs, 2 chassis / 32 GPUs, ~20% high-tier) \
                 replayed with tiers flattened + priority knobs off (arrival-order, \
                 no-preemption baseline) vs real tiers + checkpoint preemption + \
                 migration defrag on; >= 20% high-tier mean-JCT gain and <= 1.5x low-tier \
                 inflation are asserted, not recorded",
            ),
        ),
    ];
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_migrate.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_migrate.json");
    println!("baseline written to BENCH_migrate.json");
}
