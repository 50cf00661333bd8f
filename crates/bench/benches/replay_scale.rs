//! Production-scale replay bench (testkit harness): the PAI-magnitude
//! mixed workload from `scenarios/pai_magnitude.json` — 10k training
//! jobs, 48 bursty services, and 12 long-lived high-rate services on the
//! full 128-GPU rack — replayed under the PR-era event loop semantics
//! (full conservation audit every event, global fault repricing, every
//! serving micro-event through the global loop) and under the current
//! engine (amortized ledger audits, fault-scoped repricing,
//! epoch-sharded serving with service retirement). Both legs replay the
//! *same* trace, so the events/sec ratio is exactly the speedup, and the
//! bench **asserts** it stays >= 5x — the replay-engine work is a pinned
//! property, not a vibe.
//!
//! Results land in `BENCH_replay_scale.json` at the workspace root:
//! trace events/sec for both engine legs and the asserted speedup.

use desim::json::Value;
use scheduler::{
    policy_by_name, request_times, ClusterSim, MixedTrace, ProbeCache, RackTopology,
    Scenario, ScheduleReport, SchedulerConfig,
};
use testkit::bench::{black_box, BenchOpts, Suite};

/// The asserted floor on the engine speedup. Measured headroom is well
/// above this on an idle host; the floor leaves room for CI noise.
const MIN_SPEEDUP: f64 = 5.0;

fn load_pai_magnitude() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/pai_magnitude.json");
    let text = std::fs::read_to_string(path).expect("scenarios/pai_magnitude.json is checked in");
    let sc = Scenario::from_json_str(&text).expect("pai_magnitude parses");
    sc.validate().expect("pai_magnitude validates");
    sc
}

/// PR-era semantics: exhaustive audit every event, global fault
/// repricing, every serving micro-event through the global loop.
fn baseline_config(sc: &Scenario) -> SchedulerConfig {
    SchedulerConfig {
        audit_every: 1,
        incremental_reprice: false,
        shard_serving: false,
        ..sc.config.clone()
    }
}

fn replay(
    topo: RackTopology,
    mix: &MixedTrace,
    cfg: &SchedulerConfig,
    warm: &str,
) -> ScheduleReport {
    let cache = ProbeCache::load_str_for(warm, cfg.probe_iters, topo);
    let policy = policy_by_name("slo-aware-pack").expect("slo-aware-pack is registered");
    ClusterSim::with_probe_cache_mixed_on(topo, mix.clone(), policy, cfg.clone(), cache)
        .expect("pai-magnitude trace admits")
        .run()
        .expect("pai-magnitude trace drains")
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts("replay_scale", BenchOpts { warmup_iters: 1, iters: 3 });

    let sc = load_pai_magnitude();
    let topo = sc.topology.rack();
    let (mix, plan) = sc.materialize();
    assert!(plan.is_empty(), "pai_magnitude is fault-free; wire the plan in if that changes");
    // The workload's event count: one arrival + one finish per training
    // job, plus every generated inference request. Identical for both
    // engine legs by construction, so the events/sec ratio is the
    // wall-clock ratio.
    let requests: usize = mix.services.iter().map(|sp| request_times(sp).len()).sum();
    let trace_events = (mix.jobs.len() * 2 + requests) as u64;
    println!(
        "  -> {trace_events} trace events ({} jobs, {} services, {requests} requests)",
        mix.jobs.len(),
        mix.services.len()
    );

    // Warm the probe cache once (probing is deterministic and identical
    // for both legs; the bench times the replay, not the probes).
    let warm = {
        let cache = ProbeCache::new_for(sc.config.probe_iters, topo);
        let policy = policy_by_name("slo-aware-pack").expect("slo-aware-pack is registered");
        let (_, cache) = ClusterSim::with_probe_cache_mixed_on(
            topo,
            mix.clone(),
            policy,
            sc.config.clone(),
            cache,
        )
        .expect("warm-up replay admits")
        .run_report()
        .expect("warm-up replay drains");
        cache.save_json()
    };

    let base_cfg = baseline_config(&sc);
    let base = s
        .bench("pai_magnitude_baseline_semantics", || {
            black_box(replay(topo, &mix, &base_cfg, &warm).n_jobs)
        })
        .clone();
    let opt = s
        .bench("pai_magnitude_optimized", || {
            black_box(replay(topo, &mix, &sc.config, &warm).n_jobs)
        })
        .clone();

    let eps = |median_ns: u128| trace_events as f64 / (median_ns as f64 / 1e9);
    let (base_eps, opt_eps) = (eps(base.median_ns), eps(opt.median_ns));
    let speedup = base.median_ns as f64 / opt.median_ns as f64;
    println!(
        "  -> baseline {base_eps:.0} events/sec, optimized {opt_eps:.0} events/sec ({speedup:.1}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "replay-engine speedup regressed: {speedup:.2}x < {MIN_SPEEDUP}x \
         (baseline median {} ns, optimized median {} ns)",
        base.median_ns,
        opt.median_ns
    );

    let fields: Vec<(&str, Value)> = vec![
        ("suite", Value::str("replay-scale")),
        ("host_parallelism", Value::from_u64(cores as u64)),
        ("trace_events", Value::from_u64(trace_events)),
        ("trace_jobs", Value::from_u64(mix.jobs.len() as u64)),
        ("trace_services", Value::from_u64(mix.services.len() as u64)),
        ("trace_requests", Value::from_u64(requests as u64)),
        ("pool_gpus", Value::from_u64(128)),
        ("baseline_median_ns", Value::from_u64(base.median_ns as u64)),
        ("optimized_median_ns", Value::from_u64(opt.median_ns as u64)),
        ("baseline_events_per_sec", Value::Num(base_eps.round())),
        ("optimized_events_per_sec", Value::Num(opt_eps.round())),
        ("speedup", Value::Num((speedup * 100.0).round() / 100.0)),
        ("min_speedup_asserted", Value::Num(MIN_SPEEDUP)),
        (
            "note",
            Value::str(
                "pai-magnitude mixed workload (10k jobs + 60 services, 128 GPUs) replayed \
                 under PR-era semantics (audit every event, global repricing, unsharded \
                 serving) vs the current engine; >= 5x events/sec is asserted, not just \
                 recorded",
            ),
        ),
    ];
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay_scale.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_replay_scale.json");
    println!("baseline written to BENCH_replay_scale.json");
}
