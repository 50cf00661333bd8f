//! Parallel execution must never change a byte of output: every sweep in
//! the workspace (cluster policy replays, recommendation ranking, probe
//! warming) produces identical results at `--jobs 1` and `--jobs 4`, and
//! across repeated parallel runs. This is the contract `parsweep` exists
//! to uphold (DESIGN §9) and what lets the golden tables stay valid while
//! the harness fans out.

use composable_core::{recommend_jobs, ExperimentOpts, HostConfig, Objective};
use dlmodels::Benchmark;
use scheduler::{
    all_policies, compare_policies_faulty, paper_fault_plan, run_matrix, run_scenario, trace,
    warm_set_for_trace, ProbeCache, RackTopology, Scenario, SchedulerConfig, Topology, Trace,
    TraceSpec, POLICY_NAMES,
};

/// `t` replayed under the four training presets on `chassis` chassis.
fn trace_scenario(t: Trace, chassis: u8, config: SchedulerConfig) -> Scenario {
    let presets = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    Scenario {
        topology: Topology::with_chassis(chassis),
        config,
        ..Scenario::new("parallel", TraceSpec::Jobs { name: t.name, jobs: t.jobs }, presets)
    }
}

/// `sc`'s reports and the probe-cache bytes after replaying it from a
/// cold cache on `jobs` workers.
fn snapshot(sc: &Scenario, jobs: usize) -> (Vec<String>, String) {
    let mut cache = ProbeCache::new_for(sc.config.probe_iters, sc.topology.rack());
    let report = run_scenario(sc, jobs, &mut cache).expect("trace drains under every policy");
    (report.reports.iter().map(|r| r.to_json_string()).collect(), cache.save_json())
}

fn replay_snapshot(jobs: usize) -> (Vec<String>, String) {
    let t = trace::seeded_two_tenant(12, 0xBEEF);
    snapshot(&trace_scenario(t, 1, SchedulerConfig::default()), jobs)
}

/// Cluster `ScheduleReport`s *and* the resulting probe-cache contents are
/// byte-identical for 1 vs 4 workers, and across two 4-worker runs
/// (replays race freely; merge order may not depend on the race).
#[test]
fn cluster_replay_identical_across_worker_counts() {
    let serial = replay_snapshot(1);
    let parallel = replay_snapshot(4);
    let parallel_again = replay_snapshot(4);
    assert_eq!(serial.0, parallel.0, "reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel runs must not race");
}

fn scale_snapshot(jobs: usize) -> (Vec<String>, String) {
    // 32 pooled GPUs across the rack fabric.
    let t = trace::seeded_two_tenant(24, 0xBEEF);
    let cfg = SchedulerConfig { quota_gpus_per_tenant: 20, ..SchedulerConfig::default() };
    snapshot(&trace_scenario(t, 2, cfg), jobs)
}

/// The multi-chassis rack keeps the contract: a 32-GPU (2-chassis) study
/// replayed at `--jobs 1` and `--jobs 4` (and across repeated parallel
/// runs) yields byte-identical reports — cross-chassis placement pricing
/// included — and byte-identical probe caches.
#[test]
fn rack_scale_replay_identical_across_worker_counts() {
    let serial = scale_snapshot(1);
    let parallel = scale_snapshot(4);
    let parallel_again = scale_snapshot(4);
    assert_eq!(serial.0, parallel.0, "scale reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel scale runs must not race");
    for r in &serial.0 {
        assert!(r.contains("\"pool_gpus\": 32"), "the rack pools 32 GPUs: {r}");
    }
}

fn priority_snapshot(jobs: usize) -> (Vec<String>, String) {
    let t = trace::seeded_two_tenant(24, 0xBEEF);
    let cfg = SchedulerConfig {
        preempt: true,
        defrag: true,
        quota_gpus_per_tenant: 20,
        ..SchedulerConfig::default()
    };
    snapshot(&trace_scenario(t, 2, cfg), jobs)
}

/// Checkpoint preemption and migration defrag keep the contract: the same
/// contended 2-chassis study as `scale_snapshot` with the priority knobs
/// on — so victims are chosen, rolled back, and resumed mid-replay —
/// yields byte-identical reports (migration ledger included) and probe
/// caches at `--jobs 1` and `--jobs 4`, and across repeated parallel runs.
#[test]
fn priority_replay_identical_across_worker_counts() {
    let serial = priority_snapshot(1);
    let parallel = priority_snapshot(4);
    let parallel_again = priority_snapshot(4);
    assert_eq!(serial.0, parallel.0, "priority reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel priority runs must not race");
    for r in &serial.0 {
        assert!(r.contains("\"preemptions\""), "every priority report carries the ledger: {r}");
        assert!(r.contains("\"work_lost_gpu_secs\""));
    }
}

fn faulty_snapshot(jobs: usize) -> (Vec<String>, Vec<String>) {
    let plan = paper_fault_plan();
    let rack = SchedulerConfig { quota_gpus_per_tenant: 20, ..SchedulerConfig::default() };
    let legs = [
        (RackTopology::SINGLE, 12, SchedulerConfig::default()),
        (RackTopology::with_chassis(2), 24, rack),
    ];
    let (mut reports, mut caches) = (Vec::new(), Vec::new());
    for (topo, n_jobs, cfg) in legs {
        let t = trace::seeded_two_tenant(n_jobs, 0xBEEF);
        let mut cache = ProbeCache::new_for(cfg.probe_iters, topo);
        let pairs =
            compare_policies_faulty(topo, &t, all_policies(), &plan, &cfg, jobs, &mut cache)
                .expect("faulty trace drains under every policy");
        reports.extend(
            pairs.iter().flat_map(|(base, faulty)| [base.to_json_string(), faulty.to_json_string()]),
        );
        caches.push(cache.save_json());
    }
    (reports, caches)
}

/// Failure injection keeps the contract: the pinned fault plan replayed
/// on one chassis and on a 2-chassis rack at `--jobs 1` and `--jobs 4`
/// (and across repeated parallel runs) yields byte-identical baseline and
/// faulty reports — recovery-metrics block included — and byte-identical
/// probe caches.
#[test]
fn faulty_replay_identical_across_worker_counts() {
    let serial = faulty_snapshot(1);
    let parallel = faulty_snapshot(4);
    let parallel_again = faulty_snapshot(4);
    assert_eq!(serial.0, parallel.0, "faulty reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel faulty runs must not race");
    // The determinism we just certified covers the recovery block: every
    // faulty report carries one, no baseline report does.
    for pair in serial.0.chunks(2) {
        assert!(!pair[0].contains("\"recovery\""), "baseline stays fault-free");
        assert!(pair[1].contains("\"recovery\""), "faulty replay reports recovery");
        assert!(pair[1].contains("\"mean_recovery_ns\""));
    }
}

fn mixed_snapshot(jobs: usize) -> (Vec<String>, String) {
    let mix = TraceSpec::PaiMix { n_jobs: 6, n_services: 4, seed: 0xBEEF };
    let presets = POLICY_NAMES.iter().map(|p| p.to_string()).collect();
    snapshot(&Scenario::new("mixed", mix, presets), jobs)
}

/// Inference serving keeps the contract: a mixed training + serving trace
/// replayed at `--jobs 1` and `--jobs 4` (and across repeated parallel
/// runs) yields byte-identical reports — per-service SLO metrics
/// included — and byte-identical probe caches.
#[test]
fn mixed_serving_replay_identical_across_worker_counts() {
    let serial = mixed_snapshot(1);
    let parallel = mixed_snapshot(4);
    let parallel_again = mixed_snapshot(4);
    assert_eq!(serial.0, parallel.0, "mixed reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel mixed runs must not race");
    for r in &serial.0 {
        assert!(r.contains("\"serve\""), "every mixed report carries a serve block");
        assert!(r.contains("\"attainment\""));
    }
}

fn scenario_matrix_snapshot(jobs: usize) -> (Vec<String>, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ is checked in")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let scenarios: Vec<Scenario> = paths
        .iter()
        .map(|p| Scenario::from_json_str(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect();
    let mut cache = ProbeCache::new(SchedulerConfig::default().probe_iters);
    let reports = run_matrix(&scenarios, jobs, &mut cache).expect("every pinned scenario runs");
    let reports: Vec<String> = reports.iter().map(|r| r.canonical_json_string()).collect();
    (reports, cache.save_json())
}

/// The scenario matrix keeps the contract: the whole checked-in
/// `scenarios/` directory fanned across 1 vs 4 workers (and across
/// repeated parallel runs) yields byte-identical canonical reports and a
/// byte-identical shared probe cache — the property `repro
/// scenario-matrix --jobs N` advertises.
#[test]
fn scenario_matrix_identical_across_worker_counts() {
    let serial = scenario_matrix_snapshot(1);
    let parallel = scenario_matrix_snapshot(4);
    let parallel_again = scenario_matrix_snapshot(4);
    assert!(serial.0.len() >= 5, "the pinned scenario set ran");
    assert_eq!(serial.0, parallel.0, "scenario reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel matrix runs must not race");
}

/// The production-scale replay workload keeps the contract on its own
/// terms: `scenarios/pai_magnitude.json` (10k training jobs + 60
/// services on the 128-GPU rack, epoch-sharded serving, amortized
/// audits) replayed at `--jobs 1` and `--jobs 4` yields byte-identical
/// canonical reports.
#[test]
fn pai_magnitude_replay_identical_across_worker_counts() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/pai_magnitude.json");
    let sc = Scenario::from_json_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    let serial = run_scenario(&sc, 1, &mut cache).unwrap().canonical_json_string();
    let parallel = run_scenario(&sc, 4, &mut cache).unwrap().canonical_json_string();
    assert_eq!(serial, parallel, "epoch-sharded serving must not depend on worker count");
    assert!(serial.contains("\"n_jobs\": 10000"), "the full 10k-job trace ran");
    assert!(serial.contains("\"n_services\": 60"), "all 48 mixed + 12 pinned services ran");
}

fn autotune_snapshot(jobs: usize) -> (String, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/portfolio_default");
    let pf = autotune::Portfolio::load_dir(std::path::Path::new(dir))
        .expect("the default portfolio is checked in");
    let spec = autotune::SearchSpec { seed: 3, budget: 24 };
    let mut cache = ProbeCache::new(pf.probe_iters());
    let tuned = autotune::tune(&pf, &spec, jobs, &mut cache).expect("small-budget tune runs");
    (tuned.to_json_string(), cache.save_json())
}

/// The policy search keeps the contract: a small-budget `tune()` over the
/// default portfolio — candidate evaluations fanned across the worker
/// pool — yields a byte-identical `TunedPolicy` artifact and probe cache
/// at `--jobs 1` and `--jobs 4`, and across repeated parallel runs. This
/// is the same identity `repro autotune` advertises at full budget.
#[test]
fn autotune_identical_across_worker_counts() {
    let serial = autotune_snapshot(1);
    let parallel = autotune_snapshot(4);
    let parallel_again = autotune_snapshot(4);
    assert_eq!(serial.0, parallel.0, "tuned artifact must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel tunes must not race");
    assert!(serial.0.contains("\"portfolio_hash\""), "artifact carries provenance");
}

/// `recommend` ranks identically (same order, same scores, same attached
/// reports) at 1 and 4 workers.
#[test]
fn recommend_identical_across_worker_counts() {
    let snapshot = |jobs: usize| {
        recommend_jobs(
            Benchmark::BertLarge,
            &HostConfig::gpu_configs(),
            Objective::TrainingTime,
            &ExperimentOpts::scaled(3),
            jobs,
        )
        .into_iter()
        .map(|r| {
            format!("{:?} {} {}", r.config, r.score, r.report.to_json_string())
        })
        .collect::<Vec<_>>()
    };
    let serial = snapshot(1);
    assert_eq!(serial, snapshot(4));
    assert!(!serial.is_empty());
}

/// Probe-cache persistence closes the loop: a cache saved by one run and
/// loaded by the next prices the same portfolio with **zero** probe
/// simulations and byte-identical reports.
#[test]
fn persisted_probe_cache_eliminates_second_run_probes() {
    let sc = trace_scenario(trace::seeded_two_tenant(10, 0x5EED5), 1, SchedulerConfig::default());

    let mut first = ProbeCache::new(sc.config.probe_iters);
    let reports_a = run_scenario(&sc, 2, &mut first).unwrap().reports;
    assert!(first.probes_run() > 0, "the first run must actually probe");
    let persisted = first.save_json();

    let mut second = ProbeCache::load_str(&persisted, sc.config.probe_iters);
    assert_eq!(second.len(), first.len(), "every entry must round-trip");
    let reports_b = run_scenario(&sc, 2, &mut second).unwrap().reports;
    assert_eq!(
        second.probes_run(),
        0,
        "a warm persisted cache must make the second run probe-free"
    );
    let a: Vec<String> = reports_a.iter().map(|r| r.to_json_string()).collect();
    let b: Vec<String> = reports_b.iter().map(|r| r.to_json_string()).collect();
    assert_eq!(a, b, "cached pricing must not change a byte of the reports");
    assert_eq!(second.save_json(), persisted, "save/load/save is a fixpoint");
}

/// Warming in parallel produces the same cache bytes as warming serially,
/// for the exact key set a trace replay draws on.
#[test]
fn parallel_warm_matches_serial_warm_for_a_trace() {
    let t = trace::seeded_two_tenant(8, 0xAB);
    let keys = warm_set_for_trace(&t);
    assert!(!keys.is_empty());
    let cfg = SchedulerConfig::default();
    let mut serial = ProbeCache::new(cfg.probe_iters);
    serial.warm(&keys, 1);
    let mut parallel = ProbeCache::new(cfg.probe_iters);
    parallel.warm(&keys, 4);
    assert_eq!(serial.save_json(), parallel.save_json());
    assert_eq!(serial.probes_run(), parallel.probes_run());
}
