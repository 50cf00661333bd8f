//! Throughput benches for the parallel sweep engine (testkit harness):
//!
//! * raw desim event-loop throughput (events/sec) — the denominator every
//!   probe and replay pays per event, and the quantity the fabric scratch-
//!   buffer fast path (DESIGN §9) is meant to protect;
//! * cluster policy-portfolio replay wall-clock at `--jobs 1` vs
//!   `--jobs 4`, asserting byte-identical reports and (on a ≥ 4-core
//!   host) a loose ≥ 2× speedup;
//! * a grid sweep slice at 1 vs 4 workers (the repro table-generation
//!   path).
//!
//! Results are also written to `BENCH_parsweep.json` at the workspace
//! root — the checked-in perf baseline the README "Performance" table is
//! drawn from.

use composable_core::{sweep_jobs, ExperimentOpts, HostConfig};
use desim::json::Value;
use desim::{Dur, Sim};
use dlmodels::Benchmark;
use scheduler::{
    all_policies, run_scenario, trace, ProbeCache, Scenario, ScheduleReport, TraceSpec,
    POLICY_NAMES,
};
use testkit::bench::{black_box, BenchOpts, Suite};

const DESIM_EVENTS: u64 = 100_000;

/// One self-rescheduling event: pops, decrements, re-arms — the leanest
/// possible trip around the event loop.
fn tick(remaining: &mut u64, sim: &mut Sim<u64>) {
    if *remaining > 0 {
        *remaining -= 1;
        sim.schedule_in(Dur::from_nanos(1), tick);
    }
}

fn desim_event_chain() -> u64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut remaining = DESIM_EVENTS;
    sim.schedule_in(Dur::from_nanos(1), tick);
    sim.run(&mut remaining);
    assert_eq!(remaining, 0);
    sim.events_executed()
}

fn replay_portfolio(jobs: usize) -> Vec<ScheduleReport> {
    // A fresh cache each call: the bench measures probing + replay, not
    // cache hits.
    let t = trace::seeded_two_tenant(20, 0xC10D);
    let presets = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    let sc = Scenario::new("throughput", TraceSpec::Jobs { name: t.name, jobs: t.jobs }, presets);
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    run_scenario(&sc, jobs, &mut cache).expect("trace drains under every policy").reports
}

fn grid_cells() -> Vec<(Benchmark, HostConfig, ExperimentOpts)> {
    [Benchmark::MobileNetV2, Benchmark::ResNet50]
        .into_iter()
        .flat_map(|b| {
            HostConfig::gpu_configs()
                .into_iter()
                .map(move |c| (b, c, ExperimentOpts::scaled(2)))
        })
        .collect()
}

fn grid_slice(jobs: usize) -> usize {
    let reports = sweep_jobs(&grid_cells(), jobs);
    reports.iter().filter(|r| r.is_ok()).count()
}

/// The worker count a leg *actually* runs with: parsweep clamps the
/// requested count to the number of jobs in the fan-out, so a "jobs4" leg
/// over a 4-policy portfolio runs 4 workers, but over 2 cells only 2.
fn actual_workers(requested: usize, fanout: usize) -> usize {
    requested.max(1).min(fanout.max(1))
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts(
        "throughput",
        BenchOpts {
            warmup_iters: 1,
            iters: 5,
        },
    );

    let desim_stats = s
        .bench("desim_event_loop_100k_events", || {
            black_box(desim_event_chain())
        })
        .clone();
    let events_per_sec = DESIM_EVENTS as f64 / (desim_stats.median_ns as f64 / 1e9);
    println!("  -> {events_per_sec:.0} events/sec (median)");

    // Byte-identity across worker counts is asserted once up front so a
    // regression fails loudly before any timing is reported.
    let serial: Vec<String> = replay_portfolio(1).iter().map(|r| r.to_json_string()).collect();
    let parallel: Vec<String> = replay_portfolio(4).iter().map(|r| r.to_json_string()).collect();
    assert_eq!(serial, parallel, "jobs=4 replay output must be byte-identical to jobs=1");

    let replay1 = s
        .bench("cluster_replay_20_jobs_portfolio_jobs1", || {
            black_box(replay_portfolio(1).len())
        })
        .clone();
    let replay4 = s
        .bench("cluster_replay_20_jobs_portfolio_jobs4", || {
            black_box(replay_portfolio(4).len())
        })
        .clone();
    let replay_speedup = replay1.median_ns as f64 / replay4.median_ns as f64;
    println!("  -> replay speedup jobs4/jobs1: {replay_speedup:.2}x on {cores} core(s)");
    if replay_speedup < 1.0 {
        // Non-fatal: on few-core hosts the split/absorb overhead of the
        // per-policy cache can outweigh the parallelism. Tracked here and
        // in BENCH_scenario.json so the trajectory stays visible.
        println!(
            "  -> WARNING: parallel replay slower than serial ({replay_speedup:.2}x < 1.00x); \
             intra-replay parallelism is regressing, see cluster_replay_speedup in BENCH_parsweep.json"
        );
    }

    let grid1 = s
        .bench("grid_slice_6_cells_jobs1", || black_box(grid_slice(1)))
        .clone();
    let grid4 = s
        .bench("grid_slice_6_cells_jobs4", || black_box(grid_slice(4)))
        .clone();
    let grid_speedup = grid1.median_ns as f64 / grid4.median_ns as f64;
    println!("  -> grid speedup jobs4/jobs1: {grid_speedup:.2}x on {cores} core(s)");

    if cores >= 4 {
        // Loose bound: 4 workers over ≥ 4 independent replays should
        // roughly halve wall-clock even with probe-warm serial sections.
        assert!(
            replay_speedup >= 1.8,
            "expected >= 1.8x replay speedup with 4 workers on {cores} cores, got {replay_speedup:.2}x"
        );
    } else {
        println!("  -> speedup assertion skipped: only {cores} core(s) available");
    }

    // Speedup ratios are only meaningful when the host can actually run
    // two workers at once; testkit's shared helper records null (and the
    // note says why) on a 1-core host.
    let speedup_field = |ratio: f64| testkit::bench::speedup_or_null(cores, ratio);
    let note = if cores >= 2 {
        "speedups are wall-clock only; output is byte-identical at any worker count \
         (asserted above and in tests/parallel_determinism.rs)"
            .to_string()
    } else {
        format!(
            "{}; output is still byte-identical at any worker count (asserted above \
             and in tests/parallel_determinism.rs)",
            testkit::bench::suppressed_speedup_note("speedups")
        )
    };
    let n_policies = all_policies().len();
    let baseline = Value::obj(vec![
        ("suite", Value::str("parsweep-throughput")),
        ("host_parallelism", Value::from_u64(cores as u64)),
        ("desim_events_per_sec", Value::Num(events_per_sec.round())),
        ("desim_100k_events_median_ns", Value::from_u64(desim_stats.median_ns as u64)),
        ("cluster_replay_jobs1_median_ns", Value::from_u64(replay1.median_ns as u64)),
        ("cluster_replay_jobs1_workers", Value::from_u64(actual_workers(1, n_policies) as u64)),
        ("cluster_replay_jobs4_median_ns", Value::from_u64(replay4.median_ns as u64)),
        ("cluster_replay_jobs4_workers", Value::from_u64(actual_workers(4, n_policies) as u64)),
        ("cluster_replay_speedup", speedup_field(replay_speedup)),
        ("grid_slice_jobs1_median_ns", Value::from_u64(grid1.median_ns as u64)),
        ("grid_slice_jobs1_workers", Value::from_u64(actual_workers(1, grid_cells().len()) as u64)),
        ("grid_slice_jobs4_median_ns", Value::from_u64(grid4.median_ns as u64)),
        ("grid_slice_jobs4_workers", Value::from_u64(actual_workers(4, grid_cells().len()) as u64)),
        ("grid_slice_speedup", speedup_field(grid_speedup)),
        ("note", Value::str(note)),
    ])
    .emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parsweep.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_parsweep.json");
    println!("baseline written to BENCH_parsweep.json");
}
