//! Golden-table regression tests: the paper's headline tables, one full
//! (scaled) run report and figs 9–16 at quick scale are rendered and
//! compared against checked-in snapshots under `crates/bench/golden/`.
//!
//! The producing pipelines are fully deterministic (fixed seed, discrete
//! event simulation, no wall-clock), so the snapshots change only when
//! the model changes. When a change is intended:
//!
//! ```text
//! TESTKIT_BLESS=1 cargo test -p bench --test golden_tables
//! git diff crates/bench/golden/   # review, then commit
//! ```

use bench::experiments::{self, table2_measured, table4_measured, Scale};
use composable_core::runner::{run, ExperimentOpts};
use composable_core::HostConfig;
use desim::json::{ToJson, Value};
use dlmodels::Benchmark;
use scheduler::policy::FifoFirstFit;
use scheduler::{
    paper_fault_plan, seeded_pai_mix, trace, ClusterSim, SchedulerConfig, SloAwarePack,
};
use testkit::check_golden;

fn golden(name: &str) -> String {
    format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Table II: per-benchmark parameter counts and depths.
#[test]
fn golden_table2() {
    let rows: Vec<Value> = table2_measured()
        .into_iter()
        .map(|(label, params, derived, reported)| {
            Value::obj(vec![
                ("benchmark", Value::str(label)),
                ("params", Value::from_u64(params)),
                ("derived_depth", Value::from_u64(u64::from(derived))),
                ("reported_depth", Value::from_u64(u64::from(reported))),
            ])
        })
        .collect();
    check_golden(golden("table2.json"), &Value::Arr(rows).emit_pretty());
}

/// Table IV: the three GPU-pair classes probed on the hybrid composition.
#[test]
fn golden_table4() {
    let rows: Vec<Value> = table4_measured()
        .into_iter()
        .map(|(pair, p2p)| {
            Value::obj(vec![
                ("pair", Value::str(pair)),
                ("latency_ns", Value::from_u64(p2p.latency.as_nanos())),
                ("unidir_gbps", Value::Num(p2p.unidir_bandwidth / 1e9)),
                ("bidir_gbps", Value::Num(p2p.bidir_bandwidth / 1e9)),
            ])
        })
        .collect();
    check_golden(golden("table4.json"), &Value::Arr(rows).emit_pretty());
}

/// The `repro cluster` trace (20 jobs, two tenants, seed 0xC10D) replayed
/// under FIFO first-fit: freezes the scheduler's entire report surface —
/// per-job lifecycles, placement spans, utilization, fairness, audit
/// volume — against drift in the trace generator, the probe pricing, or
/// the event loop.
#[test]
fn golden_cluster_fifo() {
    let report = ClusterSim::new(
        trace::seeded_two_tenant(20, 0xC10D),
        Box::new(FifoFirstFit),
        SchedulerConfig::default(),
    )
    .expect("valid trace")
    .run()
    .expect("trace drains");
    check_golden(golden("cluster_fifo.json"), &report.to_json_string());
}

/// The same seeded 20-job trace replayed under FIFO first-fit with the
/// pinned 3-event `paper_fault_plan` injected: freezes the fault path
/// end to end — strike/heal ordering, BMC thermal evacuation, displaced
/// re-placement, checkpoint rollback, degraded probe pricing, and the
/// serialized recovery-metrics block.
#[test]
fn golden_cluster_faults() {
    let report = ClusterSim::new(
        trace::seeded_two_tenant(20, 0xC10D),
        Box::new(FifoFirstFit),
        SchedulerConfig::default(),
    )
    .expect("valid trace")
    .with_faults(paper_fault_plan())
    .expect("valid plan")
    .run()
    .expect("faulty trace drains");
    let recovery = report.recovery.as_ref().expect("recovery block present");
    assert!(recovery.evacuations > 0, "the pinned plan must displace jobs");
    check_golden(golden("cluster_faults.json"), &report.to_json_string());
}

/// The `repro serve` mixed trace (16 training jobs + 8 latency-SLO
/// services, seed 0xC10D) replayed under slo-aware-pack: freezes the
/// serving subsystem's whole report surface — per-service SLO attainment,
/// latency percentiles, replica GPU-seconds, autoscale/failover counts —
/// alongside the training-side metrics it is co-scheduled with.
#[test]
fn golden_cluster_serve() {
    let report = ClusterSim::new_mixed(
        seeded_pai_mix(16, 8, 0xC10D),
        Box::new(SloAwarePack),
        SchedulerConfig::default(),
    )
    .expect("valid mixed trace")
    .run()
    .expect("mixed trace drains");
    let serve = report.serve.as_ref().expect("serve block present");
    assert!(serve.attainment >= 0.95, "pack must meet SLOs on the pinned mix");
    check_golden(golden("cluster_serve.json"), &report.to_json_string());
}

/// One full (scaled) MobileNetV2 run on localGPUs under a pinned seed:
/// freezes the entire report surface — iteration timing, utilizations,
/// traffic — against accidental model drift.
#[test]
fn golden_quick_run_mobilenet() {
    let mut opts = ExperimentOpts::scaled(4).without_checkpoints();
    opts.seed = 7;
    let r = run(Benchmark::MobileNetV2, HostConfig::LocalGpus, &opts).unwrap();
    let pretty = Value::parse(&r.to_json_string()).unwrap().emit_pretty();
    check_golden(golden("quick_run_mobilenet.json"), &pretty);
}

/// Figs 9–16 at `Scale::quick()`: every grid and Fig 9 run report as
/// JSON, and every derived row (Figs 10–16) through `Debug`, whose floats
/// round-trip exactly. Freezes the training engine and the fabric solver
/// beneath it bit for bit across every paper topology.
#[test]
fn golden_quick_figs() {
    let scale = Scale::quick();
    let grid = experiments::grid(scale);
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    for c in &grid {
        let (benchmark, config, report) = (c.benchmark, c.config.label(), c.report.to_json());
        line(format!("grid {benchmark:?} {config} {}", report.emit()));
    }
    for row in experiments::fig10(&grid) {
        line(format!("fig10 {row:?}"));
    }
    for row in experiments::fig11(&grid) {
        line(format!("fig11 {row:?}"));
    }
    for row in experiments::fig12(&grid) {
        line(format!("fig12 {row:?}"));
    }
    for row in experiments::fig13(&grid) {
        line(format!("fig13 {row:?}"));
    }
    for row in experiments::fig14(&grid) {
        line(format!("fig14 {row:?}"));
    }
    for (b, r) in experiments::fig9(scale) {
        line(format!("fig9 {b:?} {}", r.to_json().emit()));
    }
    for row in experiments::fig15(scale) {
        line(format!("fig15 {row:?}"));
    }
    for row in experiments::fig16(scale) {
        line(format!("fig16 {row:?}"));
    }
    check_golden(golden("quick_figs.txt"), &out);
}
