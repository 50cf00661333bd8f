//! Cluster-scheduler benches (testkit harness): timing for a full trace
//! replay, plus directional assertions that make `cargo bench` document
//! *why* the smarter policies exist — on the seeded two-tenant trace, a
//! placement policy that respects the chassis topology must beat naive
//! FIFO first-fit on mean job-completion time.

use scheduler::{
    all_policies, compare_policies_faulty, paper_fault_plan, run_scenario, trace, ProbeCache,
    RackTopology, Scenario, SchedulerConfig, ScheduleReport, TraceSpec, POLICY_NAMES,
};
use testkit::bench::{black_box, BenchOpts, Suite};

fn replay_all(n_jobs: usize, seed: u64) -> Vec<ScheduleReport> {
    let t = trace::seeded_two_tenant(n_jobs, seed);
    let presets = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    let sc = Scenario::new("cluster", TraceSpec::Jobs { name: t.name, jobs: t.jobs }, presets);
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    run_scenario(&sc, parsweep::default_jobs(), &mut cache)
        .expect("trace drains under every policy")
        .reports
}

fn main() {
    let mut s = Suite::with_opts(
        "cluster",
        BenchOpts {
            warmup_iters: 1,
            iters: 5,
        },
    );

    s.bench("cluster_replay_20_jobs_4_policies", || {
        let reports = replay_all(20, 0xC10D);
        assert_eq!(reports.len(), 4);
        black_box(reports)
    });

    s.bench("cluster_policy_beats_fifo_on_mean_jct", || {
        let reports = replay_all(20, 0xC10D);
        let jct = |name: &str| {
            reports
                .iter()
                .find(|r| r.policy == name)
                .expect("policy ran")
                .mean_jct
                .as_secs_f64()
        };
        let fifo = jct("fifo-first-fit");
        let smart = jct("frag-aware").min(jct("topology-aware"));
        assert!(
            smart < fifo,
            "topology-respecting placement must beat FIFO first-fit: smart {smart:.2}s vs fifo {fifo:.2}s"
        );
        black_box((fifo, smart))
    });

    s.bench("cluster_topology_packing_recovers_faster_from_faults", || {
        let cfg = SchedulerConfig::default();
        let mut cache = ProbeCache::new(cfg.probe_iters);
        let pairs = compare_policies_faulty(
            RackTopology::SINGLE,
            &trace::seeded_two_tenant(20, 0xC10D),
            all_policies(),
            &paper_fault_plan(),
            &cfg,
            4,
            &mut cache,
        )
        .expect("faulty trace drains under every policy");
        let recovery = |name: &str| {
            pairs
                .iter()
                .map(|(_, f)| f)
                .find(|f| f.policy == name)
                .expect("policy ran")
                .recovery
                .as_ref()
                .expect("faulty replay carries recovery metrics")
                .mean_recovery
                .as_secs_f64()
        };
        let fifo = recovery("fifo-first-fit");
        let smart = recovery("frag-aware").min(recovery("topology-aware"));
        // First-fit's drawer-spanning gangs straddle the struck drawer, so
        // it loses more jobs to the outage and queues longer to re-place
        // them; single-drawer packers contain the blast radius.
        assert!(
            smart < fifo,
            "topology-respecting packing must recover faster: smart {smart:.2}s vs fifo {fifo:.2}s"
        );
        black_box((fifo, smart))
    });

    s.bench("cluster_fragmentation_visible_under_first_fit", || {
        let reports = replay_all(20, 0xC10D);
        let share = |name: &str| {
            reports
                .iter()
                .find(|r| r.policy == name)
                .expect("policy ran")
                .frag_share
        };
        // FIFO first-fit splits jobs across drawers; frag-aware never does.
        assert_eq!(share("frag-aware"), 0.0, "frag-aware must never split");
        assert!(
            share("fifo-first-fit") > 0.0,
            "the seeded trace must fragment under first-fit or the comparison is vacuous"
        );
        black_box(())
    });
}
