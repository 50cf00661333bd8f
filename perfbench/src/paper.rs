//! `paper_figs`: the paper's evaluation — Table IV and figs 9–16 through
//! `bench::experiments` at `Scale::standard`. It exercises `training`,
//! `fabric`, `collectives` and `desim`, and never the scheduler. Its input
//! is the paper's fixed configuration, so `--seed` does not change it, and
//! its output must match a digest recorded under `expected/`.

use crate::host::{fnv1a, Stopwatch};
use crate::metrics::{median, Values};
use crate::trace::Tracer;
use crate::{same_bytes, Checks, Iteration, Workers, Workload, VARIANT_REPEATS, WORKERS};
use bench::experiments::{self, GridCell, Scale};
use bench::paper;
use composable_core::HostConfig;
use desim::json::ToJson;
use dlmodels::Benchmark;
use fabric::microbench::P2pResult;
use std::hint::black_box;
use std::time::Instant;

/// FNV-1a of the canonical `paper_figs` output. A change to the model
/// moves it on purpose: check the new figures, then record the digest the
/// failed check prints.
const EXPECTED_DIGEST: &str = include_str!("../expected/paper_figs.fnv1a");

pub struct PaperFigs {
    expected: u64,
}

impl PaperFigs {
    pub fn new() -> Result<PaperFigs, String> {
        let expected = u64::from_str_radix(EXPECTED_DIGEST.trim(), 16)
            .map_err(|e| format!("expected/paper_figs.fnv1a: {e}"))?;
        Ok(PaperFigs { expected })
    }
}

/// Every figure's rows, as the experiments return them.
struct Figures {
    table4: [(&'static str, P2pResult); 3],
    grid: Vec<GridCell>,
    fig9: Vec<(Benchmark, training::RunReport)>,
    fig15: Vec<(Benchmark, HostConfig, f64)>,
    fig16: Vec<experiments::Fig16Row>,
    /// Host seconds of the grid and Fig 9: the experiments that hand their
    /// run reports, and so their iteration counts, back.
    reported_s: f64,
}

/// Build every host configuration's topology and every paper model.
fn build_inputs() {
    for c in HostConfig::all() {
        black_box(composable_core::build_config(c));
    }
    black_box(dlmodels::paper_benchmarks());
}

fn run_figures(tr: &mut Tracer) -> Figures {
    let scale = Scale::standard();
    let table4 = tr.span("experiments.table4", |_| experiments::table4_measured());
    let reported = Instant::now();
    let grid = tr.span("experiments.grid", |_| experiments::grid(scale));
    let fig9 = tr.span("experiments.fig9", |_| experiments::fig9(scale));
    let reported_s = reported.elapsed().as_secs_f64();
    let fig15 = tr.span("experiments.fig15", |_| experiments::fig15(scale));
    let fig16 = tr.span("experiments.fig16", |_| experiments::fig16(scale));
    Figures {
        table4,
        grid,
        fig9,
        fig15,
        fig16,
        reported_s,
    }
}

/// The canonical output: every row of every figure. Run reports emit
/// through their own JSON form; the other rows through `Debug`, whose
/// floats round-trip exactly.
fn render(f: &Figures) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    for (label, r) in &f.table4 {
        line(format!("table4 {label} {r:?}"));
    }
    for c in &f.grid {
        line(format!(
            "grid {:?} {} {}",
            c.benchmark,
            c.config.label(),
            c.report.to_json().emit()
        ));
    }
    for row in experiments::fig10(&f.grid) {
        line(format!("fig10 {row:?}"));
    }
    for row in experiments::fig11(&f.grid) {
        line(format!("fig11 {row:?}"));
    }
    for row in experiments::fig12(&f.grid) {
        line(format!("fig12 {row:?}"));
    }
    for row in experiments::fig13(&f.grid) {
        line(format!("fig13 {row:?}"));
    }
    for row in experiments::fig14(&f.grid) {
        line(format!("fig14 {row:?}"));
    }
    for (b, r) in &f.fig9 {
        line(format!("fig9 {b:?} {}", r.to_json().emit()));
    }
    for row in &f.fig15 {
        line(format!("fig15 {row:?}"));
    }
    for row in &f.fig16 {
        line(format!("fig16 {row:?}"));
    }
    out
}

/// Mean relative error, in percent, of the simulated Table IV (bandwidth
/// and latency of each GPU pair) and Fig 12 (falconGPUs PCIe traffic,
/// where the paper quotes a number) against the paper's references.
fn error_pct(
    table4: &[(&'static str, P2pResult); 3],
    fig12: &[(Benchmark, HostConfig, f64)],
) -> f64 {
    let rel = |sim: f64, paper: f64| (sim - paper).abs() / paper;
    let mut errs = Vec::new();
    for ((_, m), (_, bw, lat, _)) in table4.iter().zip(paper::table4()) {
        errs.push(rel(m.bidir_bandwidth / 1e9, bw));
        errs.push(rel(m.latency.as_micros_f64(), lat));
    }
    for &(b, c, rate) in fig12 {
        if c == HostConfig::FalconGpus {
            if let Some(reference) = paper::fig12_traffic(b) {
                errs.push(rel(rate / 1e9, reference));
            }
        }
    }
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// [`error_pct`] of the model as it stands, for workloads that do not run
/// the figures themselves: Table IV, and only the falconGPUs grid cells
/// Fig 12 quotes (`composable_core::run` is exactly a grid cell).
pub fn model_error_pct() -> Result<f64, String> {
    let opts = Scale::standard().opts();
    let mut fig12 = Vec::new();
    for b in Benchmark::all() {
        if paper::fig12_traffic(b).is_some() {
            let r = composable_core::run(b, HostConfig::FalconGpus, &opts)
                .map_err(|e| format!("{} on falconGPUs: {e:?}", b.label()))?;
            fig12.push((b, HostConfig::FalconGpus, r.falcon_pcie_rate));
        }
    }
    Ok(error_pct(&experiments::table4_measured(), &fig12))
}

impl Workload for PaperFigs {
    fn input_bytes(&self) -> String {
        format!(
            "paper_figs table4 grid fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 {:?}",
            Scale::standard()
        )
    }

    fn set_up(&self) -> Result<(), String> {
        build_inputs();
        Ok(())
    }

    fn iterate(&self, w: Workers, tr: &mut Tracer) -> Result<Iteration, String> {
        parsweep::set_default_jobs(w.sweep);
        let clock = Stopwatch::start()?;
        tr.span("setup.build", |_| build_inputs());
        let figures = run_figures(tr);
        let output = tr.span("report.emit", |_| render(&figures));
        let wall_s = clock.wall_s();
        let cpu_s = clock.cpu_s()?;
        parsweep::set_default_jobs(WORKERS);

        // Simulated iterations and trace events are counted over the grid
        // and Fig 9 runs, per host second of those runs. A run's trace
        // events are its iterations plus its start and finish.
        let runs: Vec<&training::RunReport> = figures
            .grid
            .iter()
            .map(|c| &c.report)
            .chain(figures.fig9.iter().map(|(_, r)| r))
            .collect();
        let sim_iters: u64 = runs.iter().map(|r| r.iterations).sum();
        let layers = vec![
            ("experiments.table4_s", tr.total("experiments.table4")),
            ("experiments.grid_s", tr.total("experiments.grid")),
            ("experiments.fig9_s", tr.total("experiments.fig9")),
            ("experiments.fig15_s", tr.total("experiments.fig15")),
            ("experiments.fig16_s", tr.total("experiments.fig16")),
            ("report.emit_ms", tr.total("report.emit") * 1e3),
        ];
        Ok(Iteration {
            wall_s,
            cpu_s,
            sim_s: figures.reported_s,
            trace_events: sim_iters + 2 * runs.len() as u64,
            sim_iters,
            paper_err_pct: Some(error_pct(
                &figures.table4,
                &experiments::fig12(&figures.grid),
            )),
            output,
            verdict: Ok(()),
            layers,
        })
    }

    fn check(&self, output: &str) -> Result<(), String> {
        let got = fnv1a(output.as_bytes());
        if got == self.expected {
            Ok(())
        } else {
            Err(format!(
                "output digest {got:016x}, expected {:016x}",
                self.expected
            ))
        }
    }

    fn worker_variants(
        &self,
        reference: &str,
        values: &mut Values,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let mut serial = Vec::new();
        let mut fanned = Vec::new();
        for _ in 0..VARIANT_REPEATS {
            for (w, times) in [(1, &mut serial), (WORKERS, &mut fanned)] {
                let it = self.iterate(Workers { sweep: w, shard: w }, &mut Tracer::new(false))?;
                checks.record(
                    &format!("paper_figs at {w} workers"),
                    same_bytes(&it.output, reference),
                );
                times.push(it.sim_s);
            }
        }
        values.put("parsweep.fanout_speedup", median(&serial) / median(&fanned));
        Ok(())
    }

    fn unexercised(&self) -> &'static [&'static str] {
        &[
            "scenario.materialize_ms",
            "probe.warm_s",
            "probe.probes_run",
            "probe.ms_per_probe",
            "probe.lazy_probes",
            "cluster.replay_s.w1",
            "cluster.replay_s.w2",
            "cluster.shard_speedup",
            "cluster.preemptions",
            "cluster.migrations",
            "cluster.evacuations",
            "cluster.shrunk_jobs",
            "falcon.audit_entries",
            "serve.requests",
            "cluster.mean_queue_delay_s",
            "cluster.gpu_util",
            "cluster.frag_share",
            "serve.attainment",
        ]
    }
}
