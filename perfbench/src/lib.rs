//! `perfbench` — one benchmark for the composable-sim simulator.
//!
//! Three workloads drive the simulator's public library functions
//! in-process (see `README.md` for why each exists):
//!
//! * `paper_figs` — the paper's evaluation: Table IV and figs 9–16 through
//!   `bench::experiments` at `Scale::standard`.
//! * `pai_replay` — `scenarios/pai_magnitude.json` from a cold probe cache.
//! * `pai_contended` — a generated, contended PAI-mix scenario replayed
//!   under the five policy presets.
//!
//! An untraced run repeats its workload for `--seconds` and reports the
//! end-to-end metrics as medians over iterations (`setup_s` as described
//! at [`SETUP_SLICE_REPS`]). A traced run alternates untraced and traced
//! iterations, wraps spans around the benchmark's calls into each layer,
//! and reports the per-layer metrics. Every output is checked; a failed
//! check counts as a failed attempt.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod paper;
pub mod replay;
pub mod trace;

use desim::json::Value;
use metrics::{median, Values};
use std::time::Instant;
use trace::Tracer;

/// Workers every workload runs with: one process, two workers (the
/// parallelism of the 2-core hosts this benchmark was written on).
pub const WORKERS: usize = 2;

/// Fewest iterations (of each kind, in a traced run) a run measures,
/// however short `--seconds` is.
pub const MIN_ITERS: usize = 3;

/// Stand-alone cold set-ups an untraced run times after each of its
/// iterations: at least this many, for at least [`SETUP_SLICE_S`].
/// `setup_s` is the least of the slices' medians: the set-up time in the
/// run's quietest stretch. A shared host's speed shifts in phases of a few
/// seconds, so a slice of set-ups, unlike a whole iteration, sits in one
/// phase; the share of slow phases differs from run to run, and a median
/// over all slices would report that share rather than the set-up.
pub const SETUP_SLICE_REPS: usize = 3;
/// Host seconds of stand-alone set-ups after each untraced iteration;
/// short set-ups repeat more often.
pub const SETUP_SLICE_S: f64 = 0.05;

/// Repeats of each worker variant in a traced run; medians are reported.
/// Variants being compared alternate, so host drift hits them alike.
pub const VARIANT_REPEATS: usize = 3;

/// Worker counts for one replay: `sweep` fans whole replays (or figure
/// cells) across parsweep workers, `shard` is each replay's
/// `ClusterSim::with_workers` serving-shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workers {
    pub sweep: usize,
    pub shard: usize,
}

impl Workers {
    pub const MAIN: Workers = Workers {
        sweep: WORKERS,
        shard: WORKERS,
    };
}

/// One run of a whole workload from a cold start.
#[derive(Debug)]
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Host seconds of the simulating step the rates are taken over: the
    /// replays, or the figure experiments that hand their run reports back
    /// (the grid and Fig 9).
    pub sim_s: f64,
    pub trace_events: u64,
    pub sim_iters: u64,
    /// The canonical output bytes the checks compare.
    pub output: String,
    /// Structural checks on the output that need more than its bytes.
    pub verdict: Result<(), String>,
    /// Per-layer values (meaningful on traced iterations).
    pub layers: Vec<(&'static str, f64)>,
    pub paper_err_pct: Option<f64>,
}

/// Counts checked outputs; every failure is also reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {what}: {e}");
        }
    }
}

/// `Ok` iff `got` is byte-identical to `want`.
pub fn same_bytes(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(format!(
        "output differs from reference at byte {at} ({} vs {} bytes, fnv1a {:016x} vs {:016x})",
        got.len(),
        want.len(),
        host::fnv1a(got.as_bytes()),
        host::fnv1a(want.as_bytes())
    ))
}

pub trait Workload {
    /// Canonical bytes of the workload's inputs, hashed into the manifest.
    fn input_bytes(&self) -> String;

    /// One cold set-up, the step every iteration begins with: parse,
    /// validate, materialize and probe warm-up (replays); topology and
    /// model build (`paper_figs`).
    fn set_up(&self) -> Result<(), String>;

    /// Run the whole workload once from a cold start.
    fn iterate(&self, workers: Workers, tr: &mut Tracer) -> Result<Iteration, String>;

    /// Check one output against the workload's reference, where it has
    /// one (a golden file or a recorded digest).
    fn check(&self, output: &str) -> Result<(), String>;

    /// Traced-run measurements at other worker counts, each repeated
    /// [`VARIANT_REPEATS`] times. Every output they produce is checked
    /// byte-for-byte against `reference`.
    fn worker_variants(
        &self,
        reference: &str,
        values: &mut Values,
        checks: &mut Checks,
    ) -> Result<(), String>;

    /// Per-layer metrics this workload does not exercise; they print as 0.
    fn unexercised(&self) -> &'static [&'static str];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    PaperFigs,
    PaiReplay,
    PaiContended,
}

impl WorkloadName {
    pub fn parse(s: &str) -> Option<WorkloadName> {
        match s {
            "paper_figs" => Some(WorkloadName::PaperFigs),
            "pai_replay" => Some(WorkloadName::PaiReplay),
            "pai_contended" => Some(WorkloadName::PaiContended),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::PaperFigs => "paper_figs",
            WorkloadName::PaiReplay => "pai_replay",
            WorkloadName::PaiContended => "pai_contended",
        }
    }

    /// The seed a run uses when none is given: `pai_replay`'s makes the
    /// golden check apply; `pai_contended`'s is the one its shape was
    /// chosen at. `paper_figs` has no seeded input.
    pub fn default_seed(self) -> u64 {
        match self {
            WorkloadName::PaperFigs => 0,
            WorkloadName::PaiReplay => replay::PAI_GOLDEN_SEED,
            WorkloadName::PaiContended => replay::CONTENDED_DEFAULT_SEED,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run prints: a manifest line, then the result line.
#[derive(Debug)]
pub struct Outcome {
    pub manifest: Value,
    pub result: Value,
}

/// Run one workload for `opts.seconds` and measure it. `Err` means the
/// run could not start (a missing input file, an unreadable `/proc`).
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    parsweep::set_default_jobs(WORKERS);
    let wl: Box<dyn Workload> = match opts.workload {
        WorkloadName::PaperFigs => Box::new(paper::PaperFigs::new()?),
        WorkloadName::PaiReplay => Box::new(replay::Replay::pai_replay(opts.seed)?),
        WorkloadName::PaiContended => Box::new(replay::Replay::pai_contended(opts.seed)),
    };
    let mut checks = Checks::default();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut rollups = Vec::new();
    let mut first_output: Option<String> = None;
    let mut check = |it: &Iteration, checks: &mut Checks| {
        let reference = first_output.get_or_insert_with(|| it.output.clone());
        let verdict = it
            .verdict
            .clone()
            .and_then(|()| wl.check(&it.output))
            .and_then(|()| same_bytes(&it.output, reference));
        checks.record(
            &format!("{} iteration output", opts.workload.as_str()),
            verdict,
        );
    };
    let mut setups = Vec::new();
    let started = Instant::now();
    while plain.len() < MIN_ITERS || started.elapsed().as_secs_f64() < opts.seconds {
        match wl.iterate(Workers::MAIN, &mut Tracer::new(false)) {
            Ok(it) => {
                check(&it, &mut checks);
                plain.push(it);
            }
            Err(e) => checks.record("iteration", Err(e)),
        }
        if opts.trace {
            let mut tr = Tracer::new(true);
            match wl.iterate(Workers::MAIN, &mut tr) {
                Ok(it) => {
                    check(&it, &mut checks);
                    rollups.push(tr.rollup());
                    traced.push(it);
                }
                Err(e) => checks.record("traced iteration", Err(e)),
            }
        } else {
            setups.push(time_set_ups(wl.as_ref())?);
        }
        if plain.is_empty() && checks.attempted >= 2 * MIN_ITERS as u64 {
            return Err("every iteration failed".into());
        }
    }
    let peak_rss = host::peak_rss_mib()?;
    for (i, rows) in rollups.iter().enumerate() {
        for (name, count, total, own) in rows {
            eprintln!("[span {i}] {name:<24} x{count:<3} total {total:>9.4} s  self {own:>9.4} s");
        }
    }
    if plain.is_empty() || (opts.trace && traced.is_empty()) {
        return Err("no iteration completed".into());
    }

    let mut values = Values::default();
    let med = |its: &[Iteration], f: &dyn Fn(&Iteration) -> f64| {
        median(&its.iter().map(f).collect::<Vec<_>>())
    };
    if opts.trace {
        let layer_names: Vec<&'static str> = traced[0].layers.iter().map(|(n, _)| *n).collect();
        for name in layer_names {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|it| it.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            values.put(name, median(&samples));
        }
        let wall_plain = med(&plain, &|it| it.wall_s);
        let wall_traced = med(&traced, &|it| it.wall_s);
        values.put(
            "trace.overhead_pct",
            (wall_traced / wall_plain - 1.0) * 100.0,
        );
        wl.worker_variants(&traced[0].output, &mut values, &mut checks)?;
        layers::measure(&mut values)?;
        for name in wl.unexercised() {
            values.put(name, 0.0);
        }
    } else {
        values.put("wall_s", med(&plain, &|it| it.wall_s));
        values.put("cpu_s", med(&plain, &|it| it.cpu_s));
        values.put(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        );
        values.put(
            "trace_events_per_s",
            med(&plain, &|it| it.trace_events as f64 / it.sim_s),
        );
        values.put(
            "sim_iters_per_s",
            med(&plain, &|it| it.sim_iters as f64 / it.sim_s),
        );
        values.put("peak_rss_mib", peak_rss);
        let err = match plain[0].paper_err_pct {
            Some(e) => e,
            None => paper::model_error_pct()?,
        };
        values.put("paper_err_pct", err);
    }

    let manifest = Value::obj(vec![(
        "manifest",
        Value::obj(vec![
            ("workload", Value::str(opts.workload.as_str())),
            (
                "input_fnv1a",
                Value::str(format!("{:016x}", host::fnv1a(wl.input_bytes().as_bytes()))),
            ),
            ("seed", Value::from_u64(opts.seed)),
            ("workers", Value::from_u64(WORKERS as u64)),
            (
                "host_parallelism",
                Value::from_u64(host::parallelism() as u64),
            ),
            ("iterations", Value::from_u64(plain.len() as u64)),
            ("traced_iterations", Value::from_u64(traced.len() as u64)),
            ("traced", Value::Bool(opts.trace)),
        ]),
    )]);
    let result = Value::obj(vec![
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::from_u64(checks.attempted)),
        ("failed", Value::from_u64(checks.failed)),
        ("metrics", values.to_json(opts.trace)),
    ]);
    Ok(Outcome { manifest, result })
}

/// The median of one slice of stand-alone cold set-ups, each timed on its
/// own.
fn time_set_ups(wl: &dyn Workload) -> Result<f64, String> {
    let mut times = Vec::new();
    let slice = Instant::now();
    while times.len() < SETUP_SLICE_REPS || slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
        let t = Instant::now();
        wl.set_up()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}
