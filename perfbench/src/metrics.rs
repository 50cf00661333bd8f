//! The metric registry: every metric the benchmark can print, with its unit
//! and direction, and for each per-layer metric the end-to-end metric it
//! should move and the workload it should move it on. `BENCHMARK.json` at
//! the repository root declares the same set; `tests/self_check.rs` keeps
//! the two in step.

use desim::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// End-to-end metrics print on untraced runs, per-layer metrics on traced
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    /// A layer metric and the `(end-to-end metric, workload)` pairs it
    /// should move.
    PerLayer {
        moves: &'static [(&'static str, &'static str)],
    },
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer { moves },
    }
}

use Better::{Higher, Lower};

const TRAINING: &[(&str, &str)] = &[
    ("wall_s", "paper_figs"),
    ("setup_s", "pai_replay"),
    ("setup_s", "pai_contended"),
];
const REPLAY_WORKERS: &[(&str, &str)] = &[("wall_s", "pai_replay"), ("cpu_s", "pai_replay")];
const ALL_WALL: &[(&str, &str)] = &[
    ("wall_s", "paper_figs"),
    ("wall_s", "pai_replay"),
    ("wall_s", "pai_contended"),
];

/// Every metric, end-to-end first. Times are host time unless the name
/// says otherwise; `cluster.mean_queue_delay_s` and the ratios under
/// `cluster.`/`serve.` are simulated outcomes.
pub const METRICS: &[Metric] = &[
    e2e("wall_s", "s", Lower),
    e2e("cpu_s", "s", Lower),
    e2e("setup_s", "s", Lower),
    e2e("trace_events_per_s", "1/s", Higher),
    e2e("sim_iters_per_s", "1/s", Higher),
    e2e("peak_rss_mib", "MiB", Lower),
    e2e("paper_err_pct", "%", Lower),
    layer(
        "scenario.materialize_ms",
        "ms",
        Lower,
        &[("setup_s", "pai_replay")],
    ),
    layer(
        "probe.warm_s",
        "s",
        Lower,
        &[("setup_s", "pai_replay"), ("setup_s", "pai_contended")],
    ),
    layer(
        "probe.probes_run",
        "count",
        Lower,
        &[("setup_s", "pai_replay"), ("setup_s", "pai_contended")],
    ),
    layer(
        "probe.ms_per_probe",
        "ms",
        Lower,
        &[("setup_s", "pai_replay"), ("setup_s", "pai_contended")],
    ),
    layer(
        "probe.lazy_probes",
        "count",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer("training.run_job_s.mobilenetv2", "s", Lower, TRAINING),
    layer("training.run_job_s.resnet50", "s", Lower, TRAINING),
    layer("training.run_job_s.yolov5l", "s", Lower, TRAINING),
    layer("training.run_job_s.bert_base", "s", Lower, TRAINING),
    layer("training.run_job_s.bert_large", "s", Lower, TRAINING),
    layer("training.iters_per_s", "1/s", Higher, TRAINING),
    layer(
        "experiments.table4_s",
        "s",
        Lower,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "experiments.grid_s",
        "s",
        Lower,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "experiments.fig9_s",
        "s",
        Lower,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "experiments.fig15_s",
        "s",
        Lower,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "experiments.fig16_s",
        "s",
        Lower,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "fabric.reprices_per_s.flows8",
        "1/s",
        Higher,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "fabric.reprices_per_s.flows64",
        "1/s",
        Higher,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "collectives.ring_allreduce_per_s.gpus8",
        "1/s",
        Higher,
        &[("wall_s", "paper_figs")],
    ),
    layer(
        "desim.queue_ops_per_s",
        "1/s",
        Higher,
        &[("trace_events_per_s", "pai_replay")],
    ),
    layer("cluster.replay_s.w1", "s", Lower, REPLAY_WORKERS),
    layer("cluster.replay_s.w2", "s", Lower, REPLAY_WORKERS),
    layer("cluster.shard_speedup", "ratio", Higher, REPLAY_WORKERS),
    layer(
        "cluster.preemptions",
        "count",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "cluster.migrations",
        "count",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "cluster.evacuations",
        "count",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "cluster.shrunk_jobs",
        "count",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "falcon.audit_entries",
        "count",
        Lower,
        &[("wall_s", "pai_replay"), ("wall_s", "pai_contended")],
    ),
    layer(
        "serve.requests",
        "count",
        Higher,
        &[
            ("trace_events_per_s", "pai_replay"),
            ("trace_events_per_s", "pai_contended"),
        ],
    ),
    layer(
        "cluster.mean_queue_delay_s",
        "s",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "cluster.gpu_util",
        "ratio",
        Higher,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "cluster.frag_share",
        "ratio",
        Lower,
        &[("wall_s", "pai_contended")],
    ),
    layer(
        "serve.attainment",
        "ratio",
        Higher,
        &[("wall_s", "pai_replay")],
    ),
    layer(
        "parsweep.fanout_speedup",
        "ratio",
        Higher,
        &[("wall_s", "pai_contended")],
    ),
    layer("report.emit_ms", "ms", Lower, ALL_WALL),
    layer("trace.overhead_pct", "%", Lower, ALL_WALL),
];

/// The workloads a per-layer metric may name.
pub const WORKLOADS: [&str; 3] = ["paper_figs", "pai_replay", "pai_contended"];

pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values one run reports. Only registered names are accepted, so a
/// printed metric is declared by construction.
#[derive(Debug, Default)]
pub struct Values {
    set: Vec<(&'static Metric, f64)>,
}

impl Values {
    /// Record `value` under `name`; a later call for the same name
    /// replaces it.
    ///
    /// # Panics
    /// Panics if `name` is not in [`METRICS`] — a bug in this benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let m = lookup(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        match self.set.iter_mut().find(|(k, _)| k.name == name) {
            Some(slot) => slot.1 = value,
            None => self.set.push((m, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.set
            .iter()
            .find(|(k, _)| k.name == name)
            .map(|&(_, v)| v)
    }

    /// Every metric of the wanted kind, in registry order, as the
    /// `metrics` object of the result line.
    ///
    /// # Panics
    /// Panics if one of them was never recorded — a bug in this benchmark.
    pub fn to_json(&self, per_layer: bool) -> Value {
        let fields = METRICS
            .iter()
            .filter(|m| matches!(m.kind, Kind::PerLayer { .. }) == per_layer)
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                (
                    m.name,
                    Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
                )
            })
            .collect();
        Value::obj(fields)
    }
}

/// The median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
