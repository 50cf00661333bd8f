//! Direct loops over single layers' public calls, run in every traced run
//! whatever the workload: `fabric` max-min repricing, a `collectives` ring
//! allreduce, the `desim` event queue, and one `training::run_job` per
//! paper benchmark. Each loop repeats rounds for a fixed host-time budget
//! and reports the median round.

use crate::metrics::{median, Values};
use composable_core::HostConfig;
use desim::{EventQueue, Sim, SimTime};
use dlmodels::Benchmark;
use fabric::flow::FlowCallback;
use fabric::{FabricState, FlowTag, FlowWorld, NodeId, Topology};
use std::hint::black_box;
use std::time::Instant;
use training::{max_feasible_batch, run_job, JobConfig};

/// Host seconds each loop keeps repeating rounds for.
const LOOP_BUDGET_S: f64 = 0.25;
/// Fewest rounds a loop measures.
const MIN_ROUNDS: usize = 5;
/// Bytes per fabric flow.
const FLOW_BYTES: f64 = 64e6;
/// Bytes per allreduce.
const ALLREDUCE_BYTES: f64 = 100e6;
/// Pending events the queue holds: one per `pai_replay` training job.
const QUEUE_DEPTH: usize = 10_000;
/// Hold operations (a pop and a push each) per queue round.
const QUEUE_HOLDS: usize = 100_000;
/// Iterations per `run_job` call.
const JOB_ITERS: u64 = 10;

/// Median seconds of `round` over at least [`MIN_ROUNDS`] rounds and
/// [`LOOP_BUDGET_S`] host seconds.
fn median_round(mut round: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < LOOP_BUDGET_S {
        let t = Instant::now();
        round();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

struct FlowBench {
    fabric: FabricState<FlowBench>,
    done: usize,
}

impl FlowWorld for FlowBench {
    fn fabric(&mut self) -> &mut FabricState<FlowBench> {
        &mut self.fabric
    }
}

fn count_done() -> FlowCallback<FlowBench> {
    Box::new(|w: &mut FlowBench, _| w.done += 1)
}

/// The falconGPUs composition: the paper's eight pooled V100s behind the
/// Falcon 4016 switches.
fn falcon_gpus() -> (Topology, Vec<NodeId>) {
    let composed = composable_core::build_config(HostConfig::FalconGpus);
    let gpus = composed.cluster.gpus.iter().map(|g| g.core).collect();
    (composed.topology, gpus)
}

/// Max-min reprices per second with `flows` concurrent flows among the
/// falconGPUs: each flow's activation and completion re-solves the
/// allocation once.
fn fabric_reprices_per_s(topo: &Topology, gpus: &[NodeId], flows: usize) -> f64 {
    let secs = median_round(|| {
        let mut w = FlowBench {
            fabric: FabricState::new(topo.clone()),
            done: 0,
        };
        let mut sim: Sim<FlowBench> = Sim::new();
        for k in 0..flows {
            let n = gpus.len();
            let (src, dst) = (gpus[k % n], gpus[(k + 1 + (k / n) % (n - 1)) % n]);
            w.fabric.start_flow(
                &mut sim,
                src,
                dst,
                FLOW_BYTES,
                FlowTag::UNTAGGED,
                count_done(),
            );
        }
        sim.run(&mut w);
        assert_eq!(w.done, flows, "every flow completes");
    });
    2.0 * flows as f64 / secs
}

/// Ring allreduces per second across the eight falconGPUs.
fn ring_allreduces_per_s(topo: &Topology, gpus: &[NodeId]) -> f64 {
    let mut planned = topo.clone();
    let ring = collectives::plan_ring(&mut planned, gpus);
    const PER_ROUND: usize = 20;
    let secs = median_round(|| {
        let mut w = FlowBench {
            fabric: FabricState::new(planned.clone()),
            done: 0,
        };
        let mut sim: Sim<FlowBench> = Sim::new();
        for _ in 0..PER_ROUND {
            collectives::ring_allreduce(
                &mut w,
                &mut sim,
                &ring,
                ALLREDUCE_BYTES,
                FlowTag::UNTAGGED,
                count_done(),
            );
            sim.run(&mut w);
        }
        assert_eq!(w.done, PER_ROUND, "every allreduce completes");
    });
    PER_ROUND as f64 / secs
}

/// Event-queue operations per second in the hold model: the queue stays
/// [`QUEUE_DEPTH`] deep while each step pops the earliest event and pushes
/// one later.
fn queue_ops_per_s() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..QUEUE_DEPTH as u64 {
        q.push(SimTime::from_nanos(next() % 1_000_000_000), i);
    }
    let secs = median_round(|| {
        for _ in 0..QUEUE_HOLDS {
            let (t, v) = q.pop().expect("the hold model never drains the queue");
            q.push(
                SimTime::from_nanos(t.as_nanos() + 1 + next() % 1_000_000_000),
                v,
            );
        }
        black_box(q.len());
    });
    2.0 * QUEUE_HOLDS as f64 / secs
}

/// Metric-name suffix of each paper benchmark.
fn suffix(b: Benchmark) -> &'static str {
    match b {
        Benchmark::MobileNetV2 => "mobilenetv2",
        Benchmark::ResNet50 => "resnet50",
        Benchmark::YoloV5L => "yolov5l",
        Benchmark::BertBase => "bert_base",
        Benchmark::BertLarge => "bert_large",
    }
}

/// Median seconds of one `training::run_job` of `b` on the falconGPUs
/// ([`JOB_ITERS`] iterations, batch clamped to fit), and the iterations
/// each call simulated.
fn run_job_s(b: Benchmark) -> Result<(f64, u64), String> {
    let composed = composable_core::build_config(HostConfig::FalconGpus);
    let n = composed.cluster.n_gpus();
    let mut cfg = JobConfig::paper_scaled(b, n, JOB_ITERS);
    cfg.epochs = 1;
    cfg.checkpoint_each_epoch = false;
    let model = training::engine::model_for(b);
    let memory = composed.cluster.gpus[0].spec.memory_bytes;
    let fit = max_feasible_batch(&model, memory, cfg.precision, cfg.strategy, n);
    cfg.per_gpu_batch = cfg.per_gpu_batch.min(fit).max(1);
    let mut iterations = 0;
    let mut failure = None;
    let secs = median_round(|| {
        match run_job(
            composed.topology.clone(),
            composed.cluster.clone(),
            cfg.clone(),
        ) {
            Ok(r) => iterations = r.iterations,
            Err(e) => failure = Some(format!("run_job {}: {e:?}", b.label())),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((secs, iterations)),
    }
}

/// Measure every direct layer loop into `values`.
pub fn measure(values: &mut Values) -> Result<(), String> {
    let (topo, gpus) = falcon_gpus();
    values.put(
        "fabric.reprices_per_s.flows8",
        fabric_reprices_per_s(&topo, &gpus, 8),
    );
    values.put(
        "fabric.reprices_per_s.flows64",
        fabric_reprices_per_s(&topo, &gpus, 64),
    );
    values.put(
        "collectives.ring_allreduce_per_s.gpus8",
        ring_allreduces_per_s(&topo, &gpus),
    );
    values.put("desim.queue_ops_per_s", queue_ops_per_s());
    let (mut secs, mut iters) = (0.0, 0);
    for b in Benchmark::all() {
        let (s, i) = run_job_s(b)?;
        values.put(&format!("training.run_job_s.{}", suffix(b)), s);
        secs += s;
        iters += i;
    }
    values.put("training.iters_per_s", iters as f64 / secs);
    Ok(())
}
