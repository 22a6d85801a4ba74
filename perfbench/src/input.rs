//! Workload inputs: `oc-trace` cell-preset machines flattened into the
//! per-tick `OBSERVE` samples a node agent would push.

use oc_core::config::SimConfig;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{MachineId, TaskId};
use oc_trace::time::Tick;
use oc_trace::MachineTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub task: TaskId,
    pub usage: f64,
    pub limit: f64,
}

/// One machine's samples, tick-major; within a tick in trace task order
/// (the order `simulate_machine` feeds its view).
#[derive(Debug, Clone)]
pub struct MachineStream {
    pub machine: MachineId,
    pub first_tick: u64,
    samples: Vec<Sample>,
    /// `samples[tick_start[i]..tick_start[i + 1]]` belong to tick
    /// `first_tick + i`.
    tick_start: Vec<u32>,
    /// Limits of the tasks that start at each tick (task arrivals).
    arrivals: Vec<Vec<f64>>,
}

impl MachineStream {
    pub fn ticks(&self) -> u64 {
        (self.tick_start.len() - 1) as u64
    }

    /// Samples of the `i`-th tick of the stream.
    pub fn tick(&self, i: u64) -> &[Sample] {
        let i = i as usize;
        &self.samples[self.tick_start[i] as usize..self.tick_start[i + 1] as usize]
    }

    /// Limits of the tasks that arrive in the `i`-th tick.
    pub fn arrivals(&self, i: u64) -> &[f64] {
        &self.arrivals[i as usize]
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// Preset A reshaped to `machines` × `ticks`, seeded from the run seed.
pub fn preset_a(seed: u64, machines: usize, ticks: u64) -> CellConfig {
    let mut cfg = CellConfig::preset(CellPreset::A)
        .with_machines(machines)
        .with_seed(0xA0001 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    cfg.duration_ticks = ticks;
    cfg
}

/// Nanoseconds spent in `WorkloadGenerator::generate_machine` by
/// [`streams`], and the machine-ticks it generated.
static GEN_NS: AtomicU64 = AtomicU64::new(0);
static GEN_MACHINE_TICKS: AtomicU64 = AtomicU64::new(0);

/// Mean generator time per machine-tick over every [`streams`] call of
/// this process so far.
pub fn gen_ns_per_machine_tick() -> f64 {
    GEN_NS.load(Ordering::Relaxed) as f64 / GEN_MACHINE_TICKS.load(Ordering::Relaxed).max(1) as f64
}

/// Flattens one generated machine into its stream.
pub fn stream_of(trace: &MachineTrace) -> MachineStream {
    let metric = SimConfig::default().metric;
    let mut samples = Vec::new();
    let mut tick_start = vec![0u32];
    let mut arrivals = Vec::new();
    for t in trace.horizon.iter() {
        let mut arriving = Vec::new();
        for task in trace.tasks_at(t) {
            let usage = task.sample_at(t).map(|s| metric.of(s)).unwrap_or(0.0);
            samples.push(Sample {
                task: task.spec.id,
                usage,
                limit: task.spec.limit,
            });
            if task.spec.start == t {
                arriving.push(task.spec.limit);
            }
        }
        tick_start.push(samples.len() as u32);
        arrivals.push(arriving);
    }
    MachineStream {
        machine: trace.machine,
        first_tick: trace.horizon.start.0,
        samples,
        tick_start,
        arrivals,
    }
}

/// Generates every machine of `cfg` and flattens it into streams, on
/// `threads` threads. Machine `i` of the result is `MachineId(i)`.
pub fn streams(cfg: &CellConfig, threads: usize) -> Vec<MachineStream> {
    let gen = WorkloadGenerator::new(cfg.clone()).expect("preset cell configs are valid");
    let n = cfg.machines;
    let mut out: Vec<Option<MachineStream>> = vec![None; n];
    let chunks: Vec<&mut [Option<MachineStream>]> =
        out.chunks_mut(n.div_ceil(threads.max(1))).collect();
    std::thread::scope(|s| {
        let mut base = 0;
        for chunk in chunks {
            let len = chunk.len();
            let gen = &gen;
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let t0 = Instant::now();
                    let trace = gen
                        .generate_machine(MachineId((base + j) as u32))
                        .expect("generator output for a valid config");
                    GEN_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    GEN_MACHINE_TICKS.fetch_add(trace.horizon.len(), Ordering::Relaxed);
                    *slot = Some(stream_of(&trace));
                }
            });
            base += len;
        }
    });
    out.into_iter()
        .map(|m| m.expect("every machine slot was filled"))
        .collect()
}

/// The tick number of the `i`-th tick of `m`'s stream.
pub fn tick_of(m: &MachineStream, i: u64) -> Tick {
    Tick(m.first_tick + i)
}
