//! `sim-cell`: the paper's §5 pipeline on cell preset A at full scale
//! (100 machines × one week) with the four-policy comparison set.
//!
//! The untraced run alternates, for the run's duration, between
//! `run_cell_streaming` on two threads and the benchmark's replica of its
//! fan-out, which times each machine. The traced run replays the same
//! fan-out with one span per `generate_machine` and `simulate_machine`
//! call, then replays the per-tick simulation loop of a sample of
//! machines with one span per `machine_oracle`, `MachineView::observe`
//! and predictor call.

use crate::input::{preset_a, stream_of};
use crate::layers::{self, observe_req, predict_req, PREDICTOR_SPANS};
use crate::procfs;
use crate::report::{median, quantile, quiet_cost, quiet_rate, Report};
use crate::span::Tracer;
use crate::Args;
use oc_core::config::SimConfig;
use oc_core::metrics::{MachineReport, SimResult};
use oc_core::oracle::machine_oracle;
use oc_core::predictor::{PeakPredictor, PredictorSpec};
use oc_core::runner::run_cell_streaming;
use oc_core::sim::simulate_machine;
use oc_core::view::MachineView;
use oc_trace::cell::CellConfig;
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, MachineId};
use oc_trace::MachineTrace;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const MACHINES: usize = 100;
const TICKS: u64 = 7 * 288;
const THREADS: usize = 2;
/// Every `CHECK_STRIDE`-th machine is re-simulated single-threaded.
const CHECK_STRIDE: usize = 16;
/// Set-up samples taken before each simulation pass, and set-ups per
/// sample.
const SETUP_SAMPLES: usize = 10;
const SETUP_REPS: usize = 20;

fn build(specs: &[PredictorSpec]) -> Vec<Box<dyn PeakPredictor>> {
    specs
        .iter()
        .map(|s| s.build().expect("comparison-set predictors build"))
        .collect()
}

/// Set-up: the work `run_cell_streaming` does before the first machine is
/// generated, that is building the generator and the policy set, starting
/// the workers, and each worker building its predictors. One set-up takes
/// tens of microseconds, so this times `SETUP_REPS` of them together and
/// returns the time per set-up.
fn set_up_secs(cell: &CellConfig) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SETUP_REPS {
        let gen =
            WorkloadGenerator::new(black_box(cell.clone())).expect("preset cell configs are valid");
        let specs = black_box(PredictorSpec::comparison_set());
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| black_box(build(&specs)));
            }
        });
        black_box(gen);
    }
    t0.elapsed().as_secs_f64() / SETUP_REPS as f64
}

/// Everything in a result that must repeat bit for bit.
fn fingerprint(r: &SimResult) -> Vec<u64> {
    let mut v = vec![u64::from(r.machine.0), r.capacity.to_bits()];
    for rep in &r.reports {
        v.extend([rep.ticks, rep.violations]);
        for w in [
            &rep.severity,
            &rep.savings,
            &rep.prediction,
            &rep.oracle,
            &rep.limit,
        ] {
            v.extend([
                w.count(),
                w.mean().to_bits(),
                w.population_variance().to_bits(),
            ]);
        }
    }
    v
}

/// The simulation loop of `simulate_machine`, replayed from the
/// benchmark with one span per layer call.
fn traced_replay(
    trace: &MachineTrace,
    cfg: &SimConfig,
    preds: &[Box<dyn PeakPredictor>],
    tr: &mut Tracer,
) -> Vec<u64> {
    let req = u64::from(trace.machine.0);
    tr.span("core.sim.replay", req, |tr| {
        let oracle = tr.span("core.oracle.machine_oracle", req, |_| {
            machine_oracle(trace, cfg.metric, cfg.oracle_horizon_ticks)
        });
        let mut reports: Vec<MachineReport> = preds
            .iter()
            .map(|p| MachineReport::new(trace.machine, p.name()))
            .collect();
        let mut view = MachineView::new(trace.capacity, cfg);
        let mut live: Vec<usize> = Vec::new();
        let mut next = 0usize;
        for (i, t) in trace.horizon.iter().enumerate() {
            while next < trace.tasks.len() && trace.tasks[next].spec.start <= t {
                if trace.tasks[next].spec.alive_at(t) {
                    live.push(next);
                }
                next += 1;
            }
            live.retain(|&idx| trace.tasks[idx].spec.alive_at(t));
            let alive = live.iter().map(|&idx| {
                let task = &trace.tasks[idx];
                let usage = task.sample_at(t).map(|s| cfg.metric.of(s)).unwrap_or(0.0);
                (task.spec.id, task.spec.limit, usage)
            });
            tr.span("core.view.observe", req, |_| view.observe(t, alive));
            let limit = view.total_limit();
            for (j, p) in preds.iter().enumerate() {
                let pred = tr.span(PREDICTOR_SPANS[j], req, |_| {
                    black_box(p.predict(black_box(&view)))
                });
                reports[j].record(pred, oracle[i], limit);
            }
        }
        fingerprint(&SimResult {
            machine: trace.machine,
            capacity: trace.capacity,
            reports,
            series: None,
        })
    })
}

/// Replays the simulation loop of every `stride`-th machine of `gen`'s
/// cell with one span per layer call, reports the loop's per-layer costs,
/// and returns each replayed machine's index and result fingerprint.
/// Every workload's traced run calls this on its own cell.
pub fn loop_layers(
    gen: &WorkloadGenerator,
    stride: usize,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Vec<(usize, Vec<u64>)> {
    let cfg = SimConfig::default();
    let preds = build(&PredictorSpec::comparison_set());
    let mut ltr = Tracer::new(true, tr.epoch());
    let fps = (0..gen.config().machines)
        .step_by(stride)
        .map(|idx| {
            let trace = gen
                .generate_machine(MachineId(idx as u32))
                .expect("generator output for a valid config");
            (idx, traced_replay(&trace, &cfg, &preds, &mut ltr))
        })
        .collect();
    let observe = ltr.totals("core.view.observe");
    rep.metric(
        "core.view.observe_ns_per_tick",
        observe.self_per_call(),
        "ns",
    );
    rep.metric(
        "core.oracle.ns_per_tick",
        ltr.totals("core.oracle.machine_oracle").self_ns as f64 / observe.count.max(1) as f64,
        "ns",
    );
    for name in PREDICTOR_SPANS {
        rep.metric(
            &format!("{name}.ns_per_eval"),
            ltr.totals(name).self_per_call(),
            "ns",
        );
    }
    tr.absorb(ltr);
    fps
}

/// `run_cell_streaming`'s fan-out, replayed from the benchmark with one
/// span per generate and simulate call when `tr` is enabled. Returns each
/// machine's result fingerprint, the wall time, and each machine's
/// latency (its generation plus simulation), us.
fn traced_fanout(
    gen: &WorkloadGenerator,
    cfg: &SimConfig,
    specs: &[PredictorSpec],
    tr: &mut Tracer,
) -> (Vec<Vec<u64>>, f64, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let epoch = tr.epoch();
    let traced = tr.enabled();
    let mut out: Vec<(usize, Vec<u64>, f64)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let preds = build(specs);
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= MACHINES {
                            break;
                        }
                        let m0 = Instant::now();
                        let fp = tr.span("core.runner.worker", idx as u64, |tr| {
                            let trace = tr
                                .span("trace.gen.generate_machine", idx as u64, |_| {
                                    gen.generate_machine(MachineId(idx as u32))
                                })
                                .expect("generator output for a valid config");
                            let r = tr
                                .span("core.sim.simulate_machine", idx as u64, |_| {
                                    simulate_machine(&trace, cfg, &preds)
                                })
                                .expect("simulation of a generated machine");
                            fingerprint(&r)
                        });
                        done.push((idx, fp, m0.elapsed().as_secs_f64() * 1e6));
                    }
                    (done, tr)
                })
            })
            .collect();
        for h in handles {
            let (done, wtr) = h.join().expect("sim worker panicked");
            out.extend(done);
            tr.absorb(wtr);
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    out.sort_by_key(|(i, _, _)| *i);
    let latencies = out.iter().map(|o| o.2).collect();
    (
        out.into_iter().map(|(_, fp, _)| fp).collect(),
        wall,
        latencies,
    )
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let cell = preset_a(args.seed, MACHINES, TICKS);
    let cfg = SimConfig::default();
    let specs = PredictorSpec::comparison_set();
    let machine_ticks = (MACHINES as u64 * TICKS) as f64;
    println!(
        "sim-cell: {MACHINES} machines x {TICKS} ticks, {} policies, {THREADS} threads",
        specs.len()
    );

    let gen = WorkloadGenerator::new(cell.clone()).expect("preset cell configs are valid");

    let secs = args.seconds as f64;
    // A traced run makes one untraced pass for the reference results;
    // its own time goes to the traced passes. An untraced one makes at
    // least one pass of each kind.
    let (budget, min_passes) = if args.trace { (0.0, 1) } else { (secs, 2) };
    let start = Instant::now();
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    // Per replica pass, its machines' latencies.
    let mut machine_us: Vec<Vec<f64>> = Vec::new();
    let mut first = None;
    let mut replica_fps = Vec::new();
    let mut setups = Vec::new();
    // Passes alternate between `run_cell_streaming` and the benchmark's
    // replica of its fan-out, which times each machine; both do the same
    // work and count for throughput and CPU.
    let mut rss_mb = None;
    while rates.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        let cpu0 = procfs::self_cpu();
        let t0 = Instant::now();
        if first.is_none() || rates.len() % 2 == 0 {
            let run = run_cell_streaming(&gen, &cfg, &specs, THREADS).expect("cell simulation");
            first.get_or_insert(run);
        } else {
            let (fps, _, lat) =
                traced_fanout(&gen, &cfg, &specs, &mut Tracer::new(false, tr.epoch()));
            replica_fps.push(fps);
            machine_us.push(lat);
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procfs::self_cpu().since(&cpu0).total_s();
        rep.check_cpu("sim pass", cpu, wall);
        rates.push(machine_ticks / wall);
        cpus.push(cpu * 1e9 / machine_ticks);
        // Peak memory after one pass, a fixed amount of work: the set-ups'
        // many short-lived threads would add allocator arenas to it.
        rss_mb.get_or_insert_with(|| procfs::peak_rss_mb(std::process::id()).unwrap_or(0.0));
        setups.extend((0..SETUP_SAMPLES).map(|_| set_up_secs(&cell)));
    }
    // Like the passes, the set-up samples are spread over the run.
    println!(
        "set-up samples: {} from {:.1} to {:.1} us",
        setups.len(),
        quantile(&setups, 0.0) * 1e6,
        quantile(&setups, 1.0) * 1e6
    );
    rep.metric("setup_s", median(&setups), "s");
    let run = first.expect("at least one pass ran");
    println!("{} passes, machine-ticks/s {:?}", rates.len(), rates);

    // Correctness outside timing: every 16th machine single-threaded.
    let preds = build(&specs);
    // Machines whose result differs anywhere, by index.
    let mut mismatches = std::collections::BTreeSet::new();
    for fps in &replica_fps {
        for (idx, fp) in fps.iter().enumerate() {
            if *fp != fingerprint(&run.results[idx]) {
                mismatches.insert(idx);
            }
        }
    }
    for idx in (0..MACHINES).step_by(CHECK_STRIDE) {
        let trace = gen
            .generate_machine(MachineId(idx as u32))
            .expect("generator output");
        let single = simulate_machine(&trace, &cfg, &preds).expect("simulation");
        if fingerprint(&single) != fingerprint(&run.results[idx]) {
            mismatches.insert(idx);
        }
    }
    let replayed: u64 = run.results.iter().map(|r| r.reports[0].ticks).sum();
    rep.check_accounting("sim machine-ticks", replayed, 0, MACHINES as u64 * TICKS);

    if args.trace {
        // The same fan-out with tracing off and on, in the order off, on,
        // on, off so that a drift over the run cancels.
        let mut off = Tracer::new(false, tr.epoch());
        let (mut plain_wall, mut wall) = (0.0, 0.0);
        for traced in [false, true, true, false] {
            let (fps, w, _) =
                traced_fanout(&gen, &cfg, &specs, if traced { &mut *tr } else { &mut off });
            if traced {
                wall += w;
            } else {
                plain_wall += w;
            }
            for (idx, fp) in fps.iter().enumerate() {
                if *fp != fingerprint(&run.results[idx]) {
                    mismatches.insert(idx);
                }
            }
        }
        rep.metric(
            "bench.trace_overhead_pct",
            (wall - plain_wall) / plain_wall * 100.0,
            "%",
        );
        let worker = tr.totals("core.runner.worker");
        rep.metric(
            "core.runner.busy_share",
            worker.total_ns as f64 / 1e9 / (wall * THREADS as f64),
            "ratio",
        );
        rep.metric(
            "trace.gen.ns_per_machine_tick",
            tr.totals("trace.gen.generate_machine").self_ns as f64 / (2.0 * machine_ticks),
            "ns",
        );
        for (idx, fp) in loop_layers(&gen, CHECK_STRIDE, rep, tr) {
            if fp != fingerprint(&run.results[idx]) {
                mismatches.insert(idx);
            }
        }
        // The online path's layers on the same machines' traffic, as node
        // agents would push it: each machine-tick's samples as `OBSERVE`
        // lines and one `PREDICT`, the prediction the simulator makes per
        // machine-tick.
        let cell_id = CellId::new("a");
        let mut reqs = Vec::new();
        for idx in (0..MACHINES).step_by(CHECK_STRIDE) {
            let st = stream_of(
                &gen.generate_machine(MachineId(idx as u32))
                    .expect("generator output"),
            );
            for i in 0..st.ticks() {
                for s in st.tick(i) {
                    reqs.push(observe_req(&cell_id, &st, i, s));
                }
                reqs.push(predict_req(&cell_id, st.machine));
            }
        }
        let mut replay_tr = Tracer::new(true, tr.epoch());
        let costs = layers::replay(&mut replay_tr, &reqs);
        tr.absorb(replay_tr);
        rep.metric("core.ingest.apply_ns_per_sample", costs.apply_ns, "ns");
        rep.metric("serve.proto.parse_ns_per_line", costs.parse_ns, "ns");
        rep.metric("serve.proto.format_ns_per_reply", costs.format_ns, "ns");
    } else {
        // An operation is one machine-tick replayed; the latency is that of
        // one machine-week, generated and simulated by a worker, taken
        // within each replica pass.
        let within = |q: f64| {
            machine_us
                .iter()
                .map(|p| quantile(p, q))
                .collect::<Vec<f64>>()
        };
        rep.metric("ops_per_s", quiet_rate(&rates), "1/s");
        rep.metric("latency_p50_us", quiet_cost(&within(0.5)), "us");
        rep.metric("latency_p99_us", quiet_cost(&within(0.99)), "us");
        rep.metric("latency_samples", machine_us.concat().len() as f64, "count");
        rep.metric("cpu_us_per_op", quiet_cost(&cpus) / 1e3, "us");
    }
    rep.metric("peak_rss_mb", rss_mb.unwrap_or(0.0), "MB");
    println!(
        "verify: {} machines differ from the single-threaded and traced replays",
        mismatches.len()
    );
    rep.attempted = replayed;
    rep.failed = mismatches.len() as u64 * TICKS;
    if args.trace {
        rep.metric("error_ratio", rep.failed as f64 / replayed as f64, "ratio");
    }
    Ok(())
}
