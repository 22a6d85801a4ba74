//! `serve-query`: schedulers asking admission questions of one
//! `oc-serve` child, as a closed loop.
//!
//! Two callers, each on its own thread and `Client`, are the schedulers of
//! two preset-A cells of 100 machines each. Set-up warms the server with
//! one day of every machine's samples. The measured loop then replays the
//! following days tick by tick: for every task the trace admits in that
//! tick, the caller probes every machine of its cell with `PREDICT`, as
//! `oc-scheduler`'s placement loop checks every machine for fit, and asks
//! `ADMIT` for the task's own machine, one request outstanding and no
//! framing; then it writes the tick's samples of its cell. Writes so
//! invalidate the predict cache at the rate the trace's own task arrivals
//! and ticks imply.
//!
//! Each caller writes only its own cell: a `PREDICT` flushes the machine's
//! pending tick, so a scheduler probing a machine while another client is
//! still writing that machine's tick would make the rest of the tick stale.

use crate::child::{ServerChild, SHARDS};
use crate::hist::LogHist;
use crate::ingest::counter;
use crate::input::{preset_a, streams, MachineStream};
use crate::layers::{self, observe_req, predict_req};
use crate::procfs;
use crate::report::{median, quiet_cost, quiet_rate, Report};
use crate::span::Tracer;
use crate::Args;
use oc_client::{Client, ClientConfig};
use oc_serve::proto::{Request, Response};
use oc_serve::shard::key_hash;
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, MachineId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Callers, each with a cell of its own.
const CALLERS: usize = 2;
/// Machines per cell: preset A's count.
const MACHINES: usize = 100;
const PRELOAD_TICKS: u64 = 288;
const REPLAY_TICKS: u64 = 6 * 288;
/// Set-ups before the query loop and after it; the median is reported.
const SETUPS: usize = 2;
/// Sequential `ADMIT`s of the wire probe.
const PROBES: usize = 2000;
/// Consecutive sub-phases the measured loop is split into.
const SUB_PHASES: usize = 20;
/// Lines per pipelined write call.
const WRITE_CHUNK: usize = 4096;

struct Caller<'a> {
    client: Client,
    cell: CellId,
    /// The cell's machines; machine `i` is `MachineId(i)`.
    streams: &'a [MachineStream],
    /// Samples sent so far, per machine.
    sent: Vec<usize>,
    /// The machines with at least one sample in the preload: the machines
    /// every arriving task probes.
    probed: Vec<usize>,
    tick: u64,
}

#[derive(Default)]
struct Tally {
    queries: u64,
    writes: u64,
    ok: u64,
    failed: u64,
    query_lat: LogHist,
    /// Wall time and queries of the untraced and the traced ticks.
    mode_ns: [u64; 2],
    mode_queries: [u64; 2],
    cpu_ns: u64,
}

impl Tally {
    fn absorb(&mut self, o: Tally) {
        self.queries += o.queries;
        self.writes += o.writes;
        self.ok += o.ok;
        self.failed += o.failed;
        self.query_lat.merge(&o.query_lat);
        self.cpu_ns += o.cpu_ns;
        for i in 0..2 {
            self.mode_ns[i] += o.mode_ns[i];
            self.mode_queries[i] += o.mode_queries[i];
        }
    }
}

fn write(client: &mut Client, reqs: &[Request], tally: &mut Tally) {
    for chunk in reqs.chunks(WRITE_CHUNK) {
        let mut ok = 0u64;
        let res = client.pipeline_with(chunk, |_, resp, _| {
            if *resp == Response::Ok {
                ok += 1;
            }
        });
        tally.writes += chunk.len() as u64;
        tally.ok += ok;
        tally.failed += chunk.len() as u64 - ok;
        if res.is_err() {
            eprintln!("serve-query: pipelined write failed: {res:?}");
        }
    }
}

impl Caller<'_> {
    /// The `OBSERVE`s of every machine of the cell for `tick`, counted as
    /// sent.
    fn tick_writes(&mut self, tick: u64) -> Vec<Request> {
        let mut reqs = Vec::new();
        for (m, st) in self.streams.iter().enumerate() {
            for s in st.tick(tick) {
                reqs.push(observe_req(&self.cell, st, tick, s));
                self.sent[m] += 1;
            }
        }
        reqs
    }

    fn preload(&mut self, tally: &mut Tally) {
        let cell = self.cell.clone();
        // `OBSERVE` is acknowledged on enqueue, so a pipelined burst can
        // run ahead of the shards by up to their queue bound. After each
        // tick one `ADMIT` per shard (answered only once that shard has
        // handled everything queued before it) keeps the backlog, and so
        // the server's memory high-water mark, to about one tick.
        let mut barrier: Vec<Option<MachineId>> = vec![None; SHARDS];
        for tick in 0..PRELOAD_TICKS {
            let reqs = self.tick_writes(tick);
            for r in &reqs {
                if let Request::Observe { machine, .. } = r {
                    let shard = (key_hash(&(cell.clone(), *machine)) % SHARDS as u64) as usize;
                    barrier[shard].get_or_insert(*machine);
                }
            }
            write(&mut self.client, &reqs, tally);
            for machine in barrier.iter().flatten() {
                let admit = Request::Admit {
                    cell: cell.clone(),
                    machine: *machine,
                    limit: 0.0,
                };
                match self.client.request(&admit) {
                    Ok(Response::Admitted { .. }) => tally.ok += 1,
                    _ => tally.failed += 1,
                }
            }
        }
        self.probed = (0..self.streams.len())
            .filter(|&m| self.sent[m] > 0)
            .collect();
        self.tick = PRELOAD_TICKS;
    }

    fn query(&mut self, req: &Request, tr: &mut Tracer, tally: &mut Tally) {
        let t0 = Instant::now();
        let client = &mut self.client;
        let resp = tr.span("client.request", tally.queries, |_| client.request(req));
        let ns = t0.elapsed().as_nanos() as u64;
        tally.query_lat.record(ns);
        tally.queries += 1;
        match resp {
            Ok(Response::Pred { .. } | Response::Admitted { .. }) => tally.ok += 1,
            other => {
                eprintln!("serve-query: {req:?} answered {other:?}");
                tally.failed += 1;
            }
        }
    }

    /// Replays ticks until `deadline` or the end of the input. With an
    /// enabled tracer, odd ticks are traced and even ticks are not, so the
    /// two halves see the same input drift.
    fn drive(&mut self, deadline: Instant, tr: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        let mut off = Tracer::new(false, tr.epoch());
        let cpu0 = procfs::thread_cpu_ns();
        let (cell, streams) = (self.cell.clone(), self.streams);
        while self.tick < PRELOAD_TICKS + REPLAY_TICKS && Instant::now() < deadline {
            let tick = self.tick;
            let mode = usize::from(tr.enabled() && tick % 2 == 1);
            let tr = if mode == 1 { &mut *tr } else { &mut off };
            let (t0, q0) = (Instant::now(), tally.queries);
            for st in streams {
                for &limit in st.arrivals(tick) {
                    for j in 0..self.probed.len() {
                        let cand = &streams[self.probed[j]];
                        self.query(&predict_req(&cell, cand.machine), tr, &mut tally);
                    }
                    let admit = Request::Admit {
                        cell: cell.clone(),
                        machine: st.machine,
                        limit,
                    };
                    self.query(&admit, tr, &mut tally);
                }
            }
            let reqs = self.tick_writes(tick);
            write(&mut self.client, &reqs, &mut tally);
            tally.mode_ns[mode] += t0.elapsed().as_nanos() as u64;
            tally.mode_queries[mode] += tally.queries - q0;
            self.tick += 1;
        }
        tally.cpu_ns = procfs::thread_cpu_ns() - cpu0;
        tally
    }
}

/// A started, preloaded server with its two callers.
struct Setup<'a> {
    server: ServerChild,
    callers: Vec<Caller<'a>>,
    preload: Tally,
    secs: f64,
}

/// Starts the server, connects a caller per cell and preloads one day.
fn set_up(cells: &[(CellId, Vec<MachineStream>)]) -> std::io::Result<Setup<'_>> {
    let t0 = Instant::now();
    let server = ServerChild::start()?;
    let mut callers = Vec::new();
    for (cell, streams) in cells {
        let client = Client::connect(server.addr, ClientConfig::default().with_batch(64))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        callers.push(Caller {
            client,
            cell: cell.clone(),
            streams,
            sent: vec![0; streams.len()],
            probed: Vec::new(),
            tick: 0,
        });
    }
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    caller.preload(&mut tally);
                    tally
                })
            })
            .collect();
        for h in handles {
            tally.absorb(h.join().expect("preload thread panicked"));
        }
    });
    Ok(Setup {
        server,
        callers,
        preload: tally,
        secs: t0.elapsed().as_secs_f64(),
    })
}

struct Phase {
    tally: Tally,
    wall: f64,
    cpu: procfs::Cpu,
    cpu_ns: u64,
    ctx: u64,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

fn phase(server: &ServerChild, callers: &mut [Caller], secs: f64, tr: &mut Tracer) -> Phase {
    let before = server.metrics();
    let cpu0 = procfs::cpu(server.pid).unwrap_or_default();
    let ns0 = procfs::live_cpu_ns(server.pid);
    let ctx0 = procfs::ctx_switches(server.pid);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let traced = tr.enabled();
    let epoch = tr.epoch();
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                s.spawn(move || {
                    let mut ctr = Tracer::new(traced, epoch);
                    let t = caller.drive(deadline, &mut ctr);
                    (t, ctr)
                })
            })
            .collect();
        for h in handles {
            let (t, ctr) = h.join().expect("caller thread panicked");
            tally.absorb(t);
            tr.absorb(ctr);
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    Phase {
        tally,
        wall,
        cpu: procfs::cpu(server.pid).unwrap_or_default().since(&cpu0),
        cpu_ns: procfs::live_cpu_ns(server.pid) - ns0,
        ctx: procfs::ctx_switches(server.pid) - ctx0,
        before,
        after: server.metrics(),
    }
}

impl Phase {
    fn qps(&self) -> f64 {
        self.tally.queries as f64 / self.wall
    }

    fn ops(&self) -> f64 {
        (self.tally.queries + self.tally.writes) as f64
    }

    fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    /// Folds the next consecutive phase into this one.
    fn extend(&mut self, next: Phase) {
        self.tally.absorb(next.tally);
        self.wall += next.wall;
        self.cpu = self.cpu.add(&next.cpu);
        self.cpu_ns += next.cpu_ns;
        self.ctx += next.ctx;
        self.after = next.after;
    }
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let cell_cfg = |c: u64| {
        preset_a(
            CALLERS as u64 * args.seed + c,
            MACHINES,
            PRELOAD_TICKS + REPLAY_TICKS,
        )
    };
    let cells: Vec<(CellId, Vec<MachineStream>)> = (0..CALLERS as u64)
        .map(|c| (CellId::new(format!("a{c}")), streams(&cell_cfg(c), 2)))
        .collect();
    println!(
        "serve-query: {CALLERS} cells x {MACHINES} machines, {PRELOAD_TICKS}-tick preload, \
         every machine of the cell probed per arriving task"
    );

    // Peak memory is read after each set-up's one-day preload: a fixed
    // amount of work, unlike the time-bound query loop. It is the median
    // over the set-ups, because the allocator's high-water mark differs
    // between identical fresh servers.
    let (mut setups, mut rss, mut preload_failed) = (Vec::new(), Vec::new(), 0);
    let mut setup = set_up(&cells)?;
    for _ in 1..SETUPS {
        setups.push(setup.secs);
        rss.push(procfs::peak_rss_mb(setup.server.pid).unwrap_or(0.0));
        preload_failed += setup.preload.failed;
        drop(setup.callers);
        setup.server.stop();
        setup = set_up(&cells)?;
    }
    setups.push(setup.secs);
    rss.push(procfs::peak_rss_mb(setup.server.pid).unwrap_or(0.0));
    let Setup {
        server,
        mut callers,
        preload,
        ..
    } = setup;

    // The query loop runs as consecutive sub-phases, each measured on its
    // own; the end-to-end figures are the quiet-side quartiles over them.
    let sub_secs = args.seconds as f64 / SUB_PHASES as f64;
    let mut subs = Vec::new();
    for _ in 0..SUB_PHASES {
        subs.push(phase(&server, &mut callers, sub_secs, tr));
    }
    // Sub-phases after the input ran out (none with the sizes here) are
    // left out.
    let per = |f: &dyn Fn(&Phase) -> f64| {
        subs.iter()
            .filter(|p| p.tally.queries > 0)
            .map(f)
            .collect::<Vec<f64>>()
    };
    let qps = quiet_rate(&per(&|p| p.qps()));
    let p50 = quiet_cost(&per(&|p| p.tally.query_lat.quantile(0.5) / 1e3));
    let p99 = quiet_cost(&per(&|p| p.tally.query_lat.quantile(0.99) / 1e3));
    let server_cpu = quiet_cost(&per(&|p| p.cpu_ns as f64 / 1e3 / p.ops()));
    let client_cpu = quiet_cost(&per(&|p| p.tally.cpu_ns as f64 / 1e3 / p.ops()));
    let mut subs = subs.into_iter();
    let mut main = subs.next().expect("at least one sub-phase");
    for p in subs {
        main.extend(p);
    }
    let ops = main.ops();
    rep.check_cpu("server, query phase", main.cpu_ns as f64 / 1e9, main.wall);
    rep.check_cpu(
        "callers, query phase",
        main.tally.cpu_ns as f64 / 1e9,
        main.wall,
    );
    let q = &main.tally.query_lat;
    rep.check_hist("query latency", q);
    println!(
        "query phase: {} queries, {} writes in {:.2}s, p50 {:.1} us p99 {:.1} us max {:.1} us",
        main.tally.queries,
        main.tally.writes,
        main.wall,
        q.quantile(0.5) / 1e3,
        q.quantile(0.99) / 1e3,
        q.max() as f64 / 1e3
    );
    if args.trace {
        let t = &main.tally;
        let qps = |m: usize| t.mode_queries[m] as f64 / (t.mode_ns[m] as f64 / 1e9);
        rep.metric(
            "bench.trace_overhead_pct",
            (qps(0) - qps(1)) / qps(0) * 100.0,
            "%",
        );
        rep.metric(
            "client.request_ns_per_query",
            tr.totals("client.request").self_per_call(),
            "ns",
        );
        let mut replay_tr = Tracer::new(true, tr.epoch());
        let costs = layers::replay(&mut replay_tr, &replay_stream(&cells[0].0, &cells[0].1));
        tr.absorb(replay_tr);
        // The predictors as a shard evaluates them, on `IncrementalView`;
        // `core.predictor.*` come from the simulation loop below.
        for (name, ns) in layers::PREDICTOR_SPANS.iter().zip(costs.predictor_ns) {
            let name = name.replacen("core.", "serve.", 1);
            rep.metric(&format!("{name}.ns_per_eval"), ns, "ns");
        }
        rep.metric(
            "trace.gen.ns_per_machine_tick",
            crate::input::gen_ns_per_machine_tick(),
            "ns",
        );
        let gen = WorkloadGenerator::new(cell_cfg(0)).expect("preset cell configs are valid");
        crate::sim::loop_layers(&gen, 16, rep, tr);
        rep.metric("core.ingest.apply_ns_per_sample", costs.apply_ns, "ns");
        rep.metric("serve.proto.parse_ns_per_line", costs.parse_ns, "ns");
        rep.metric("serve.proto.format_ns_per_reply", costs.format_ns, "ns");
        let evals = main.delta("serve.predict.cache_miss") + main.delta("serve.requests.admit");
        let accounted = (costs.parse_ns + costs.format_ns) * ops
            + costs.apply_ns * main.tally.writes as f64
            + costs.predictor_ns[3] * evals;
        rep.metric(
            "serve.unaccounted_ns_per_op",
            (main.cpu_ns as f64 - accounted) / ops,
            "ns",
        );
        rep.metric("serve.ctx_switches_per_op", main.ctx as f64 / ops, "count");
        rep.metric(
            "serve.cpu.sys_share",
            main.cpu.sys_s / main.cpu.total_s().max(1e-9),
            "ratio",
        );
        rep.metric(
            "serve.reactor.wakeups_per_op",
            main.delta("serve.reactor.wakeups") / ops,
            "count",
        );
        let hits = main.delta("serve.predict.cache_hit");
        let lookups = hits + main.delta("serve.predict.cache_miss");
        rep.metric(
            "serve.predict.cache_hit_ratio",
            hits / lookups.max(1.0),
            "ratio",
        );
    } else {
        rep.metric("ops_per_s", qps, "1/s");
        rep.metric("latency_p50_us", p50, "us");
        rep.metric("latency_p99_us", p99, "us");
        rep.metric("latency_samples", q.count() as f64, "count");
        rep.metric("cpu_us_per_op", server_cpu, "us");
        rep.metric("client_cpu_us_per_op", client_cpu, "us");
    }

    // Accounting, the residence gate and the state check, outside timing.
    // The wire probe: client round trip minus the exact mean residence
    // of requests a shard answers.
    let probe_machines: Vec<MachineId> = callers[0]
        .probed
        .iter()
        .map(|&m| callers[0].streams[m].machine)
        .collect();
    let probe = server.admit_probe(rep, &callers[0].cell, &probe_machines, PROBES);
    rep.metric(
        "serve.wire_p50_us",
        probe.latency.quantile(0.5) / 1e3 - probe.mean_residence_us,
        "us",
    );
    let total = main.tally;
    let attempted = total.queries + total.writes + probe.ok + probe.failed;
    rep.check_accounting(
        "serve-query requests",
        total.ok + probe.ok,
        total.failed + probe.failed,
        attempted,
    );
    server.residence(rep);
    let final_metrics = server.metrics();
    let observed: usize = callers.iter().map(|c| c.sent.iter().sum::<usize>()).sum();
    let served = final_metrics.get("serve.observes").copied().unwrap_or(0.0);
    let lost = (observed as f64 - served).max(0.0) as u64
        + counter(&final_metrics, "serve.stale") as u64
        + counter(&final_metrics, "serve.errors") as u64
        + preload.failed
        + preload_failed;
    let all: Vec<usize> = (0..MACHINES).collect();
    let mismatches: u64 = callers
        .iter()
        .map(|c| crate::ingest::verify(&server, &c.cell, c.streams, &c.sent, &all))
        .sum();
    println!(
        "verify: {mismatches} mismatches over all {CALLERS} x {MACHINES} machines, {lost} lost"
    );
    rep.attempted = attempted;
    rep.failed = total.failed + probe.failed + lost + mismatches;
    drop(callers);
    rep.check(server.stop(), || {
        "the server did not drain and exit cleanly".to_string()
    });
    // The second half of the set-ups, a run's length after the first, so
    // that one busy moment on the host does not decide the figure.
    for _ in 0..SETUPS {
        let setup = set_up(&cells)?;
        setups.push(setup.secs);
        rss.push(procfs::peak_rss_mb(setup.server.pid).unwrap_or(0.0));
        rep.failed += setup.preload.failed;
        drop(setup.callers);
        setup.server.stop();
    }
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("peak_rss_mb", median(&rss), "MB");
    if args.trace {
        rep.metric("error_ratio", rep.failed as f64 / attempted as f64, "ratio");
    }
    Ok(())
}

/// Every 4th machine's preload plus one replayed day, with a `PREDICT`
/// and an `ADMIT` per arriving task, for the in-process layer replay.
fn replay_stream(cell: &CellId, streams: &[MachineStream]) -> Vec<Request> {
    let picked: Vec<&MachineStream> = streams.iter().step_by(4).collect();
    let mut reqs = Vec::new();
    for tick in 0..PRELOAD_TICKS * 2 {
        for st in &picked {
            if tick >= PRELOAD_TICKS {
                for &limit in st.arrivals(tick) {
                    reqs.push(predict_req(cell, st.machine));
                    reqs.push(Request::Admit {
                        cell: cell.clone(),
                        machine: st.machine,
                        limit,
                    });
                }
            }
            for s in st.tick(tick) {
                reqs.push(observe_req(cell, st, tick, s));
            }
        }
    }
    reqs
}
