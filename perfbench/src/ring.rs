//! `ring-ingest`: mirrored ingest into a two-member `oc-cluster` ring.
//!
//! The members are child processes of the benchmark binary (the
//! supervisor re-invokes it with `--cluster-node`). One thread drives
//! `ClusterClient::observe_pipelined` over a fleet of preset-A machines,
//! tick-major, so the working set is the whole fleet; the client's
//! bounded frame window paces it as a closed loop. Every
//! [`BLOCK`] machines the pipeline is flushed and the block's acknowledged
//! lines per second (mirrors included) are recorded.

use crate::child::overflow_share;
use crate::input::{preset_a, streams, MachineStream};
use crate::layers::{self, observe_req};
use crate::procfs;
use crate::report::{median, quantile, quiet_cost, quiet_rate, Report};
use crate::span::Tracer;
use crate::Args;
use oc_client::{Client, ClientConfig, ClusterClient, ClusterClientConfig};
use oc_cluster::{Cluster, ClusterConfig};
use oc_serve::shard::key_hash;
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::CellId;
use std::collections::BTreeMap;
use std::time::Instant;

const MACHINES: usize = 20_000;
const TICKS: u64 = 20;
/// Machines per flushed block.
const BLOCK: usize = 1000;
/// Blocks per CPU-per-line window.
const CPU_WINDOW: u64 = 8;
/// Blocks per block-latency window, about a second.
const LAT_WINDOW: usize = 20;
/// Member peak memory is read once this many ticks of the whole fleet
/// are in: a fixed amount of work, unlike the time-bound drive.
const RSS_AFTER_TICKS: u64 = 2;
/// Set-ups before the drive and after it; the median is reported.
const SETUPS: usize = 8;
/// Every `VERIFY_STRIDE`-th machine is checked after the run.
const VERIFY_STRIDE: usize = 64;

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        shards: 1,
        handoff_log: false,
        ..ClusterConfig::default()
    }
}

fn client_config() -> ClusterClientConfig {
    let mut c = ClusterClientConfig::default();
    c.client = c.client.with_batch(64);
    c.pipeline_frames = 16;
    c
}

fn member_metrics(addrs: &[std::net::SocketAddr]) -> Vec<BTreeMap<String, f64>> {
    addrs
        .iter()
        .map(|&a| {
            Client::connect(a, ClientConfig::default())
                .and_then(|mut c| c.server_metrics())
                .unwrap_or_default()
        })
        .collect()
}

fn sum(ms: &[BTreeMap<String, f64>], name: &str) -> f64 {
    ms.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).sum()
}

fn live_ns(pids: &[u32]) -> u64 {
    pids.iter().map(|&p| procfs::live_cpu_ns(p)).sum()
}

fn set_up() -> std::io::Result<(Cluster, ClusterClient, f64, f64)> {
    let t0 = Instant::now();
    let cluster = Cluster::start(&cluster_config())?;
    let start_s = t0.elapsed().as_secs_f64();
    let cc = ClusterClient::connect(cluster.spec(), &cluster.addrs(), client_config())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok((cluster, cc, t0.elapsed().as_secs_f64(), start_s))
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let cfg = preset_a(args.seed, MACHINES, TICKS);
    let streams = streams(&cfg, 2);
    let cell = CellId::new("a");
    let total: usize = streams.iter().map(MachineStream::len).sum();
    println!("ring-ingest: {MACHINES} machines x {TICKS} ticks, {total} samples, 2 members");

    let (mut setups, mut starts) = (Vec::new(), Vec::new());
    let (mut cluster, mut cc, s, st) = set_up()?;
    setups.push(s);
    starts.push(st);
    for _ in 1..SETUPS {
        drop(cc);
        let _ = cluster.shutdown();
        let next = set_up()?;
        (cluster, cc) = (next.0, next.1);
        setups.push(next.2);
        starts.push(next.3);
    }
    let addrs = cluster.addrs();
    let members = procfs::children(std::process::id());
    rep.check(members.len() == 2, || {
        format!("expected 2 member processes, found {members:?}")
    });

    let secs = args.seconds as f64;
    let mut sent = vec![0usize; streams.len()];
    let mut untraced = Tracer::new(false, tr.epoch());
    let before = member_metrics(&addrs);
    let mns0 = live_ns(&members);
    let ccpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    let mut rates = Vec::new();
    // Wall time of each untraced block, from its first line to its flush, us.
    let mut block_us = Vec::new();
    let mut traced_rates = Vec::new();
    // Member and client CPU per acknowledged line over windows of
    // `CPU_WINDOW` blocks: the kernel folds a running thread's CPU into
    // its counters only at scheduler ticks, too coarse for one block.
    let (mut member_costs, mut client_costs) = (Vec::new(), Vec::new());
    let mut cpu_mark = (mns0, ccpu0, 0u64);
    let mut rss_mb = None;
    let mut lines = 0u64;
    let mut block_no = 0u64;
    let (mut tick, mut next) = (0u64, 0usize);
    'drive: while tick < TICKS {
        if t0.elapsed().as_secs_f64() >= secs {
            break;
        }
        // Traced runs trace every other block, so traced and untraced
        // blocks see the same input drift.
        let traced = args.trace && block_no % 2 == 1;
        let t = if traced { &mut *tr } else { &mut untraced };
        if tick == RSS_AFTER_TICKS && rss_mb.is_none() {
            rss_mb = Some(
                members
                    .iter()
                    .filter_map(|&p| procfs::peak_rss_mb(p))
                    .collect::<Vec<f64>>(),
            );
        }
        let b0 = Instant::now();
        let mut block_lines = 0u64;
        let end = (next + BLOCK).min(streams.len());
        for (m, st) in streams.iter().enumerate().take(end).skip(next) {
            for s in st.tick(tick) {
                let r = t.span("client.cluster.observe_pipelined", lines, |_| {
                    cc.observe_pipelined(
                        &cell,
                        st.machine,
                        s.task,
                        s.usage,
                        s.limit,
                        st.first_tick + tick,
                    )
                });
                if let Err(e) = r {
                    eprintln!("ring-ingest: observe failed: {e}");
                    break 'drive;
                }
                sent[m] += 1;
                lines += 1;
                block_lines += 1;
            }
        }
        if let Err(e) = t.span("client.cluster.flush_pipeline", block_no, |_| {
            cc.flush_pipeline()
        }) {
            eprintln!("ring-ingest: flush failed: {e}");
            break;
        }
        let acked = 2.0 * block_lines as f64;
        let block_wall = b0.elapsed().as_secs_f64();
        let rate = acked / block_wall;
        if traced {
            traced_rates.push(rate);
        } else {
            rates.push(rate);
            block_us.push(block_wall * 1e6);
        }
        block_no += 1;
        if block_no.is_multiple_of(CPU_WINDOW) {
            let now = (live_ns(&members), procfs::thread_cpu_ns(), lines);
            let acked = 2.0 * (now.2 - cpu_mark.2) as f64;
            member_costs.push((now.0 - cpu_mark.0) as f64 / 1e3 / acked);
            client_costs.push((now.1 - cpu_mark.1) as f64 / 1e3 / acked);
            cpu_mark = now;
        }
        next = end;
        if next == streams.len() {
            next = 0;
            tick += 1;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let client_ns = procfs::thread_cpu_ns() - ccpu0;
    let member_s = (live_ns(&members) - mns0) as f64 / 1e9;
    let after = member_metrics(&addrs);
    let acked = sum(&after, "serve.observes") - sum(&before, "serve.observes");
    let failed = ["serve.stale", "serve.errors", "serve.busy"]
        .iter()
        .map(|n| sum(&after, n) - sum(&before, n))
        .sum::<f64>();
    let attempted = 2 * lines;
    rep.check_cpu("ring members", member_s, wall);
    rep.check_cpu("ring load thread", client_ns as f64 / 1e9, wall);
    rep.check_accounting(
        "ring lines (mirrors included)",
        acked as u64,
        failed as u64,
        attempted,
    );
    let per_member: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| {
            a.get("serve.observes").copied().unwrap_or(0.0)
                - b.get("serve.observes").copied().unwrap_or(0.0)
        })
        .collect();
    println!(
        "drive: {lines} lines in {block_no} blocks over {wall:.2}s, member observes {per_member:?}"
    );
    let rss = rss_mb.unwrap_or_else(|| {
        members
            .iter()
            .filter_map(|&p| procfs::peak_rss_mb(p))
            .collect()
    });
    let cm = cc.metrics();
    rep.check(
        cm.redirects == 0 && cm.failovers == 0 && cm.replayed_tails == 0,
        || format!("ring client saw redirects/failovers/replays: {cm:?}"),
    );

    if args.trace {
        let ring_rate = median(&rates);
        rep.metric(
            "bench.trace_overhead_pct",
            (ring_rate - median(&traced_rates)) / ring_rate * 100.0,
            "%",
        );
        let obs = tr.totals("client.cluster.observe_pipelined");
        rep.metric(
            "client.cluster.observe_ns_per_line",
            obs.self_per_call(),
            "ns",
        );
        rep.metric(
            "client.cluster.flush_ms",
            tr.totals("client.cluster.flush_pipeline").self_per_call() / 1e6,
            "ms",
        );
        rep.metric(
            "client.cluster.lines_per_frame",
            lines as f64 / cm.frames.max(1) as f64,
            "count",
        );
        rep.metric("client.cluster.redirects", cm.redirects as f64, "count");
        let mean = per_member.iter().sum::<f64>() / per_member.len().max(1) as f64;
        let max = per_member.iter().copied().fold(0.0, f64::max);
        rep.metric("cluster.member_skew", max / mean.max(1.0), "ratio");
        rep.metric(
            "cluster.member.peak_rss_mb",
            rss.iter().copied().fold(0.0, f64::max),
            "MB",
        );

        // Ring lookups on the fleet's own keys, in-process.
        let ring = cluster.spec().build();
        let alive = [true, true];
        let mut ltr = Tracer::new(true, tr.epoch());
        for st in &streams {
            let h = key_hash(&(cell.clone(), st.machine));
            std::hint::black_box(
                ltr.span("cluster.ring.routes", u64::from(st.machine.0), |_| {
                    ring.routes(h, &alive)
                }),
            );
        }
        rep.metric(
            "cluster.ring.lookup_ns_per_key",
            ltr.totals("cluster.ring.routes").self_per_call(),
            "ns",
        );
        tr.absorb(ltr);

        let mut replay_tr = Tracer::new(true, tr.epoch());
        let mut reqs = Vec::new();
        for tick in 0..TICKS {
            for st in streams.iter().step_by(16) {
                for s in st.tick(tick) {
                    reqs.push(observe_req(&cell, st, tick, s));
                }
            }
        }
        let costs = layers::replay(&mut replay_tr, &reqs);
        tr.absorb(replay_tr);
        rep.metric("core.ingest.apply_ns_per_sample", costs.apply_ns, "ns");
        rep.metric("serve.proto.parse_ns_per_line", costs.parse_ns, "ns");
        rep.metric("serve.proto.format_ns_per_reply", costs.format_ns, "ns");
        rep.metric(
            "trace.gen.ns_per_machine_tick",
            crate::input::gen_ns_per_machine_tick(),
            "ns",
        );
        let gen = WorkloadGenerator::new(cfg.clone()).expect("preset cell configs are valid");
        crate::sim::loop_layers(&gen, VERIFY_STRIDE, rep, tr);
    } else {
        // An operation is one acknowledged line, mirrors included; its
        // latency is that of a whole block, from its first line to the
        // acknowledgement of its last.
        rep.metric("ops_per_s", quiet_rate(&rates), "1/s");
        // A run too short for one whole window has the one it got.
        let windows: Vec<&[f64]> = if block_us.len() < LAT_WINDOW {
            vec![&block_us]
        } else {
            block_us.chunks_exact(LAT_WINDOW).collect()
        };
        let within = |q: f64| windows.iter().map(|w| quantile(w, q)).collect::<Vec<f64>>();
        rep.metric("latency_p50_us", quiet_cost(&within(0.5)), "us");
        rep.metric("latency_p99_us", quiet_cost(&within(0.99)), "us");
        rep.metric("latency_samples", block_us.len() as f64, "count");
        rep.metric("cpu_us_per_op", quiet_cost(&member_costs), "us");
        rep.metric("client_cpu_us_per_op", quiet_cost(&client_costs), "us");
        rep.metric("peak_rss_mb", rss.iter().sum(), "MB");
    }

    // Residence on each member, against the drive's wall time (no line
    // can have waited on a member longer than the drive lasted).
    let mut worst = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for m in &after {
        let g = |n: &str| m.get(n).copied().unwrap_or(0.0);
        let (p50, p99, max, mean) = (
            g("serve.latency_us.p50"),
            g("serve.latency_us.p99"),
            g("serve.latency_us.max"),
            g("serve.latency_us.mean"),
        );
        rep.check_order("member residence", p50, p99, max);
        rep.check(max <= wall * 1e6, || {
            format!("member residence max {max} us exceeds the {wall:.2}s drive")
        });
        worst = (
            worst.0.max(p50),
            worst.1.max(p99),
            worst.2.max(max),
            worst.3.max(mean),
        );
    }
    if args.trace {
        rep.metric("serve.residence_p50_us", worst.0, "us");
        rep.metric("serve.residence_p99_us", worst.1, "us");
        rep.metric(
            "serve.residence_overflow_share",
            overflow_share(worst.0, worst.1, worst.3, worst.2),
            "ratio",
        );
    }

    // State check outside timing: each sampled machine's served
    // prediction against the offline recompute of what it was sent.
    let mut mismatches = 0u64;
    for (m, st) in streams.iter().enumerate().step_by(VERIFY_STRIDE) {
        let want = layers::expected_prediction(st, sent[m]);
        let got = cc.predict(&cell, st.machine);
        let ok = match (want, got) {
            (Some(w), Ok(p)) => w.to_bits() == p.to_bits(),
            (None, Err(_)) => true,
            _ => false,
        };
        mismatches += u64::from(!ok);
    }
    let lost = (attempted as f64 - acked - failed).max(0.0) as u64;
    println!("verify: {mismatches} mismatches over every {VERIFY_STRIDE}th machine, {lost} lost");
    rep.attempted = attempted;
    rep.failed = failed as u64 + lost + mismatches;
    if args.trace {
        rep.metric("error_ratio", rep.failed as f64 / attempted as f64, "ratio");
    }
    drop(cc);
    rep.check(cluster.shutdown().is_ok(), || {
        "the ring did not shut down cleanly".to_string()
    });
    // The second half of the set-ups, a run's length after the first, so
    // that one busy moment on the host does not decide the figure.
    for _ in 0..SETUPS {
        let (cluster, cc, s, st) = set_up()?;
        drop(cc);
        let _ = cluster.shutdown();
        setups.push(s);
        starts.push(st);
    }
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("cluster.supervisor.start_s", median(&starts), "s");
    Ok(())
}
