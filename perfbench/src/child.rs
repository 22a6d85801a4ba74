//! `oc-serve` as a child process of the benchmark binary.
//!
//! The benchmark re-invokes its own executable with `--serve-child`; the
//! child runs an ordinary `oc-serve` [`Server`] (the default configuration
//! with two shards), announces `ADDR <ip:port>` on stdout, and drains and
//! exits on `SHUTDOWN`. A [`ServerChild`] that is dropped without
//! [`ServerChild::stop`] kills and reaps the process, so no server outlives
//! the benchmark.

use crate::hist::LogHist;
use crate::report::Report;
use oc_client::{Client, ClientConfig};
use oc_serve::proto::{Request, Response};
use oc_serve::{ServeConfig, Server};
use oc_trace::ids::{CellId, MachineId};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const CHILD_FLAG: &str = "--serve-child";

/// Shard workers in the served process.
pub const SHARDS: usize = 2;

/// Entry point of the child process.
pub fn run_child() -> ! {
    let cfg = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_shards(SHARDS);
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench serve child: {e}");
            std::process::exit(1);
        }
    };
    println!("ADDR {}", server.addr());
    let _ = std::io::stdout().flush();
    server.wait();
    let outcome = server.shutdown_outcome();
    std::process::exit(if outcome.clean { 0 } else { 1 });
}

pub struct ServerChild {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
    started: Instant,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    pub fn start() -> std::io::Result<ServerChild> {
        let started = Instant::now();
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = reader
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim_end().strip_prefix("ADDR ")?.parse().ok());
        match addr {
            Some(addr) => Ok(ServerChild {
                child: Some(child),
                addr,
                pid,
                started,
                _stdout: reader,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "serve child announced {line:?}"
                )))
            }
        }
    }

    /// The server's `METRICS` exposition as name → value.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        Client::connect(self.addr, ClientConfig::default())
            .and_then(|mut c| c.server_metrics())
            .unwrap_or_default()
    }

    /// Reports the server's residence quantiles (`serve.latency_us`:
    /// shard enqueue to handled) and gates them: ordered, and no longer
    /// than the server has been alive. They cannot be gated against
    /// client latencies line by line: an `OBSERVE` is acknowledged on
    /// enqueue, before its residence ends. [`ServerChild::admit_probe`]
    /// makes that comparison on requests answered after the shard.
    pub fn residence(&self, rep: &mut Report) {
        let m = self.metrics();
        let g = |name: &str| m.get(name).copied().unwrap_or(0.0);
        let (p50, p99, max, mean) = (
            g("serve.latency_us.p50"),
            g("serve.latency_us.p99"),
            g("serve.latency_us.max"),
            g("serve.latency_us.mean"),
        );
        rep.metric("serve.residence_p50_us", p50, "us");
        rep.metric("serve.residence_p99_us", p99, "us");
        rep.metric(
            "serve.residence_overflow_share",
            overflow_share(p50, p99, mean, max),
            "ratio",
        );
        rep.check_order("server residence", p50, p99, max);
        let alive_us = self.started.elapsed().as_secs_f64() * 1e6;
        rep.check(max <= alive_us, || {
            format!("server residence max {max} us exceeds the server's {alive_us:.0} us lifetime")
        });
    }

    /// Sends `n` sequential `ADMIT`s for `machines` (round robin) on a
    /// fresh connection. `ADMIT` is never cached and is answered only
    /// after a shard handled it, so each residence lies inside its round
    /// trip: the mean residence, exact from the change in the server
    /// histogram's count and sum, must not exceed the mean round trip.
    pub fn admit_probe(
        &self,
        rep: &mut Report,
        cell: &CellId,
        machines: &[MachineId],
        n: usize,
    ) -> Probe {
        let mut probe = Probe::default();
        let Ok(mut client) = Client::connect(self.addr, ClientConfig::default()) else {
            probe.failed = n as u64;
            return probe;
        };
        let before = self.metrics();
        let mut total_ns = 0u64;
        for i in 0..n {
            let req = Request::Admit {
                cell: cell.clone(),
                machine: machines[i % machines.len()],
                limit: 0.01,
            };
            let t0 = Instant::now();
            let resp = client.request(&req);
            let ns = t0.elapsed().as_nanos() as u64;
            probe.latency.record(ns);
            total_ns += ns;
            match resp {
                Ok(Response::Admitted { .. }) => probe.ok += 1,
                _ => probe.failed += 1,
            }
        }
        let after = self.metrics();
        let g = |m: &BTreeMap<String, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
        let sum = |m: &BTreeMap<String, f64>| {
            g(m, "serve.latency_us.mean") * g(m, "serve.latency_us.count")
        };
        let count = g(&after, "serve.latency_us.count") - g(&before, "serve.latency_us.count");
        probe.mean_residence_us = (sum(&after) - sum(&before)) / count.max(1.0);
        let mean_rtt_us = total_ns as f64 / 1e3 / n.max(1) as f64;
        rep.check(count as usize == n, || {
            format!("{n} probe ADMITs left {count} residence samples")
        });
        let res = probe.mean_residence_us;
        rep.check(res <= mean_rtt_us, || {
            format!(
                "probe mean residence {res:.1} us exceeds its mean round trip {mean_rtt_us:.1} us"
            )
        });
        probe
    }

    /// Graceful `SHUTDOWN`; kills the child if it has not exited within
    /// ten seconds. Returns whether it drained and exited cleanly.
    pub fn stop(mut self) -> bool {
        let asked = Client::connect(self.addr, ClientConfig::default())
            .and_then(|mut c| c.request_shutdown())
            .is_ok();
        let mut child = self.child.take().expect("child present until stop");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[derive(Default)]
pub struct Probe {
    pub latency: LogHist,
    pub mean_residence_us: f64,
    pub ok: u64,
    pub failed: u64,
}

/// Lower bound on the share of `serve.latency_us` samples past the
/// histogram's cap, from the exported quantiles at or above the cap and
/// from the exact mean (no sample exceeds the exact max).
pub fn overflow_share(p50: f64, p99: f64, mean: f64, max: f64) -> f64 {
    let cap = oc_serve::metrics::LATENCY_HI_US;
    let mut share: f64 = 0.0;
    if p99 >= cap {
        share = 0.01;
    }
    if p50 >= cap {
        share = 0.5;
    }
    if mean > cap && max > cap {
        share = share.max((mean - cap) / (max - cap));
    }
    share
}
