//! `serve-ingest`: telemetry agents pushing samples to one `oc-serve`
//! child, as an open loop.
//!
//! One non-blocking generator thread owns two connections, each an
//! agent that sends one `BATCH` frame every [`SEND_PERIOD`] carrying the
//! lines its half of the offered rate accrued; the two are staggered by
//! half a period. Machine `m` is always sent on connection `m % 2`,
//! tick-major, each machine-tick's `OBSERVE` lines followed by one
//! `PREDICT`. Each frame's ack latency is timed from when the frame was
//! due, so a stall also charges the frames queued behind it. A period's
//! lines beyond `MAX_BATCH` go out as further frames due at the same time,
//! so the offered rate is not capped by the frame size.

use crate::child::ServerChild;
use crate::hist::LogHist;
use crate::input::{preset_a, streams, MachineStream};
use crate::layers::{self, observe_req, predict_req};
use crate::procfs;
use crate::report::{median, quiet_cost, quiet_rate, Report};
use crate::span::Tracer;
use crate::Args;
use oc_client::{Client, ClientConfig};
use oc_reactor::{Events, Interest, Poller};
use oc_serve::proto::{encode_batch_into, Request, Response, MAX_BATCH};
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, MachineId};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

const MACHINES: usize = 1000;
/// 30 hours of samples, a day and a quarter, so that the rate search does
/// not run out of input.
const TICKS: u64 = 360;
/// Interval between two frames of one connection. A step whose
/// generator ran later than this at p99 is invalid.
const SEND_PERIOD: Duration = Duration::from_millis(5);
/// Interval between two frame due times (frames alternate connections).
const PERIOD: Duration = Duration::from_micros(2500);
/// The ack-latency limit a search step must meet at p99.
const ACK_LIMIT_US: f64 = 50_000.0;
/// Offered line rate of the reference step, well below saturation.
const REF_RATE: f64 = 40_000.0;
/// The first rate the search offers, and its first step factor.
const SEARCH_FROM: f64 = 160_000.0;
const FIRST_FACTOR: f64 = 2.0;
/// The highest rate the search offers, about sixteen times what the
/// server sustains on a 2-core host, so that the server and not the
/// benchmark caps `ingest_max_rate`.
const SEARCH_TOP: f64 = 5_120_000.0;
/// The finest step factor, well below the metric's bound, and the steps
/// the search takes at it.
const FINEST: f64 = 1.04;
const FINE_STEPS: usize = 16;
/// Offering time of one search step.
const PROBE: Duration = Duration::from_millis(500);
/// A search step that has fallen this far behind (its oldest unanswered
/// frame, or the generator) has failed; it stops offering load, so that
/// an overloaded step does not build a backlog of seconds.
const ABORT_AGE: Duration = Duration::from_millis(250);
/// Due times the generator encodes before it services the sockets again.
const DUE_PER_PUMP: u64 = 4;
/// Width of the windows, by due time, a step's ack latencies are taken
/// over: 40 frames at the reference rate. Short windows let the quiet-side
/// quartile step round host stalls; 0.25 s windows spread twice as much
/// between runs.
const WINDOW: Duration = Duration::from_millis(100);
/// Acked frames a window needs to count.
const WINDOW_MIN_ACKS: u64 = 20;
/// Width of the windows server CPU per line is taken over: whole
/// seconds, because the kernel folds a running thread's CPU into its
/// counters only at scheduler ticks.
const CPU_WINDOW: Duration = Duration::from_secs(1);
/// How long a step may take to drain before its backlog counts as grown.
const DRAIN_LIMIT: Duration = Duration::from_millis(20);
/// Sequential `ADMIT`s of the residence probe.
const PROBES: usize = 1000;
/// Set-ups before the measurement and after it; the median is reported.
const SETUPS: usize = 8;
/// Every `VERIFY_STRIDE`-th machine is checked against the offline
/// recompute after the run.
const VERIFY_STRIDE: usize = 16;

/// One connection's send cursor over its machines, tick-major.
struct Cursor {
    machines: Vec<usize>,
    tick: u64,
    pos: usize,
    sample: usize,
    predicted: bool,
}

impl Cursor {
    /// The next line and, for an `OBSERVE`, its machine index (else
    /// [`NO_MACHINE`]).
    fn next(
        &mut self,
        cell: &CellId,
        streams: &[MachineStream],
        sent: &mut [usize],
    ) -> Option<(Request, u32)> {
        loop {
            let m = *self.machines.get(self.pos)?;
            let st = &streams[m];
            if self.tick >= st.ticks() {
                return None;
            }
            let samples = st.tick(self.tick);
            if self.sample < samples.len() {
                let req = observe_req(cell, st, self.tick, &samples[self.sample]);
                self.sample += 1;
                sent[m] += 1;
                return Some((req, m as u32));
            }
            if !samples.is_empty() && !self.predicted {
                self.predicted = true;
                return Some((predict_req(cell, st.machine), NO_MACHINE));
            }
            self.sample = 0;
            self.predicted = false;
            self.pos += 1;
            if self.pos == self.machines.len() {
                self.pos = 0;
                self.tick += 1;
            }
        }
    }
}

/// `Frame::machines` entry of a line that is not an `OBSERVE`.
const NO_MACHINE: u32 = u32::MAX;

struct Frame {
    due: Instant,
    lines: usize,
    traced: bool,
    /// The machine index of each line's `OBSERVE`, or [`NO_MACHINE`].
    machines: Vec<u32>,
}

struct Conn {
    sock: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    frames: VecDeque<Frame>,
    /// Reply lines still expected for the frame at the queue's head
    /// (`None` until its `BATCHR` header arrives).
    left: Option<usize>,
    cursor: Cursor,
}

#[derive(Default)]
struct Window {
    acks: LogHist,
    late: LogHist,
    /// Lines due in the window.
    lines: u64,
}

impl Window {
    /// A window in which the generator fell behind its schedule by more
    /// than one send period measures the host, not the server: it is
    /// left out rather than counted.
    fn valid(&self) -> bool {
        self.late.quantile(0.99) <= SEND_PERIOD.as_nanos() as f64
            && self.acks.count() >= WINDOW_MIN_ACKS
    }
}

/// What one step of the schedule measured.
#[derive(Default)]
struct Step {
    /// Per-frame ack latency from due time, ns.
    frames: LogHist,
    /// Ack latencies of untraced and traced frames (a traced step
    /// traces every other frame).
    by_trace: [LogHist; 2],
    /// Ack latencies and generator lateness per [`WINDOW`] of due time.
    windows: Vec<Window>,
    /// Server CPU (ns) and lines due, per [`CPU_WINDOW`] of the sending
    /// period.
    cpu: Vec<(u64, u64)>,
    start: Option<Instant>,
    /// How late each frame left the generator, ns.
    late: LogHist,
    sent: u64,
    ok: u64,
    busy: u64,
    err: u64,
    /// Lines still unanswered when the step gave up draining.
    undrained: u64,
    drain: Duration,
    /// The input ran out before the step ended.
    exhausted: bool,
    /// The step fell [`ABORT_AGE`] behind and stopped offering load.
    aborted: bool,
}

impl Step {
    fn window(&mut self, due: Instant) -> &mut Window {
        let start = *self.start.get_or_insert(due);
        let w = (due.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos()) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Window::default);
        }
        &mut self.windows[w]
    }

    fn valid_windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| w.valid())
    }

    /// The quiet-side quartile over the step's valid windows of their
    /// `q`-quantile ack latency, us.
    fn ack_us(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .valid_windows()
            .map(|w| w.acks.quantile(q) / 1e3)
            .collect();
        quiet_cost(&per)
    }

    fn p99_us(&self) -> f64 {
        self.ack_us(0.99)
    }

    fn p50_us(&self) -> f64 {
        self.ack_us(0.5)
    }

    /// The quiet-side quartile of server CPU per line over the step's
    /// [`CPU_WINDOW`]s, us.
    fn cpu_us_per_line(&self) -> f64 {
        let per: Vec<f64> = self
            .cpu
            .iter()
            .filter(|&&(_, lines)| lines > 0)
            .map(|&(ns, lines)| ns as f64 / 1e3 / lines as f64)
            .collect();
        quiet_cost(&per)
    }

    /// Folds a later step at the same rate into this one.
    fn absorb(&mut self, o: Step) {
        self.frames.merge(&o.frames);
        for (h, oh) in self.by_trace.iter_mut().zip(&o.by_trace) {
            h.merge(oh);
        }
        self.windows.extend(o.windows);
        self.cpu.extend(o.cpu);
        self.late.merge(&o.late);
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.err += o.err;
        self.undrained += o.undrained;
        self.drain = self.drain.max(o.drain);
        self.exhausted |= o.exhausted;
        self.aborted |= o.aborted;
    }

    /// A step counts only if at least half of its windows are valid.
    fn valid(&self) -> bool {
        !self.exhausted && 2 * self.valid_windows().count() >= self.windows.len().max(1)
    }

    /// Whether the server kept up: ack p99 within the limit, the backlog
    /// drained at once, and no line refused. A `BUSY` reply fails the step
    /// it came in, and only that step.
    fn passed(&self) -> bool {
        self.valid()
            && !self.aborted
            && self.p99_us() <= ACK_LIMIT_US
            && self.undrained == 0
            && self.drain <= DRAIN_LIMIT
            && self.busy + self.err == 0
    }
}

impl Conn {
    fn write_out(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Reads and accounts the replies that have arrived. A `BUSY` reply to
    /// an `OBSERVE` counts against the machine in `rejected`: its served
    /// state then lacks that sample.
    fn read_acks(
        &mut self,
        step: &mut Step,
        buf: &mut [u8],
        rejected: &mut [usize],
    ) -> std::io::Result<()> {
        loop {
            match self.sock.read(buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        let mut start = 0;
        while let Some(nl) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.inbuf[start..start + nl];
            start += nl + 1;
            match self.left {
                None => {
                    let n = std::str::from_utf8(line)
                        .ok()
                        .and_then(|l| l.strip_prefix("BATCHR "))
                        .and_then(|n| n.parse::<usize>().ok());
                    let expected = self.frames.front().map(|f| f.lines);
                    if n.is_none() || n != expected {
                        return Err(std::io::Error::other(format!(
                            "expected BATCHR {expected:?}, got {:?}",
                            String::from_utf8_lossy(line)
                        )));
                    }
                    self.left = n;
                }
                Some(left) => {
                    if line == b"OK" || line.starts_with(b"PRED ") {
                        step.ok += 1;
                    } else if line == b"BUSY" {
                        step.busy += 1;
                        let f = self
                            .frames
                            .front()
                            .expect("a reply belongs to a sent frame");
                        let m = f.machines[f.lines - left];
                        if m != NO_MACHINE {
                            rejected[m as usize] += 1;
                        }
                    } else {
                        step.err += 1;
                    }
                    if left == 1 {
                        let f = self
                            .frames
                            .pop_front()
                            .expect("a reply belongs to a sent frame");
                        let lat = now.duration_since(f.due).as_nanos() as u64;
                        step.frames.record(lat);
                        step.by_trace[usize::from(f.traced)].record(lat);
                        step.window(f.due).acks.record(lat);
                        self.left = None;
                    } else {
                        self.left = Some(left - 1);
                    }
                }
            }
        }
        self.inbuf.drain(..start);
        Ok(())
    }

    fn unanswered(&self) -> u64 {
        let head_answered = match (self.left, self.frames.front()) {
            (Some(left), Some(f)) => f.lines - left,
            _ => 0,
        };
        self.frames.iter().map(|f| f.lines as u64).sum::<u64>() - head_answered as u64
    }

    /// How long the oldest unanswered frame has been due.
    fn oldest(&self, now: Instant) -> Duration {
        self.frames
            .front()
            .map_or(Duration::ZERO, |f| now.saturating_duration_since(f.due))
    }
}

struct Engine<'a> {
    cell: CellId,
    server_pid: u32,
    streams: &'a [MachineStream],
    conns: Vec<Conn>,
    /// Samples sent, per machine.
    sent: Vec<usize>,
    /// Samples the server refused with `BUSY`, per machine.
    rejected: Vec<usize>,
    /// Lines in the input, and lines offered so far.
    input_lines: u64,
    offered: u64,
    poller: Poller,
    events: Events,
    buf: Vec<u8>,
    reqs: Vec<Request>,
}

impl<'a> Engine<'a> {
    fn new(server: &ServerChild, streams: &'a [MachineStream]) -> std::io::Result<Engine<'a>> {
        let addr = server.addr;
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for c in 0..2 {
            let sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            poller.register(sock.as_raw_fd(), c, Interest::READABLE)?;
            conns.push(Conn {
                sock,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                frames: VecDeque::new(),
                left: None,
                cursor: Cursor {
                    machines: (c..streams.len()).step_by(2).collect(),
                    tick: 0,
                    pos: 0,
                    sample: 0,
                    predicted: false,
                },
            });
        }
        Ok(Engine {
            cell: CellId::new("a"),
            server_pid: server.pid,
            streams,
            conns,
            sent: vec![0; streams.len()],
            rejected: vec![0; streams.len()],
            input_lines: streams
                .iter()
                .map(|st| {
                    let ticks = (0..st.ticks()).filter(|&i| !st.tick(i).is_empty()).count();
                    (st.len() + ticks) as u64
                })
                .sum(),
            offered: 0,
            poller,
            events: Events::with_capacity(8),
            buf: vec![0; 64 * 1024],
            reqs: Vec::with_capacity(MAX_BATCH),
        })
    }

    fn pump(&mut self, step: &mut Step) -> std::io::Result<()> {
        for c in &mut self.conns {
            c.write_out()?;
            c.read_acks(step, &mut self.buf, &mut self.rejected)?;
        }
        Ok(())
    }

    fn idle(&self) -> bool {
        self.conns
            .iter()
            .all(|c| c.frames.is_empty() && c.out.is_empty())
    }

    /// Offers `rate` lines/s for `dur`, then drains. Lines are encoded
    /// into frames as they fall due; with an enabled tracer every other
    /// due time's frames are encoded inside `encode_batch_into` spans.
    /// With `abort`, the step stops offering load once it is
    /// [`ABORT_AGE`] behind.
    fn run(
        &mut self,
        rate: f64,
        dur: Duration,
        tr: &mut Tracer,
        drain_wait: Duration,
        abort: bool,
    ) -> std::io::Result<Step> {
        let start = Instant::now() + Duration::from_millis(1);
        let mut step = Step {
            start: Some(start),
            ..Step::default()
        };
        // Server CPU at every CPU-window boundary while sending.
        let full_windows = (dur.as_nanos() / CPU_WINDOW.as_nanos()) as usize;
        let mut cpu_marks = Vec::with_capacity(full_windows + 1);
        let frames_due = (dur.as_nanos() / PERIOD.as_nanos()) as u64;
        let per_due = rate * PERIOD.as_secs_f64();
        let mut k = 0u64;
        let mut carry = 0.0;
        let mut send_end = None;
        let mut off = Tracer::new(false, tr.epoch());
        loop {
            let now = Instant::now();
            if cpu_marks.len() <= full_windows && now >= start + CPU_WINDOW * cpu_marks.len() as u32
            {
                cpu_marks.push(procfs::live_cpu_ns(self.server_pid));
            }
            let mut encoded = 0;
            while k < frames_due && encoded < DUE_PER_PUMP && start + PERIOD * k as u32 <= now {
                let due = start + PERIOD * k as u32;
                carry += per_due;
                let mut n = carry.floor() as usize;
                carry -= n as f64;
                let c = &mut self.conns[(k % 2) as usize];
                let traced = tr.enabled() && k % 2 == 1;
                while n > 0 {
                    self.reqs.clear();
                    let mut machines = Vec::with_capacity(n.min(MAX_BATCH));
                    while self.reqs.len() < n.min(MAX_BATCH) {
                        match c.cursor.next(&self.cell, self.streams, &mut self.sent) {
                            Some((r, m)) => {
                                self.reqs.push(r);
                                machines.push(m);
                            }
                            None => {
                                step.exhausted = true;
                                break;
                            }
                        }
                    }
                    if self.reqs.is_empty() {
                        break;
                    }
                    n -= self.reqs.len();
                    let (reqs, out) = (&self.reqs, &mut c.out);
                    let t = if traced { &mut *tr } else { &mut off };
                    t.span("serve.proto.encode_batch_into", k, |_| {
                        encode_batch_into(reqs, out)
                    });
                    c.frames.push_back(Frame {
                        due,
                        lines: self.reqs.len(),
                        traced,
                        machines,
                    });
                    step.sent += self.reqs.len() as u64;
                    self.offered += self.reqs.len() as u64;
                    step.window(due).lines += self.reqs.len() as u64;
                    let late = now.duration_since(due).as_nanos() as u64;
                    step.late.record(late);
                    step.window(due).late.record(late);
                }
                k += 1;
                encoded += 1;
            }
            self.pump(&mut step)?;
            if abort && k < frames_due {
                let now = Instant::now();
                let behind = now.saturating_duration_since(start + PERIOD * k as u32);
                let oldest = self.conns.iter().map(|c| c.oldest(now)).max();
                if behind.max(oldest.unwrap_or_default()) > ABORT_AGE {
                    step.aborted = true;
                    k = frames_due;
                }
            }
            if k >= frames_due {
                let end = *send_end.get_or_insert_with(Instant::now);
                if self.idle() {
                    step.drain = end.elapsed();
                    break;
                }
                if end.elapsed() > drain_wait {
                    step.drain = end.elapsed();
                    step.undrained = self.conns.iter().map(Conn::unanswered).sum();
                    break;
                }
            }
            let next = if k < frames_due {
                let frame = start + PERIOD * k as u32;
                let mark = start + CPU_WINDOW * cpu_marks.len() as u32;
                if cpu_marks.len() <= full_windows {
                    frame.min(mark)
                } else {
                    frame
                }
            } else {
                Instant::now() + Duration::from_millis(2)
            };
            let wait = next.saturating_duration_since(Instant::now());
            // Whole milliseconds wait on the sockets (waking at once for
            // an ack); the sub-millisecond rest sleeps, so the generator
            // never spins against the server for a core.
            if wait >= Duration::from_millis(1) {
                let whole = Duration::from_millis(wait.as_millis() as u64);
                self.poller.wait(&mut self.events, Some(whole))?;
            } else if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let per_cpu_window = (CPU_WINDOW.as_nanos() / WINDOW.as_nanos()) as usize;
        step.cpu = cpu_marks
            .windows(2)
            .enumerate()
            .map(|(i, p)| {
                let lines = step.windows.iter().skip(i * per_cpu_window);
                let lines = lines.take(per_cpu_window).map(|w| w.lines).sum();
                (p[1] - p[0], lines)
            })
            .collect();
        Ok(step)
    }

    /// Waits until every outstanding frame is answered (bounded).
    fn settle(&mut self, step: &mut Step) -> std::io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.idle() && Instant::now() < deadline {
            self.pump(step)?;
            self.poller
                .wait(&mut self.events, Some(Duration::from_millis(5)))?;
        }
        step.undrained = self.conns.iter().map(Conn::unanswered).sum();
        Ok(())
    }
}

pub fn counter(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

/// Server-side counters at one instant.
struct Snapshot {
    at: Instant,
    cpu: procfs::Cpu,
    cpu_ns: u64,
    ctx: u64,
    metrics: BTreeMap<String, f64>,
}

impl Snapshot {
    fn take(server: &ServerChild) -> Snapshot {
        Snapshot {
            at: Instant::now(),
            cpu: procfs::cpu(server.pid).unwrap_or_default(),
            cpu_ns: procfs::live_cpu_ns(server.pid),
            ctx: procfs::ctx_switches(server.pid),
            metrics: server.metrics(),
        }
    }
}

/// Starts the server and connects the generator; returns the set-up time.
fn set_up(streams: &[MachineStream]) -> std::io::Result<(ServerChild, Engine<'_>, f64)> {
    let t0 = Instant::now();
    let server = ServerChild::start()?;
    let engine = Engine::new(&server, streams)?;
    Ok((server, engine, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> std::io::Result<()> {
    let cfg = preset_a(args.seed, MACHINES, TICKS);
    let streams = streams(&cfg, 2);
    let total_lines: usize = streams.iter().map(MachineStream::len).sum();
    println!("serve-ingest: {MACHINES} machines x {TICKS} ticks, {total_lines} samples");

    let mut setups = Vec::new();
    let (mut server, mut engine, s) = set_up(&streams)?;
    setups.push(s);
    for _ in 1..SETUPS {
        drop(engine);
        server.stop();
        let (sv, en, s) = set_up(&streams)?;
        (server, engine) = (sv, en);
        setups.push(s);
    }

    let secs = args.seconds as f64;
    let mut untraced = Tracer::new(false, tr.epoch());
    // A traced run spends its whole time on the reference step, tracing
    // every other frame. An untraced one spends half of it on the
    // reference step, in two parts before and after the search, so that
    // one busy moment on the host does not decide the figures.
    let (ref_secs, ref_tr) = if args.trace {
        (secs, &mut *tr)
    } else {
        (secs * 0.25, &mut untraced)
    };
    let w0 = Snapshot::take(&server);
    let reference = engine.run(
        REF_RATE,
        Duration::from_secs_f64(ref_secs),
        ref_tr,
        Duration::from_secs(2),
        false,
    )?;
    let w1 = Snapshot::take(&server);
    // Peak memory over set-up and the fixed-rate step, before the search
    // decides how far the stream advances.
    rep.metric(
        "peak_rss_mb",
        procfs::peak_rss_mb(server.pid).unwrap_or(0.0),
        "MB",
    );
    let wall = w1.at.duration_since(w0.at).as_secs_f64();
    let cpu = w1.cpu.since(&w0.cpu);
    let cpu_s = (w1.cpu_ns - w0.cpu_ns) as f64 / 1e9;
    let ops = reference.sent as f64;
    print_reference(&reference);
    rep.check_cpu("server, reference step", cpu_s, wall);
    let delta = |name: &str| counter(&w1.metrics, name) - counter(&w0.metrics, name);

    let mut steps = vec![reference];
    let mut all_frames = LogHist::new();
    let mut late = LogHist::new();

    if args.trace {
        let [plain, traced] = steps[0].by_trace.each_ref().map(|h| h.quantile(0.5));
        rep.metric(
            "bench.trace_overhead_pct",
            (traced - plain) / plain * 100.0,
            "%",
        );
        let mut replay_tr = Tracer::new(true, tr.epoch());
        let reqs = replay_stream(&engine.cell, &streams);
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
        let observes = delta("serve.observes");
        let predicts = delta("serve.predict.cache_miss");
        let accounted = costs.parse_ns * ops
            + costs.apply_ns * observes
            + costs.predictor_ns[3] * predicts
            + costs.format_ns * ops;
        rep.metric(
            "serve.unaccounted_ns_per_op",
            (cpu_s * 1e9 - accounted) / ops,
            "ns",
        );
        rep.metric(
            "serve.ctx_switches_per_op",
            (w1.ctx - w0.ctx) as f64 / ops,
            "count",
        );
        rep.metric(
            "serve.cpu.sys_share",
            cpu.sys_s / cpu.total_s().max(1e-9),
            "ratio",
        );
        rep.metric(
            "serve.reactor.wakeups_per_op",
            delta("serve.reactor.wakeups") / ops,
            "count",
        );
        rep.metric(
            "serve.coalesce_ratio",
            delta("serve.batch.coalesced") / observes.max(1.0),
            "ratio",
        );
        rep.metric("serve.busy_ratio", delta("serve.busy") / ops, "ratio");
    } else {
        // A staircase: the offered rate rises by the step factor after a
        // passing step and falls by its square after a failing one, so it
        // settles where about two steps in three pass. The factor starts
        // at `FIRST_FACTOR` and shrinks to its square root at every change
        // of direction, down to `FINEST`; a step that failed by chance
        // costs a few steps, not the search. The host's load moves the
        // staircase over the run; the upper quartile of the rates passed
        // at the finest factor is the quiet-side figure. The reference
        // rate is the floor.
        let mut rate = SEARCH_FROM;
        let mut factor = FIRST_FACTOR;
        let mut last = None;
        let mut passed_at = Vec::new();
        let mut fine = 0;
        while fine < FINE_STEPS {
            let reserve = REF_RATE * ref_secs;
            let Some(passed) = search_step(&mut engine, rate, reserve, &mut steps)? else {
                break;
            };
            if last.is_some_and(|l| l != passed) {
                factor = factor.sqrt().max(FINEST);
            }
            last = Some(passed);
            if factor <= FINEST {
                fine += 1;
                if passed {
                    passed_at.push(rate);
                }
            }
            rate = if passed {
                (rate * factor).min(SEARCH_TOP)
            } else {
                (rate / (factor * factor)).max(REF_RATE)
            };
        }
        let max_rate = if passed_at.is_empty() {
            println!("warning: no step passed at the finest factor");
            REF_RATE
        } else {
            quiet_rate(&passed_at)
        };
        rep.metric("ops_per_s", max_rate, "1/s");
        let second = engine.run(
            REF_RATE,
            Duration::from_secs_f64(ref_secs),
            &mut untraced,
            Duration::from_secs(2),
            false,
        )?;
        print_reference(&second);
        steps[0].absorb(second);
        rep.metric("latency_p50_us", steps[0].p50_us(), "us");
        rep.metric("latency_p99_us", steps[0].p99_us(), "us");
        rep.metric("latency_samples", steps[0].frames.count() as f64, "count");
        rep.metric("cpu_us_per_op", steps[0].cpu_us_per_line(), "us");
    }
    // Accounting over every step, then the state check, outside timing.
    // `BUSY` replies count as failed operations only in the reference
    // step, which runs far below saturation; in a search step they only
    // fail that step.
    let (mut sent, mut acked, mut refused, mut errors) = (0, 0, 0, 0);
    for s in &steps {
        all_frames.merge(&s.frames);
        late.merge(&s.late);
        sent += s.sent;
        acked += s.ok;
        refused += s.busy;
        errors += s.err;
    }
    rep.check(steps.iter().all(|s| !s.exhausted), || {
        format!("the input ({total_lines} samples) ran out during the run")
    });
    rep.check_hist("client frame ack latency", &all_frames);
    rep.check_accounting("serve-ingest lines", acked, refused + errors, sent);
    let failed = errors + steps[0].busy;
    let probe_machines: Vec<MachineId> = streams
        .iter()
        .zip(&engine.sent)
        .filter(|(_, &n)| n > 0)
        .map(|(st, _)| st.machine)
        .step_by(VERIFY_STRIDE)
        .collect();
    let probe = server.admit_probe(rep, &engine.cell, &probe_machines, PROBES);
    server.residence(rep);
    let final_metrics = server.metrics();
    let observed: usize = engine.sent.iter().sum::<usize>() - engine.rejected.iter().sum::<usize>();
    let lost = (observed as f64 - counter(&final_metrics, "serve.observes")).max(0.0) as u64
        + counter(&final_metrics, "serve.stale") as u64
        + counter(&final_metrics, "serve.errors") as u64;
    if args.trace {
        rep.metric("bench.gen_late_p99_us", late.quantile(0.99) / 1e3, "us");
    }
    // A machine with a refused sample lacks it on the server, so it has
    // no offline recompute to match and is left out.
    let sampled = streams.len().div_ceil(VERIFY_STRIDE);
    let checked: Vec<usize> = (0..streams.len())
        .step_by(VERIFY_STRIDE)
        .filter(|&m| engine.rejected[m] == 0)
        .collect();
    let mismatches = verify(&server, &engine.cell, &streams, &engine.sent, &checked);
    println!(
        "verify: {mismatches} mismatches over {} of {sampled} sampled machines \
         (the others had refused samples), {lost} lost, {refused} refused",
        checked.len()
    );
    rep.check(!checked.is_empty(), || {
        "every sampled machine had a refused sample; nothing was verified".to_string()
    });
    rep.attempted = sent + probe.ok + probe.failed;
    let unanswered = sent.saturating_sub(acked + refused + errors);
    rep.failed = failed + unanswered + lost + mismatches + probe.failed;
    if args.trace {
        rep.metric(
            "error_ratio",
            rep.failed as f64 / rep.attempted as f64,
            "ratio",
        );
    }
    drop(engine);
    rep.check(server.stop(), || {
        "the server did not drain and exit cleanly".to_string()
    });
    // The second half of the set-ups, a run's length after the first, so
    // that one busy moment on the host does not decide the figure.
    for _ in 0..SETUPS {
        let (server, engine, s) = set_up(&streams)?;
        drop(engine);
        server.stop();
        setups.push(s);
    }
    rep.metric("setup_s", median(&setups), "s");
    Ok(())
}

fn print_reference(step: &Step) {
    println!(
        "reference step: {REF_RATE} lines/s, {} frames, ack p50 {:.1} us p99 {:.1} us, \
         late p99 {:.1} us, valid {}",
        step.frames.count(),
        step.p50_us(),
        step.p99_us(),
        step.late.quantile(0.99) / 1e3,
        step.valid()
    );
    if !step.valid() {
        println!("warning: the generator ran late in most of the reference step's windows");
    } else if !step.passed() {
        println!("warning: the server did not keep up with the reference rate");
    }
}

/// Offers `rate` for one [`PROBE`] and reports whether the server kept up.
/// A failed step is drained before the next one starts. Returns `None`,
/// ending the search early, when the input left might not last the step
/// and the `reserve` lines still needed after the search.
fn search_step(
    engine: &mut Engine,
    rate: f64,
    reserve: f64,
    steps: &mut Vec<Step>,
) -> std::io::Result<Option<bool>> {
    let left = engine.input_lines - engine.offered;
    // Twice over, as the two connections' halves of the input differ a
    // little.
    if (left as f64) < 2.0 * (rate * PROBE.as_secs_f64() + reserve) {
        println!("search ends early: {left} input lines left");
        return Ok(None);
    }
    let mut off = Tracer::new(false, Instant::now());
    let mut step = engine.run(rate, PROBE, &mut off, DRAIN_LIMIT, true)?;
    let passed = step.passed();
    println!(
        "search step: {rate:.0} lines/s, {} frames, ack p50 {:.1} us p99 {:.1} us, late p99 {:.1} us, \
         drain {:.2} ms, busy {}, aborted {}, valid {}, passed {passed}",
        step.frames.count(),
        step.p50_us(),
        step.p99_us(),
        step.late.quantile(0.99) / 1e3,
        step.drain.as_secs_f64() * 1e3,
        step.busy,
        step.aborted,
        step.valid(),
    );
    if !passed {
        engine.settle(&mut step)?;
    }
    steps.push(step);
    Ok(Some(passed))
}

/// The line stream of every 16th machine, tick-major, as the
/// generator sends it: each machine-tick's observes, then a predict.
fn replay_stream(cell: &CellId, streams: &[MachineStream]) -> Vec<Request> {
    let picked: Vec<&MachineStream> = streams.iter().step_by(VERIFY_STRIDE).collect();
    let mut reqs = Vec::new();
    for i in 0..TICKS {
        for st in &picked {
            let samples = st.tick(i);
            for s in samples {
                reqs.push(observe_req(cell, st, i, s));
            }
            if !samples.is_empty() {
                reqs.push(predict_req(cell, st.machine));
            }
        }
    }
    reqs
}

/// Compares the served prediction of each machine in `machines` (indices
/// into `streams`) with the offline recompute over exactly the samples it
/// was sent. Returns the mismatch count.
pub fn verify(
    server: &ServerChild,
    cell: &CellId,
    streams: &[MachineStream],
    sent: &[usize],
    machines: &[usize],
) -> u64 {
    let Ok(mut client) = Client::connect(server.addr, ClientConfig::default()) else {
        return machines.len() as u64;
    };
    let mut mismatches = 0;
    for &m in machines {
        let st = &streams[m];
        let served = client.request(&predict_req(cell, st.machine));
        let ok = match (layers::expected_prediction(st, sent[m]), served) {
            (Some(want), Ok(Response::Pred { peak, .. })) => peak.to_bits() == want.to_bits(),
            (None, Ok(Response::Err { .. })) => true,
            _ => false,
        };
        if !ok {
            mismatches += 1;
        }
    }
    mismatches
}
