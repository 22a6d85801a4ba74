//! Offline recompute of served predictions, and the in-process replay
//! that times the codec, `IncrementalView` and predictor layers on a
//! workload's own line stream.

use crate::input::{tick_of, MachineStream, Sample};
use crate::span::Tracer;
use oc_core::ingest::IncrementalView;
use oc_core::predictor::{clamp_prediction, PeakPredictor, PredictorSpec};
use oc_serve::proto::{ProtoScratch, Request, Response};
use oc_serve::ServeConfig;
use oc_trace::ids::{CellId, MachineId};
use oc_trace::time::Tick;
use std::collections::HashMap;
use std::hint::black_box;

/// Per-layer span names of the comparison-set predictors, in
/// `PredictorSpec::comparison_set()` order.
pub const PREDICTOR_SPANS: [&str; 4] = [
    "core.predictor.borg",
    "core.predictor.rc",
    "core.predictor.nsigma",
    "core.predictor.max",
];

/// A machine view shaped exactly as an `oc-serve` shard creates one.
pub fn serve_view() -> IncrementalView {
    let cfg = ServeConfig::default();
    IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap)
}

/// The prediction a server must serve for `stream` after ingesting its
/// first `sent` samples, or `None` when it was sent nothing.
pub fn expected_prediction(stream: &MachineStream, sent: usize) -> Option<f64> {
    if sent == 0 {
        return None;
    }
    let predictor = ServeConfig::default()
        .predictor
        .build()
        .expect("the default serve predictor builds");
    let mut view = serve_view();
    let mut left = sent;
    for i in 0..stream.ticks() {
        for s in stream.tick(i).iter().take(left) {
            view.ingest(tick_of(stream, i), s.task, s.limit, s.usage)
                .expect("generated samples are valid and in order");
        }
        left = left.saturating_sub(stream.tick(i).len());
        if left == 0 {
            break;
        }
    }
    view.flush();
    Some(clamp_prediction(
        predictor.predict(view.view()),
        view.view(),
    ))
}

pub fn observe_req(cell: &CellId, m: &MachineStream, i: u64, s: &Sample) -> Request {
    Request::Observe {
        cell: cell.clone(),
        machine: m.machine,
        task: s.task,
        usage: s.usage,
        limit: s.limit,
        mem: None,
        tick: tick_of(m, i).0,
    }
}

pub fn predict_req(cell: &CellId, machine: MachineId) -> Request {
    Request::Predict {
        cell: cell.clone(),
        machine,
        vector: false,
    }
}

/// Mean per-call costs from one in-process replay, ns.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    pub parse_ns: f64,
    /// `IncrementalView::ingest` plus `flush`, per ingested sample.
    pub apply_ns: f64,
    pub format_ns: f64,
    /// Per comparison-set predictor, in [`PREDICTOR_SPANS`] order.
    pub predictor_ns: [f64; 4],
}

/// Parses, applies and answers `reqs` in-process, the way a shard and a
/// connection would, with one span per call into each layer.
pub fn replay(tr: &mut Tracer, reqs: &[Request]) -> LayerCosts {
    let predictors: Vec<Box<dyn PeakPredictor>> = PredictorSpec::comparison_set()
        .iter()
        .map(|s| s.build().expect("comparison-set predictors build"))
        .collect();
    let capacity = ServeConfig::default().machine_capacity;
    let lines: Vec<String> = reqs.iter().map(Request::encode).collect();
    let mut scratch = ProtoScratch::new();
    let mut views: HashMap<MachineId, IncrementalView> = HashMap::new();
    let mut out = Vec::with_capacity(64);
    let mut observes = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64;
        let req = tr
            .span("serve.proto.parse_in", id, |_| {
                Request::parse_in(line, &mut scratch)
            })
            .expect("the benchmark's own lines parse");
        let resp = match req {
            Request::Observe {
                machine,
                task,
                usage,
                limit,
                tick,
                ..
            } => {
                observes += 1;
                let view = views.entry(machine).or_insert_with(serve_view);
                tr.span("core.ingest.ingest", id, |_| {
                    view.ingest(Tick(tick), task, limit, usage)
                })
                .expect("the benchmark's own samples ingest");
                Response::Ok
            }
            Request::Predict { machine, .. } | Request::Admit { machine, .. } => {
                let view = views.entry(machine).or_insert_with(serve_view);
                tr.span("core.ingest.flush", id, |_| view.flush());
                let mut peak = 0.0;
                for (name, p) in PREDICTOR_SPANS.iter().zip(&predictors) {
                    peak = tr.span(name, id, |_| black_box(p.predict(black_box(view.view()))));
                }
                // The last comparison-set policy is the served one.
                let peak = clamp_prediction(peak, view.view());
                match req {
                    Request::Admit { limit, .. } => Response::Admitted {
                        admit: peak + limit <= capacity,
                        projected: peak + limit,
                    },
                    _ => Response::Pred { peak, mem: None },
                }
            }
            other => panic!("replay streams hold data-plane verbs only, got {other:?}"),
        };
        tr.span("serve.proto.encode_into", id, |_| {
            out.clear();
            resp.encode_into(&mut out);
        });
    }
    let per = |name: &str| tr.totals(name).self_per_call();
    let apply = tr.totals("core.ingest.ingest").self_ns + tr.totals("core.ingest.flush").self_ns;
    LayerCosts {
        parse_ns: per("serve.proto.parse_in"),
        apply_ns: if observes == 0 {
            0.0
        } else {
            apply as f64 / observes as f64
        },
        format_ns: per("serve.proto.encode_into"),
        predictor_ns: PREDICTOR_SPANS.map(per),
    }
}
