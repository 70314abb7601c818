//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records which layer call it wraps, when it started and ended,
//! the span that caused it and the request it belongs to, plus the
//! allocations the calling thread made inside it (non-zero only in the
//! traced binary). Spans stay in memory until the run ends; a layer's
//! self time is its spans' durations minus the part their child spans
//! cover ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layer call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One request, from the benchmark's point of view (container).
    Request,
    /// `Scenario::experiments` and `Experiment::job`.
    DesignsBuild,
    /// `EvalSession::model`.
    ModelBuild,
    /// The drain loop over one mapspace's candidate stream (container).
    Search,
    /// `Mapper::delta_candidates` and each `next()` on its stream.
    Generate,
    /// `WorkerEvaluator::precheck`.
    Precheck,
    /// `WorkerEvaluator::evaluate`, and `Model::evaluate` of fixed
    /// mappings and search winners.
    Evaluate,
    /// `yaml::parse_document`.
    SpecParse,
    /// `compile_str`.
    SpecCompile,
    /// `Model::search_shard_counted` for one shard.
    ShardSearch,
    /// `merge_shard_results`.
    Merge,
    /// `protocol::encode_payload` plus `decode_payload` of one frame.
    Codec,
    /// `FleetPool::run_spec`.
    FleetRoundTrip,
    /// In-process `compile_str` + `Scenario::run` of the same spec.
    InprocRun,
    /// `EvalService::submit` through `Ticket::wait` of one spec.
    ServeRequest,
    /// `ObsHub::snapshot` + `MetricsSnapshot::render_text`.
    ObsRender,
}

impl Layer {
    /// The span name written out with the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::DesignsBuild => "designs.build",
            Layer::ModelBuild => "core.model_build",
            Layer::Search => "mapping.search",
            Layer::Generate => "mapping.generate",
            Layer::Precheck => "core.precheck",
            Layer::Evaluate => "core.evaluate",
            Layer::SpecParse => "spec.parse",
            Layer::SpecCompile => "spec.compile",
            Layer::ShardSearch => "mapping.shard",
            Layer::Merge => "mapping.merge",
            Layer::Codec => "serve.codec",
            Layer::FleetRoundTrip => "serve.fleet_roundtrip",
            Layer::InprocRun => "serve.inproc_run",
            Layer::ServeRequest => "serve.request",
            Layer::ObsRender => "obs.render",
        }
    }
}

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The wrapped call.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time (`>= start`).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to.
    pub request: u32,
    /// Allocations the calling thread made inside the span.
    pub allocs: u64,
}

/// Records spans, or does nothing when disabled: a disabled recorder
/// runs the same calls without reading the clock or the allocation
/// counter, which is how the tracing overhead is measured.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a container span; close it with [`close`](Self::close).
    /// Returns `None` when disabled.
    pub fn open(&mut self, layer: Layer, parent: Option<SpanId>, request: u32) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            request,
            allocs: crate::alloc::allocations(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now();
            let span = &mut self.spans[id];
            span.end = end;
            span.allocs = crate::alloc::allocations() - span.allocs;
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let a0 = crate::alloc::allocations();
        let start = self.now();
        let out = f();
        let end = self.now();
        let a1 = crate::alloc::allocations();
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
            request,
            allocs: a1 - a0,
        });
        out
    }

    /// Records a span the caller timed itself, for a call whose timing
    /// also feeds a figure of its own.
    pub fn record(
        &mut self,
        layer: Layer,
        parent: Option<SpanId>,
        request: u32,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                layer,
                start: at(start),
                end: at(end).max(at(start)),
                parent,
                request,
                allocs: 0,
            });
        }
    }

    /// Duration of the most recently recorded span, in nanoseconds (0
    /// when disabled or empty).
    pub fn last_nanos(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end - s.start)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every recorded span (keeps the buffer).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals (clipped to the span itself). Index-aligned
/// with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time and allocations summed per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_nanos: u64,
    /// Summed allocations made inside the layer's spans.
    pub allocs: u64,
    /// Spans recorded.
    pub calls: u64,
}

/// Sums [`self_times`] and allocations per layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<Layer, LayerTotal> {
    let mut totals: BTreeMap<Layer, LayerTotal> = BTreeMap::new();
    for (s, self_nanos) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.layer).or_default();
        t.self_nanos += self_nanos;
        t.allocs += s.allocs;
        t.calls += 1;
    }
    totals
}

/// Writes spans as tab-separated lines: request, id, parent (`-` for a
/// root), name, start and end nanoseconds, allocations.
pub fn write_tsv(out: &mut dyn Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns\tallocs")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.request,
            s.layer.name(),
            s.start,
            s.end,
            s.allocs
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            request: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(Layer::Request, 0, 100, None),
            // overlapping children cover 10..50, not 30 + 30
            span(Layer::ModelBuild, 10, 40, Some(0)),
            span(Layer::Generate, 20, 50, Some(0)),
            // a child sticking out of its parent counts only inside it
            span(Layer::Evaluate, 90, 120, Some(0)),
            // a grandchild is not subtracted from the root
            span(Layer::Precheck, 12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 40 - 10, 30 - 8, 30, 30, 8]);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            span(Layer::Search, 0, 50, None),
            span(Layer::Generate, 0, 10, Some(0)),
            span(Layer::Precheck, 5, 8, Some(0)),
            span(Layer::Evaluate, 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn layer_totals_sum_self_times() {
        let spans = [
            span(Layer::Request, 0, 100, None),
            span(Layer::Generate, 0, 10, Some(0)),
            span(Layer::Generate, 50, 60, Some(0)),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals[&Layer::Generate].self_nanos, 20);
        assert_eq!(totals[&Layer::Generate].calls, 2);
        assert_eq!(totals[&Layer::Request].self_nanos, 80);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open(Layer::Request, None, 0);
        assert_eq!(rec.time(Layer::Generate, id, 0, || 7), 7);
        rec.close(id);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_parents_spans() {
        let mut rec = Recorder::new(true);
        let id = rec.open(Layer::Request, None, 3);
        rec.time(Layer::Generate, id, 3, || ());
        rec.close(id);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
