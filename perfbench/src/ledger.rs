//! The traced replay's span ledger.
//!
//! Every thread of the replay owns one [`ThreadTrace`]: spans are timed from
//! the benchmark's own code around each call into a layer, kept in memory and
//! merged once the threads have joined. Each layer's total *self* time and
//! call count is accumulated for every call; the span list itself is capped
//! for per-variant calls (a sweep makes millions of them), while the coarse
//! spans — shard drains, registry calls, requests — are always kept.
//!
//! The ledger closes by construction: per thread, wall time = Σ layer self
//! times + idle time + an explicit `unattributed` residue (drain-loop
//! bookkeeping and anything else no span covers).

use std::fmt::Write as _;
use std::time::Instant;

/// A timed layer boundary. Every variant except [`Layer::Drain`] is a leaf:
/// its self time is its duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    SpaceChoice,
    Flatten,
    EvaluatorBound,
    BridgeCompile,
    PartitionSearch,
    ReportRecord,
    RegistrySubmit,
    RegistryLease,
    RegistryFlush,
    RegistryLockWait,
    WireDecode,
    WireEncode,
    WalRecovery,
    /// Waiting for work (workers) or for an answer (client).
    Idle,
    /// One leased shard's drain; parent of the per-variant and flush spans.
    Drain,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::SpaceChoice,
        Layer::Flatten,
        Layer::EvaluatorBound,
        Layer::BridgeCompile,
        Layer::PartitionSearch,
        Layer::ReportRecord,
        Layer::RegistrySubmit,
        Layer::RegistryLease,
        Layer::RegistryFlush,
        Layer::RegistryLockWait,
        Layer::WireDecode,
        Layer::WireEncode,
        Layer::WalRecovery,
        Layer::Idle,
        Layer::Drain,
    ];

    /// The per-layer metric the layer's self time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::SpaceChoice => "space.choice_ns",
            Layer::Flatten => "flatten.ns",
            Layer::EvaluatorBound => "evaluator.bound_ns",
            Layer::BridgeCompile => "bridge.compile_ns",
            Layer::PartitionSearch => "partition.search_ns",
            Layer::ReportRecord => "report.record_ns",
            Layer::RegistrySubmit => "registry.submit_ns",
            Layer::RegistryLease => "registry.lease_ns",
            Layer::RegistryFlush => "registry.flush_ns",
            Layer::RegistryLockWait => "registry.lock_wait_ns",
            Layer::WireDecode => "wire.decode_ns",
            Layer::WireEncode => "wire.encode_ns",
            Layer::WalRecovery => "wal.recovery_ns",
            Layer::Idle => "idle_ns",
            Layer::Drain => "worker.drain_self_ns",
        }
    }

    /// Per-variant layers, whose spans are subject to the span cap.
    fn per_variant(self) -> bool {
        matches!(
            self,
            Layer::SpaceChoice
                | Layer::Flatten
                | Layer::EvaluatorBound
                | Layer::BridgeCompile
                | Layer::PartitionSearch
                | Layer::ReportRecord
        )
    }

    /// Whether the layer's self time is a named layer of the ledger (idle
    /// time and drain-loop self time are not).
    pub fn is_named(self) -> bool {
        !matches!(self, Layer::Idle | Layer::Drain)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span; times are nanoseconds since the replay's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing drain span in the same thread's list.
    pub parent: Option<u32>,
    pub job: Option<u64>,
    pub shard: Option<u32>,
}

/// Attribution carried by a span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ids {
    pub job: Option<u64>,
    pub shard: Option<u32>,
}

/// One thread's spans and layer totals.
pub struct ThreadTrace {
    enabled: bool,
    origin: Instant,
    pub name: String,
    pub spans: Vec<Span>,
    variant_span_cap: usize,
    variant_spans: usize,
    pub dropped: u64,
    /// `(self ns, calls)` per [`Layer`].
    pub totals: [(u64, u64); Layer::ALL.len()],
    started: Option<u64>,
    pub wall_ns: u64,
    /// The open drain span: its index and the time its children cover.
    open_drain: Option<(u32, u64)>,
}

impl ThreadTrace {
    pub fn new(name: impl Into<String>, enabled: bool, origin: Instant, cap: usize) -> Self {
        let mut trace = ThreadTrace {
            enabled,
            origin,
            name: name.into(),
            spans: Vec::new(),
            variant_span_cap: cap,
            variant_spans: 0,
            dropped: 0,
            totals: [(0, 0); Layer::ALL.len()],
            started: None,
            wall_ns: 0,
            open_drain: None,
        };
        trace.started = trace.stamp();
        trace
    }

    /// A timestamp when tracing, else `None` (no clock read).
    #[inline]
    pub fn stamp(&self) -> Option<u64> {
        self.enabled
            .then(|| self.origin.elapsed().as_nanos() as u64)
    }

    /// Closes a leaf span opened with [`stamp`](Self::stamp).
    #[inline]
    pub fn leaf(&mut self, layer: Layer, start: Option<u64>, ids: Ids) {
        let Some(start) = start else {
            return;
        };
        let end = self.origin.elapsed().as_nanos() as u64;
        let duration = end.saturating_sub(start);
        let total = &mut self.totals[layer.index()];
        total.0 += duration;
        total.1 += 1;
        let parent = match &mut self.open_drain {
            Some((at, covered)) => {
                *covered += duration;
                Some(*at)
            }
            None => None,
        };
        if layer.per_variant() {
            if self.variant_spans >= self.variant_span_cap {
                self.dropped += 1;
                return;
            }
            self.variant_spans += 1;
        }
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
            job: ids.job,
            shard: ids.shard,
        });
    }

    /// Opens the drain span of one leased shard.
    pub fn begin_drain(&mut self, ids: Ids) {
        let Some(start) = self.stamp() else {
            return;
        };
        let at = self.spans.len() as u32;
        self.spans.push(Span {
            layer: Layer::Drain,
            start,
            end: start,
            parent: None,
            job: ids.job,
            shard: ids.shard,
        });
        self.open_drain = Some((at, 0));
    }

    /// Closes the open drain span; its self time is what its children do not
    /// cover. Returns the drain's duration.
    pub fn end_drain(&mut self) -> u64 {
        let Some((at, covered)) = self.open_drain.take() else {
            return 0;
        };
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[at as usize];
        span.end = end;
        let duration = end.saturating_sub(span.start);
        let total = &mut self.totals[Layer::Drain.index()];
        total.0 += duration.saturating_sub(covered);
        total.1 += 1;
        duration
    }

    /// Stops the thread's wall clock.
    pub fn finish(&mut self) {
        if let (Some(start), Some(end)) = (self.started, self.stamp()) {
            self.wall_ns = end.saturating_sub(start);
        }
    }

    /// Self time of the named layers plus idle time.
    pub fn covered_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|layer| **layer != Layer::Drain)
            .map(|layer| self.totals[layer.index()].0)
            .sum()
    }

    /// Wall time no named layer or idle span covers.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.covered_ns())
    }

    pub fn total(&self, layer: Layer) -> (u64, u64) {
        self.totals[layer.index()]
    }
}

/// Writes every kept span as Chrome trace-event JSON (loads in Perfetto):
/// one `X` event per span, `tid` = replay thread, `args` = ids and parent.
pub fn chrome_trace(threads: &[ThreadTrace]) -> String {
    let mut out = String::with_capacity(1 << 20);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, thread) in threads.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            thread.name
        );
        for span in &thread.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                span.layer.metric(),
                span.start as f64 / 1000.0,
                span.end.saturating_sub(span.start) as f64 / 1000.0,
            );
            let mut sep = "";
            if let Some(job) = span.job {
                let _ = write!(out, "\"job\":{job}");
                sep = ",";
            }
            if let Some(shard) = span.shard {
                let _ = write!(out, "{sep}\"shard\":{shard}");
                sep = ",";
            }
            if let Some(parent) = span.parent {
                let _ = write!(out, "{sep}\"parent\":{parent}");
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_self_time_excludes_children_and_the_ledger_closes() {
        let mut trace = ThreadTrace::new("t", true, Instant::now(), 1);
        trace.begin_drain(Ids::default());
        for _ in 0..3 {
            let start = trace.stamp();
            std::hint::black_box((0..1000).sum::<u64>());
            trace.leaf(Layer::Flatten, start, Ids::default());
        }
        let drain = trace.end_drain();
        trace.finish();
        let (flatten, calls) = trace.total(Layer::Flatten);
        assert_eq!(calls, 3);
        // Only one per-variant span fits under the cap; totals still count all.
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.total(Layer::Drain).0, drain - flatten);
        let named: u64 = Layer::ALL
            .iter()
            .filter(|layer| **layer != Layer::Drain)
            .map(|layer| trace.total(*layer).0)
            .sum();
        assert_eq!(named + trace.unattributed_ns(), trace.wall_ns);
        let json = chrome_trace(&[trace]);
        assert!(json.contains("\"name\":\"flatten.ns\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_trace_reads_no_clock_and_records_nothing() {
        let mut trace = ThreadTrace::new("t", false, Instant::now(), 10);
        let start = trace.stamp();
        assert!(start.is_none());
        trace.leaf(Layer::Flatten, start, Ids::default());
        trace.begin_drain(Ids::default());
        trace.end_drain();
        trace.finish();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.total(Layer::Flatten), (0, 0));
        assert_eq!(trace.wall_ns, 0);
    }
}
