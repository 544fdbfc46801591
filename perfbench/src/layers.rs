//! Per-layer metrics of the traced run, computed from its spans.
//!
//! Times are the p50 per call of one span name; `*_allocs` the p50
//! allocation count per call; counters the p50 per session or request.
//! Allocation counts and counters are taken from the run's first cycle
//! only, so they repeat exactly across runs of one seed. A layer the
//! workload does not reach reads 0.

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Options, Outcome};

/// `(metric, span)`: p50 wall time per call, in ms.
const TIMES: [(&str, &str); 12] = [
    ("core.resolve_ms", "core.resolve"),
    ("core.model_digest_ms", "core.model_digest"),
    ("core.index_digest_ms", "core.index_digest"),
    ("adequation.index_ms", "adequation.index"),
    ("adequation.schedule_ms", "adequation.schedule"),
    ("adequation.executive_ms", "adequation.executive"),
    ("codegen.design_ms", "codegen.design"),
    ("codegen.emit_ms", "codegen.emit"),
    ("ir.lower_ms", "ir.lower"),
    ("lint.verify_ms", "lint.verify"),
    ("rtr.deploy_ms", "rtr.deploy"),
    ("sim.run_ms", "sim.run"),
];

/// `(metric, span)`: p50 allocations per call.
const ALLOCS: [(&str, &str); 4] = [
    ("adequation.executive_allocs", "adequation.executive"),
    ("codegen.design_allocs", "codegen.design"),
    ("ir.lower_allocs", "ir.lower"),
    ("sim.run_allocs", "sim.run"),
];

/// `(counter, unit)`: p50 per recorded sample.
const COUNTS: [(&str, &str); 11] = [
    ("adequation.ops_scheduled", "count"),
    ("adequation.instructions", "count"),
    ("codegen.bitstream_bytes", "bytes"),
    ("codegen.vhdl_bytes", "bytes"),
    ("lint.model_states", "count"),
    ("lint.model_transitions", "count"),
    ("rtr.reconfigs", "count"),
    ("rtr.fetches", "count"),
    ("rtr.hidden_fetches", "count"),
    ("rtr.ms_per_reconfig", "ms"),
    ("sim.iterations", "count"),
];

/// The server layer's metrics (all 0 on workloads that bypass it).
#[derive(Debug, Clone, Default)]
pub struct ServerLayer {
    /// Queue wait of executed requests, µs.
    pub queue_us: Samples,
    /// Worker service time of executed requests, µs.
    pub service_us: Samples,
    /// Cache hits over requests.
    pub hit_ratio: f64,
    /// Requests that waited on an identical in-flight request.
    pub coalesced: u64,
    /// Requests a worker executed.
    pub executed: u64,
    /// Result-cache entries at the end of a round.
    pub cache_entries: u64,
    /// Digest-memo entries at the end of a round.
    pub digest_memo: u64,
    /// Pooled adequation indexes at the end of a round.
    pub shared_indexes: u64,
    /// Requests behind the ratios and counters.
    pub requests: usize,
}

/// Push every per-layer metric onto `out`. `first_cycle` selects the span
/// and counter ids that count toward allocation counts and counters.
pub fn report(
    tr: &Tracer,
    first_cycle: impl Fn(u64) -> bool + Copy,
    server: &ServerLayer,
    out: &mut Outcome,
) {
    for (metric, span) in TIMES {
        let s = Samples::from_iter(tr.durations(span, |_| true));
        out.metric(metric, s.p50(), "ms", s.len());
    }
    for (metric, span) in ALLOCS {
        let s = Samples::from_iter(tr.allocs(span, first_cycle));
        out.metric(metric, s.p50(), "count", s.len());
    }
    for (counter, unit) in COUNTS {
        let s = Samples::from_iter(tr.values(counter, first_cycle));
        out.metric(counter, s.p50(), unit, s.len());
    }
    let n = server.requests;
    let executed = server.service_us.len();
    out.metric("server.queue_us_p50", server.queue_us.p50(), "us", executed);
    out.metric(
        "server.service_us_p50",
        server.service_us.p50(),
        "us",
        executed,
    );
    out.metric(
        "server.service_us_p90",
        server.service_us.p90(),
        "us",
        executed,
    );
    out.metric("server.hit_ratio", server.hit_ratio, "ratio", n);
    out.metric("server.coalesced", server.coalesced as f64, "count", n);
    out.metric("server.executed", server.executed as f64, "count", n);
    out.metric(
        "server.cache_entries",
        server.cache_entries as f64,
        "count",
        n,
    );
    out.metric("server.digest_memo", server.digest_memo as f64, "count", n);
    out.metric(
        "server.shared_indexes",
        server.shared_indexes as f64,
        "count",
        n,
    );
}

/// Write the trace-event file, if the run has a path for it.
pub fn write_trace(tr: &Tracer, options: &Options, out: &mut Outcome) {
    let Some(path) = &options.trace_out else {
        return;
    };
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, tr.to_chrome_json()) {
        Ok(()) => out.notes.push(format!(
            "trace events: {} ({} spans)",
            path.display(),
            tr.spans.len()
        )),
        Err(e) => out.notes.push(format!(
            "trace events not written to {}: {e}",
            path.display()
        )),
    }
}
