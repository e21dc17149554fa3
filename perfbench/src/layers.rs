//! The per-layer metrics of a traced run, in one fixed order. A layer a
//! workload bypasses reports 0.

use crate::trace::Agg;
use crate::Report;
use octant::LocationEstimate;
use octant_telemetry::MetricsRegistry;
use std::collections::BTreeMap;

/// The registry counters of the region kernels, per solved target.
pub const REGION_COUNTERS: [&str; 4] = [
    "region.band_merges",
    "region.crossing_scan_ops",
    "region.walk_unions",
    "region.walk_fallbacks",
];

/// Snapshot of the region counters and the calibration build count.
#[derive(Clone, Copy)]
pub struct Counters {
    region: [u64; 4],
    calibration_builds: u64,
}

impl Counters {
    pub fn now() -> Counters {
        let registry = MetricsRegistry::global();
        Counters {
            region: REGION_COUNTERS.map(|name| registry.counter_value(name)),
            calibration_builds: octant::calibration::build_count(),
        }
    }
}

/// The evidence sources whose cost is reported per target.
pub const SOURCES: [(&str, &str); 4] = [
    ("source.latency", "source.latency.ms_per_target"),
    ("source.router", "source.router.ms_per_target"),
    ("source.hint", "source.hint.ms_per_target"),
    ("source.geography", "source.geography.ms_per_target"),
];

#[derive(Default)]
pub struct Layers {
    pub netsim_capture_s: f64,
    pub store_load_s: f64,
    pub store_ingest_ms: f64,
    pub store_records: f64,
    pub store_merges: f64,
    pub calibration_prepare_ms: f64,
    pub calibration_refreshed_pair_ratio: f64,
    pub refresh_ms: f64,
    pub router_cache_hit_ratio: f64,
    pub router_cache_sub_localizations: f64,
    pub router_cache_fresh_dilations: f64,
    pub answer_memo_hit_ratio: f64,
    pub answer_memo_misses_per_refresh: f64,
    pub shard_submit_us: f64,
    pub shard_queue_wait_p50_ms: f64,
    pub shard_batch_targets_mean: f64,
    pub shard_solve_ms_per_batch: f64,
    pub shard_shed: f64,
    pub client_late_p99_ms: f64,
    pub client_in_flight_max: f64,
    pub trace_overhead_pct: f64,
    pub trace_coverage_pct: f64,
}

/// Σ applied / Σ emitted constraints over `estimates`' provenance.
pub fn applied_ratio<'a>(estimates: impl IntoIterator<Item = &'a LocationEstimate>) -> f64 {
    let (mut applied, mut emitted) = (0usize, 0usize);
    for e in estimates {
        applied += e
            .provenance
            .sources
            .iter()
            .map(|s| s.applied())
            .sum::<usize>();
        emitted += e.provenance.total_emitted();
    }
    if emitted == 0 {
        0.0
    } else {
        applied as f64 / emitted as f64
    }
}

/// Ratio with a zero denominator reading as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// Emits every per-layer metric. `aggs` is the traced phase's recorder
    /// output, `before`/`after` bracket it, `solved` is the number of
    /// targets that ran the evidence pipeline in it, and `applied` the
    /// source applied ratio of their estimates.
    pub fn emit(
        &self,
        report: &mut Report,
        aggs: &BTreeMap<&'static str, Agg>,
        before: Counters,
        after: Counters,
        solved: f64,
        applied: f64,
    ) {
        let agg = |name: &str| aggs.get(name).copied().unwrap_or_default();
        let per = |v: f64| ratio(v, solved);
        let provider = agg(crate::wrap::PROVIDER_LAYER);
        report.metric("netsim.capture_s", self.netsim_capture_s, "s");
        report.metric(
            "netsim.reads_per_target",
            per(provider.count as f64),
            "count",
        );
        report.metric("netsim.read_ms_per_target", per(provider.total_ms()), "ms");
        report.metric("store.load_s", self.store_load_s, "s");
        report.metric("store.ingest_ms", self.store_ingest_ms, "ms");
        report.metric("store.records", self.store_records, "count");
        report.metric("store.merges", self.store_merges, "count");
        report.metric("calibration.prepare_ms", self.calibration_prepare_ms, "ms");
        report.metric(
            "calibration.builds",
            per((after.calibration_builds - before.calibration_builds) as f64),
            "count",
        );
        report.metric(
            "calibration.refreshed_pair_ratio",
            self.calibration_refreshed_pair_ratio,
            "ratio",
        );
        report.metric("refresh_ms", self.refresh_ms, "ms");
        for (layer, name) in SOURCES {
            report.metric(name, per(agg(layer).total_ms()), "ms");
        }
        report.metric("source.applied_ratio", applied, "ratio");
        report.metric(
            "solver.ms_per_target",
            per(agg("solver").self_ms() + agg("localize").self_ms()),
            "ms",
        );
        for (i, name) in REGION_COUNTERS.iter().enumerate() {
            report.metric(
                name,
                per((after.region[i] - before.region[i]) as f64),
                "count",
            );
        }
        report.metric(
            "router_cache.hit_ratio",
            self.router_cache_hit_ratio,
            "ratio",
        );
        report.metric(
            "router_cache.sub_localizations",
            self.router_cache_sub_localizations,
            "count",
        );
        report.metric(
            "router_cache.fresh_dilations",
            self.router_cache_fresh_dilations,
            "count",
        );
        report.metric("answer_memo.hit_ratio", self.answer_memo_hit_ratio, "ratio");
        report.metric(
            "answer_memo.misses_per_refresh",
            self.answer_memo_misses_per_refresh,
            "count",
        );
        report.metric("shard.submit_us", self.shard_submit_us, "us");
        report.metric(
            "shard.queue_wait_p50_ms",
            self.shard_queue_wait_p50_ms,
            "ms",
        );
        report.metric(
            "shard.batch_targets_mean",
            self.shard_batch_targets_mean,
            "count",
        );
        report.metric(
            "shard.solve_ms_per_batch",
            self.shard_solve_ms_per_batch,
            "ms",
        );
        report.metric("shard.shed", self.shard_shed, "count");
        report.metric("client.late_p99_ms", self.client_late_p99_ms, "ms");
        report.metric("client.in_flight_max", self.client_in_flight_max, "count");
        report.metric("trace.overhead_pct", self.trace_overhead_pct, "%");
        report.metric("trace.coverage_pct", self.trace_coverage_pct, "%");
    }
}
