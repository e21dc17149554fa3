//! What the two serving workloads share: the service's counter snapshots,
//! the answer checks, and the shard, client and coverage metrics.

use crate::client::{ms, Completed};
use crate::layers::{ratio, Layers};
use crate::trace::Agg;
use crate::{stats, Report};
use octant::LocationEstimate;
use octant_netsim::ObservationProvider;
use octant_service::{AnswerCacheStats, ServeOutcome, ServiceCounters, ShardedService};
use std::collections::BTreeMap;
use std::time::Duration;

/// The service counters the benchmark reads, at one instant.
#[derive(Clone, Copy)]
pub struct Snapshot {
    pub counters: ServiceCounters,
    pub answers: AnswerCacheStats,
    pub queue_wait_total: Duration,
    pub solve_total: Duration,
    pub solve_count: u64,
}

impl Snapshot {
    pub fn of<P: ObservationProvider + Send + Sync + 'static>(
        service: &ShardedService<P>,
    ) -> Snapshot {
        let report = service.stats_report();
        let stage = |name: &str| {
            report
                .stage_breakdown
                .iter()
                .find(|s| s.name == name)
                .map_or((Duration::ZERO, 0), |s| (s.total, s.count))
        };
        let (queue_wait_total, _) = stage("queue_wait");
        let (solve_total, solve_count) = stage("solve");
        Snapshot {
            counters: report.stats.counters,
            answers: report.stats.answers,
            queue_wait_total,
            solve_total,
            solve_count,
        }
    }
}

/// Counts the failed requests (shed, expired, or served without a point
/// estimate) into the report and returns the served estimates.
pub fn account<'a>(report: &mut Report, requests: &'a [Completed]) -> Vec<&'a LocationEstimate> {
    report.attempted += requests.len() as u64;
    let mut served = Vec::with_capacity(requests.len());
    for r in requests {
        match &r.outcome {
            ServeOutcome::Served(s) if s.estimate.point.is_some() => served.push(&s.estimate),
            _ => report.failed += 1,
        }
    }
    served
}

/// Every submitted target must be accounted for by the service: served
/// (memo hit or solve) or shed, exactly once.
pub fn check_conservation(
    report: &mut Report,
    before: &Snapshot,
    after: &Snapshot,
    submitted: usize,
) {
    let served = after.counters.targets_served - before.counters.targets_served;
    let shed = after.counters.shed() - before.counters.shed();
    report.check(
        served + shed == submitted as u64,
        format!("service served {served} + shed {shed} targets of {submitted} submitted"),
    );
}

/// Fills the shard and client layers from the counters bracketing the
/// traced phase and its requests.
pub fn shard_layers<P: ObservationProvider + Send + Sync + 'static>(
    layers: &mut Layers,
    service: &ShardedService<P>,
    before: &Snapshot,
    after: &Snapshot,
    requests: &[Completed],
    in_flight_max: usize,
) {
    let batches = after.counters.batches - before.counters.batches;
    let served = after.counters.targets_served - before.counters.targets_served;
    let submits: Vec<f64> = requests.iter().map(Completed::submit_us).collect();
    let late: Vec<f64> = requests.iter().map(Completed::late_ms).collect();
    layers.shard_submit_us = ratio(submits.iter().sum(), submits.len() as f64);
    layers.shard_queue_wait_p50_ms = service
        .stats_report()
        .stage_breakdown
        .iter()
        .find(|s| s.name == "queue_wait")
        .map_or(0.0, |s| ms(s.latency.p50));
    layers.shard_batch_targets_mean = ratio(served as f64, batches as f64);
    layers.shard_solve_ms_per_batch = ratio(
        ms(after.solve_total - before.solve_total),
        (after.solve_count - before.solve_count) as f64,
    );
    layers.shard_shed = (after.counters.shed() - before.counters.shed()) as f64;
    layers.client_late_p99_ms = stats::percentile(&late, 99.0).unwrap_or(0.0);
    layers.client_in_flight_max = in_flight_max as f64;
    let hits = after.answers.hits - before.answers.hits;
    let misses = after.answers.misses - before.answers.misses;
    layers.answer_memo_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
}

/// The share of the requests' summed latency that named layers account
/// for: the client's lateness and submit calls, the shard's queue wait,
/// and the self time of every layer the solving threads ran (evidence
/// sources, observation reads, the solver). Layers in `exclude` ran off
/// the request path (the writer's ingest and refreshes); their children
/// are excluded with them.
pub fn coverage_pct(
    requests: &[Completed],
    before: &Snapshot,
    after: &Snapshot,
    aggs: &BTreeMap<&'static str, Agg>,
    exclude: &[&str],
) -> f64 {
    let latency: f64 = requests.iter().map(Completed::latency_ms).sum();
    let client: f64 = requests
        .iter()
        .map(|r| r.late_ms() + r.submit_us() / 1e3)
        .sum();
    let queue = ms(after.queue_wait_total - before.queue_wait_total);
    let request_spans = ["request", "client.late", "shard.submit"];
    let worker: f64 = aggs
        .iter()
        .filter(|(name, _)| !request_spans.contains(name) && !exclude.contains(name))
        .map(|(_, a)| a.self_ms())
        .sum::<f64>()
        - exclude
            .iter()
            .filter_map(|name| aggs.get(name))
            .map(|a| a.total_ms() - a.self_ms())
            .sum::<f64>();
    100.0 * ratio(client + queue + worker, latency)
}
