//! `recursive`: the serving tier with §2.3 recursive router localization,
//! as a closed loop with one client keeping at most `nproc` single-target
//! requests in flight.
//!
//! The campaign puts many targets behind a few shared last-hop routers
//! (`service_campaign`'s deployment), so the router cache and its dilation
//! cache do most
//! of the work. Every pass first refreshes the model (with no observation
//! changed, so the model is reused and only the epoch moves on), then
//! requests every target once: each pass meets cold router and answer
//! caches, and the answer memo never hits. Repeated passes, rather than
//! more targets, give the tail percentile its samples — capture cost grows
//! with the square of the host count.

use crate::campaign::serving_campaign;
use crate::client::{self, Completed, Load};
use crate::layers::{applied_ratio, ratio, Counters, Layers};
use crate::serving::{account, coverage_pct, shard_layers, Snapshot};
use crate::wrap::{traced_pipeline, TracedProvider};
use crate::{accuracy, latency_metrics, peak_rss_mb, same_answer, score, stats, trace};
use crate::{Args, Budget, Report, SETUP_REPEATS};
use octant::{EvidencePipeline, LocationEstimate, OctantConfig, RouterLocalization};
use octant_bench::BatchCampaign;
use octant_netsim::topology::NodeId;
use octant_netsim::{MeasurementDataset, ObservationProvider};
use octant_service::{ServeOutcome, ServiceConfig, ShardedService};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LANDMARKS: usize = 32;
const TARGET_SITES: usize = 8;
const TARGETS_PER_SITE: usize = 24;

struct Setup<P: ObservationProvider + Send + Sync + 'static> {
    service: ShardedService<P>,
    dataset: Arc<MeasurementDataset>,
    landmarks: Vec<NodeId>,
    targets: Vec<NodeId>,
    capture_s: f64,
    start_ms: f64,
}

fn config(budget: Budget) -> ServiceConfig {
    ServiceConfig::default()
        .with_octant(
            OctantConfig::default().with_router_localization(RouterLocalization::Recursive),
        )
        .with_workers(budget.workers)
}

fn set_up<P: ObservationProvider + Send + Sync + 'static>(
    seed: u64,
    budget: Budget,
    pipeline: EvidencePipeline,
    wrap: impl FnOnce(Arc<MeasurementDataset>) -> P,
) -> Setup<P> {
    let t = Instant::now();
    let BatchCampaign {
        dataset,
        landmarks,
        targets,
    } = serving_campaign(LANDMARKS, TARGET_SITES, TARGETS_PER_SITE, seed);
    let dataset = dataset.into_shared();
    let capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let service = ShardedService::start_with_pipeline(
        config(budget),
        pipeline,
        wrap(dataset.clone()),
        &landmarks,
    );
    Setup {
        service,
        dataset,
        landmarks,
        targets,
        capture_s,
        start_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

struct Phase {
    first: Vec<LocationEstimate>,
    requests: Vec<Completed>,
    passes: usize,
    /// Targets per second of each pass.
    pass_rates: Vec<f64>,
    in_flight_max: usize,
    refresh_ms: Vec<f64>,
    wall: Duration,
    diverged: usize,
}

fn measure<P: ObservationProvider + Send + Sync + 'static>(
    setup: &Setup<P>,
    budget: Budget,
    duration: Duration,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase {
        first: Vec::new(),
        requests: Vec::new(),
        passes: 0,
        pass_rates: Vec::new(),
        in_flight_max: 0,
        refresh_ms: Vec::new(),
        wall: Duration::ZERO,
        diverged: 0,
    };
    loop {
        let t = Instant::now();
        setup
            .service
            .refresh_model_incremental(&setup.landmarks, &[]);
        phase.refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let run = client::drive(
            &setup.service,
            &setup.targets,
            &Load::Closed {
                in_flight: budget.nproc,
            },
            (phase.passes * setup.targets.len()) as u64 + 1,
            |_| {},
        );
        phase
            .pass_rates
            .push(run.requests.len() as f64 / (run.finished - run.started).as_secs_f64());
        phase.in_flight_max = phase.in_flight_max.max(run.in_flight_max);
        let estimates: Vec<LocationEstimate> = run
            .requests
            .iter()
            .map(|r| match &r.outcome {
                ServeOutcome::Served(s) => s.estimate.clone(),
                _ => LocationEstimate::unknown(),
            })
            .collect();
        if phase.passes == 0 {
            phase.first = estimates;
        } else {
            phase.diverged += phase
                .first
                .iter()
                .zip(&estimates)
                .filter(|(a, b)| !same_answer(a, b))
                .count();
        }
        phase.requests.extend(run.requests);
        phase.passes += 1;
        if started.elapsed() >= duration {
            break;
        }
    }
    phase.wall = started.elapsed();
    phase
}

fn check(report: &mut Report, phase: &Phase, label: &str) {
    let served = account(report, &phase.requests);
    let finite = served.iter().all(|e| {
        e.point
            .is_some_and(|p| p.lat.is_finite() && p.lon.is_finite())
    });
    report.check(finite, format!("{label}: a point estimate is not finite"));
    report.check(
        phase.diverged == 0,
        format!(
            "{label}: {} estimates differ between passes",
            phase.diverged
        ),
    );
}

/// Request latencies, one window per pass.
fn latencies(phase: &Phase) -> Vec<Vec<f64>> {
    let per_pass = phase.requests.len() / phase.passes;
    phase
        .requests
        .chunks(per_pass)
        .map(|pass| pass.iter().map(Completed::latency_ms).collect())
        .collect()
}

pub fn run(args: &Args, budget: Budget, duration: Duration) -> Report {
    let mut report = Report::new();
    report.note(
        "workload",
        format!(
            "recursive: closed loop, 1 client, <= {} single-target requests in flight",
            budget.nproc
        ),
    );
    report.note("workers", budget.workers);
    report.note("fan_out", budget.fan_out);
    report.note("generator_threads", 1);
    report.note(
        "tail_samples_from",
        "repeated passes, each on a fresh model epoch",
    );

    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut setup = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = setup.take() {
                let previous: Setup<Arc<MeasurementDataset>> = previous;
                previous.service.shutdown();
            }
            let t = Instant::now();
            setup = Some(set_up(
                args.seed,
                budget,
                EvidencePipeline::standard(),
                |d| d,
            ));
            setups.push(t.elapsed().as_secs_f64());
        }
        let setup = setup.expect("at least one set-up");
        let phase = measure(&setup, budget, duration);
        check(&mut report, &phase, "recursive");
        let outcomes: Vec<_> = setup
            .targets
            .iter()
            .zip(&phase.first)
            .map(|(&t, e)| score(&*setup.dataset, t, e.clone()))
            .collect();
        let acc = accuracy(&outcomes);
        report.note("distinct_targets", setup.targets.len());
        report.note("requests", phase.requests.len());
        report.note("passes", phase.passes);
        report.metric("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric(
            "targets_per_s",
            stats::median(&phase.pass_rates).unwrap_or(f64::NAN),
            "1/s",
        );
        latency_metrics(&mut report, &latencies(&phase), false);
        report.metric("median_error_km", acc.median_km, "km");
        report.metric("worst_error_km", acc.worst_km, "km");
        report.metric("region_hit_rate", acc.hit_rate, "ratio");
        setup.service.shutdown();
        return report;
    }

    let half = duration / 2;
    let plain_setup = set_up(args.seed, budget, EvidencePipeline::standard(), |d| d);
    let plain = measure(&plain_setup, budget, half);
    plain_setup.service.shutdown();
    check(&mut report, &plain, "recursive untraced");

    let setup = set_up(
        args.seed,
        budget,
        traced_pipeline(&EvidencePipeline::standard()),
        TracedProvider,
    );
    let counters_before = Counters::now();
    let before = Snapshot::of(&setup.service);
    trace::set_enabled(true);
    let traced = measure(&setup, budget, half);
    trace::set_enabled(false);
    let after = Snapshot::of(&setup.service);
    let counters_after = Counters::now();
    let (aggs, spans) = trace::take();
    check(&mut report, &traced, "recursive traced");
    let mismatched = plain
        .first
        .iter()
        .zip(&traced.first)
        .filter(|(a, b)| !same_answer(a, b))
        .count();
    report.check(
        mismatched == 0,
        format!("{mismatched} traced estimates differ from the untraced run"),
    );

    let epochs = traced.passes as f64;
    let cache = setup.service.cache_stats();
    let per_target = |p: &Phase| p.wall.as_secs_f64() / p.requests.len() as f64;
    let mut layers = Layers {
        netsim_capture_s: setup.capture_s,
        calibration_prepare_ms: setup.start_ms,
        refresh_ms: stats::median(&traced.refresh_ms).unwrap_or(0.0),
        router_cache_hit_ratio: ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        router_cache_sub_localizations: cache.misses as f64 / epochs,
        router_cache_fresh_dilations: cache.dilation_misses as f64 / epochs,
        trace_overhead_pct: 100.0 * (per_target(&traced) / per_target(&plain) - 1.0),
        trace_coverage_pct: coverage_pct(&traced.requests, &before, &after, &aggs, &[]),
        ..Layers::default()
    };
    shard_layers(
        &mut layers,
        &setup.service,
        &before,
        &after,
        &traced.requests,
        traced.in_flight_max,
    );
    layers.answer_memo_misses_per_refresh =
        (after.answers.misses - before.answers.misses) as f64 / epochs;
    layers.emit(
        &mut report,
        &aggs,
        counters_before,
        counters_after,
        traced.requests.len() as f64,
        applied_ratio(&traced.first),
    );
    crate::write_trace(&mut report, args, &spans);
    report.note("distinct_targets", setup.targets.len());
    report.note("requests", plain.requests.len() + traced.requests.len());
    report.note(
        "passes",
        format!("{} untraced + {} traced", plain.passes, traced.passes),
    );
    setup.service.shutdown();
    report
}
