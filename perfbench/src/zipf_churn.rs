//! `zipf-churn`: the serving tier under an open loop of reads with a
//! writer beside it.
//!
//! Single-target requests arrive as a Poisson process at a fixed offered
//! rate, each drawing its target from a Zipf (s = 1) popularity over 64
//! hosts (the popularity order is shuffled by the seed). The answer
//! memo is warmed before timing starts. Beside the reads, one writer
//! ingests landmark re-probes into the `ObservationStore` and calls
//! `refresh_model_incremental` at seeded offsets from the start of the run;
//! every refresh bumps the epoch, which empties the memo and sends a storm
//! of cold solves through admission, queueing and batch formation.

use crate::campaign::serving_campaign;
use crate::client::{self, ms, Completed, Load};
use crate::layers::{applied_ratio, ratio, Counters, Layers};
use crate::serving::{account, check_conservation, coverage_pct, shard_layers, Snapshot};
use crate::wrap::{traced_pipeline, TracedProvider};
use crate::{accuracy, latency_metrics, peak_rss_mb, same_answer, score, stats, trace};
use crate::{Args, Budget, Report, SETUP_REPEATS};
use octant::{EvidencePipeline, LocationEstimate, RecalibrationReport};
use octant_bench::{BatchCampaign, ZipfSampler};
use octant_geo::units::Latency;
use octant_netsim::observation::PingObservation;
use octant_netsim::topology::NodeId;
use octant_netsim::{ObservationProvider, ObservationRecord, ObservationStore, StoreConfig};
use octant_service::{ServeOutcome, ServiceConfig, ShardedService};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LANDMARKS: usize = 32;
/// 64 hosts, 4 behind each of 16 sites. With 256 hosts an epoch needed
/// ~300 requests to keep the memo hit ratio near 0.67, so a run held only
/// 3 epochs and the median of their tails moved by a third between runs of
/// the same seed. Behind only 4 sites, 3 to 7 of the 64 regions held their
/// target, depending on the seed.
const TARGET_SITES: usize = 16;
const TARGETS_PER_SITE: usize = 4;
/// Offered load, requests (= targets) per second. A storm's cold solves
/// take about half a core at this rate, so the tail is mostly solve time
/// rather than queueing behind other solves.
const RATE_PER_S: f64 = 25.0;
/// Mean spacing of the writer's refreshes: ~100 requests per epoch, which
/// over 64 Zipf hosts keeps the hit ratio near 0.67.
const REFRESH_PERIOD_S: f64 = 4.0;
/// Landmarks re-probed before each refresh.
const CHURNED: usize = 4;
/// Requests kept in flight while the memo is warmed.
const WARM_IN_FLIGHT: usize = 8;

struct Setup<P: ObservationProvider + Send + Sync + 'static> {
    service: ShardedService<P>,
    store: Arc<ObservationStore>,
    landmarks: Vec<NodeId>,
    targets: Vec<NodeId>,
    warm: Vec<LocationEstimate>,
    capture_s: f64,
    load_s: f64,
    start_ms: f64,
}

fn set_up<P: ObservationProvider + Send + Sync + 'static>(
    seed: u64,
    budget: Budget,
    pipeline: EvidencePipeline,
    wrap: impl FnOnce(Arc<ObservationStore>) -> P,
) -> Setup<P> {
    let t = Instant::now();
    let BatchCampaign {
        dataset,
        landmarks,
        targets,
    } = serving_campaign(LANDMARKS, TARGET_SITES, TARGETS_PER_SITE, seed);
    let capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store = Arc::new(ObservationStore::from_dataset(
        StoreConfig::default(),
        &dataset,
    ));
    let load_s = t.elapsed().as_secs_f64();
    drop(dataset);
    let t = Instant::now();
    let service = ShardedService::start_with_pipeline(
        ServiceConfig::default().with_workers(budget.workers),
        pipeline,
        wrap(store.clone()),
        &landmarks,
    );
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm = client::drive(
        &service,
        &targets,
        &Load::Closed {
            in_flight: WARM_IN_FLIGHT,
        },
        0,
        |_| {},
    )
    .requests
    .into_iter()
    .map(|r| match r.outcome {
        ServeOutcome::Served(s) => s.estimate,
        _ => LocationEstimate::unknown(),
    })
    .collect();
    Setup {
        service,
        store,
        landmarks,
        targets,
        warm,
        capture_s,
        load_s,
        start_ms,
    }
}

/// The seeded inputs of one timed phase.
struct Plan {
    due: Vec<Duration>,
    requests: Vec<NodeId>,
    refresh_at: Vec<Duration>,
}

fn plan(seed: u64, population: &[NodeId], duration: Duration) -> Plan {
    let due = stats::poisson_schedule(RATE_PER_S, duration, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5A17_F00D);
    let mut by_rank = population.to_vec();
    by_rank.shuffle(&mut rng);
    let zipf = ZipfSampler::new(by_rank.len(), 1.0);
    let requests = due.iter().map(|_| by_rank[zipf.sample(&mut rng)]).collect();
    let mut refresh_at = Vec::new();
    for k in 0.. {
        let at = (k as f64 + 0.5 + rng.gen_range(-0.25..0.25)) * REFRESH_PERIOD_S;
        if at >= duration.as_secs_f64() {
            break;
        }
        refresh_at.push(Duration::from_secs_f64(at));
    }
    Plan {
        due,
        requests,
        refresh_at,
    }
}

/// What one refresh did.
struct Refresh {
    records: usize,
    ingest_ms: f64,
    refresh_ms: f64,
    report: RecalibrationReport,
}

/// Refresh `k`: `CHURNED` landmarks (drawn from the seed) re-probe every
/// other landmark — each new minimum lands within ±5% of the stored one —
/// the records are ingested at sequence `k + 1`, and the service
/// recalibrates incrementally from the nodes that changed.
fn refresh<P: ObservationProvider + Send + Sync + 'static>(
    setup: &Setup<P>,
    seed: u64,
    k: usize,
    last_version: &mut u64,
) -> Refresh {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (0xC0DE_0000 + k as u64));
    let mut churned = setup.landmarks.clone();
    churned.shuffle(&mut rng);
    churned.truncate(CHURNED);
    let mut records = Vec::new();
    for &from in &churned {
        for &to in &setup.landmarks {
            if to == from {
                continue;
            }
            if let Some(min) = setup.store.ping(from, to).min() {
                let jitter = 0.95 + 0.1 * rng.gen::<f64>();
                records.push(ObservationRecord::Ping {
                    from,
                    to,
                    observation: PingObservation::new(vec![Latency::from_ms(min.ms() * jitter)]),
                    seq: k as u64 + 1,
                });
            }
        }
    }
    let count = records.len();
    let t = Instant::now();
    {
        let _f = trace::enter("store.ingest");
        setup.store.ingest(records);
    }
    let ingest_ms = ms(t.elapsed());
    let changed = setup.store.changed_since(*last_version);
    *last_version = setup.store.version();
    let t = Instant::now();
    let (_, report) = {
        let _f = trace::enter("refresh");
        setup
            .service
            .refresh_model_incremental(&setup.landmarks, &changed)
    };
    Refresh {
        records: count,
        ingest_ms,
        refresh_ms: ms(t.elapsed()),
        report,
    }
}

struct Phase {
    requests: Vec<Completed>,
    /// Latencies of the requests due between two consecutive refreshes,
    /// one window per such epoch.
    windows: Vec<Vec<f64>>,
    refreshes: Vec<Refresh>,
    in_flight_max: usize,
    wall: Duration,
    before: Snapshot,
    after: Snapshot,
    merges: u64,
}

fn measure<P: ObservationProvider + Send + Sync + 'static>(
    setup: &Setup<P>,
    seed: u64,
    budget: Budget,
    duration: Duration,
) -> Phase {
    let plan = plan(seed, &setup.targets, duration);
    let before = Snapshot::of(&setup.service);
    let merges_before = setup.store.stats().merges;
    let mut last_version = setup.store.version();
    let load = Load::Open {
        due: plan.due.clone(),
    };
    let (run, refreshes) = if budget.nproc >= 2 {
        // The writer gets a thread of its own: with the client that makes
        // two generator threads, within the core count.
        let origin = Instant::now();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                plan.refresh_at
                    .iter()
                    .enumerate()
                    .map(|(k, at)| {
                        std::thread::sleep(
                            (origin + *at).saturating_duration_since(Instant::now()),
                        );
                        refresh(setup, seed, k, &mut last_version)
                    })
                    .collect::<Vec<_>>()
            });
            let run = client::drive(&setup.service, &plan.requests, &load, 1, |_| {});
            (run, writer.join().expect("writer thread panicked"))
        })
    } else {
        // One core: the client thread does the writer's work between
        // requests, keeping one generator thread.
        let mut refreshes = Vec::new();
        let mut origin = None;
        let run = client::drive(&setup.service, &plan.requests, &load, 1, |now| {
            let origin = *origin.get_or_insert(now);
            while let Some(at) = plan.refresh_at.get(refreshes.len()) {
                if origin + *at > now {
                    break;
                }
                let k = refreshes.len();
                refreshes.push(refresh(setup, seed, k, &mut last_version));
            }
        });
        (run, refreshes)
    };
    let mut windows = vec![Vec::new(); plan.refresh_at.len().saturating_sub(1)];
    for r in &run.requests {
        let due = r.due - run.started;
        if let Some(k) = plan
            .refresh_at
            .windows(2)
            .position(|b| b[0] <= due && due < b[1])
        {
            windows[k].push(r.latency_ms());
        }
    }
    Phase {
        windows,
        wall: run.finished - run.started,
        in_flight_max: run.in_flight_max,
        requests: run.requests,
        refreshes,
        before,
        after: Snapshot::of(&setup.service),
        merges: setup.store.stats().merges - merges_before,
    }
}

fn check(report: &mut Report, phase: &Phase, label: &str) {
    account(report, &phase.requests);
    check_conservation(report, &phase.before, &phase.after, phase.requests.len());
    let rebuilds = phase
        .refreshes
        .iter()
        .filter(|r| r.report.full_rebuild)
        .count();
    report.check(
        rebuilds == 0,
        format!("{label}: {rebuilds} refreshes fell back to a full rebuild"),
    );
}

fn answers(phase: &Phase) -> HashMap<(u64, NodeId), &LocationEstimate> {
    phase
        .requests
        .iter()
        .filter_map(|r| r.outcome.served())
        .map(|s| ((s.epoch, s.target), &s.estimate))
        .collect()
}

fn solves(phase: &Phase) -> u64 {
    phase.after.answers.misses - phase.before.answers.misses
}

pub fn run(args: &Args, budget: Budget, duration: Duration) -> Report {
    let mut report = Report::new();
    report.note(
        "workload",
        format!(
            "zipf-churn: open loop, Poisson {RATE_PER_S}/s, Zipf s=1, refresh every ~{REFRESH_PERIOD_S} s"
        ),
    );
    report.note("workers", budget.workers);
    report.note("fan_out", budget.fan_out);
    report.note("generator_threads", if budget.nproc >= 2 { 2 } else { 1 });

    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut setup = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = setup.take() {
                let previous: Setup<Arc<ObservationStore>> = previous;
                previous.service.shutdown();
            }
            let t = Instant::now();
            setup = Some(set_up(
                args.seed,
                budget,
                EvidencePipeline::standard(),
                |s| s,
            ));
            setups.push(t.elapsed().as_secs_f64());
        }
        let setup = setup.expect("at least one set-up");
        let phase = measure(&setup, args.seed, budget, duration);
        check(&mut report, &phase, "zipf-churn");
        let outcomes: Vec<_> = setup
            .targets
            .iter()
            .zip(&setup.warm)
            .map(|(&t, e)| score(&*setup.store, t, e.clone()))
            .collect();
        let acc = accuracy(&outcomes);
        report.note("distinct_targets", setup.targets.len());
        report.note("requests", phase.requests.len());
        report.note("refreshes", phase.refreshes.len());
        report.note(
            "answer_memo_hit_ratio",
            format!(
                "{:.3}",
                1.0 - ratio(solves(&phase) as f64, phase.requests.len() as f64)
            ),
        );
        report.metric("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric(
            "targets_per_s",
            phase.requests.len() as f64 / phase.wall.as_secs_f64(),
            "1/s",
        );
        latency_metrics(&mut report, &phase.windows, true);
        report.metric("median_error_km", acc.median_km, "km");
        report.metric("worst_error_km", acc.worst_km, "km");
        report.metric("region_hit_rate", acc.hit_rate, "ratio");
        setup.service.shutdown();
        return report;
    }

    let half = duration / 2;
    let mut plain_setup = set_up(args.seed, budget, EvidencePipeline::standard(), |s| s);
    let plain = measure(&plain_setup, args.seed, budget, half);
    let plain_warm = std::mem::take(&mut plain_setup.warm);
    plain_setup.service.shutdown();
    check(&mut report, &plain, "zipf-churn untraced");

    let setup = set_up(
        args.seed,
        budget,
        traced_pipeline(&EvidencePipeline::standard()),
        TracedProvider,
    );
    let counters_before = Counters::now();
    trace::set_enabled(true);
    let traced = measure(&setup, args.seed, budget, half);
    trace::set_enabled(false);
    let counters_after = Counters::now();
    let (aggs, spans) = trace::take();
    check(&mut report, &traced, "zipf-churn traced");
    let untraced_answers = answers(&plain);
    let (mut matched, mut mismatched) = (0, 0);
    for (key, estimate) in answers(&traced) {
        if let Some(other) = untraced_answers.get(&key) {
            matched += 1;
            mismatched += usize::from(!same_answer(estimate, other));
        }
    }
    let warm_mismatched = plain_warm
        .iter()
        .zip(&setup.warm)
        .filter(|(a, b)| !same_answer(a, b))
        .count();
    report.check(
        matched > 0 && mismatched == 0 && warm_mismatched == 0,
        format!(
            "traced answers differ from the untraced run: {mismatched} of {matched} (epoch, target) answers, {warm_mismatched} warm-up answers"
        ),
    );

    let refreshed: usize = traced
        .refreshes
        .iter()
        .map(|r| r.report.refreshed_pairs)
        .sum();
    let reused: usize = traced.refreshes.iter().map(|r| r.report.reused_pairs).sum();
    let ingest_ms: Vec<f64> = traced.refreshes.iter().map(|r| r.ingest_ms).collect();
    let refresh_ms: Vec<f64> = traced.refreshes.iter().map(|r| r.refresh_ms).collect();
    let cache = setup.service.cache_stats();
    let epochs = traced.refreshes.len().max(1) as f64;
    let solve_ms_per_solve = |p: &Phase| {
        ratio(
            ms(p.after.solve_total - p.before.solve_total),
            solves(p) as f64,
        )
    };
    let mut layers = Layers {
        netsim_capture_s: setup.capture_s,
        store_load_s: setup.load_s,
        store_ingest_ms: stats::median(&ingest_ms).unwrap_or(0.0),
        store_records: traced.refreshes.iter().map(|r| r.records).sum::<usize>() as f64,
        store_merges: traced.merges as f64,
        calibration_prepare_ms: setup.start_ms,
        calibration_refreshed_pair_ratio: ratio(refreshed as f64, (refreshed + reused) as f64),
        refresh_ms: stats::median(&refresh_ms).unwrap_or(0.0),
        router_cache_hit_ratio: ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        router_cache_sub_localizations: cache.misses as f64 / epochs,
        router_cache_fresh_dilations: cache.dilation_misses as f64 / epochs,
        answer_memo_misses_per_refresh: solves(&traced) as f64 / epochs,
        trace_overhead_pct: 100.0
            * (solve_ms_per_solve(&traced) / solve_ms_per_solve(&plain) - 1.0),
        trace_coverage_pct: coverage_pct(
            &traced.requests,
            &traced.before,
            &traced.after,
            &aggs,
            &["store.ingest", "refresh"],
        ),
        ..Layers::default()
    };
    shard_layers(
        &mut layers,
        &setup.service,
        &traced.before,
        &traced.after,
        &traced.requests,
        traced.in_flight_max,
    );
    let solved_estimates: Vec<&LocationEstimate> = answers(&traced).into_values().collect();
    layers.emit(
        &mut report,
        &aggs,
        counters_before,
        counters_after,
        solves(&traced) as f64,
        applied_ratio(solved_estimates),
    );
    crate::write_trace(&mut report, args, &spans);
    report.note("distinct_targets", setup.targets.len());
    report.note("requests", plain.requests.len() + traced.requests.len());
    report.note(
        "refreshes",
        format!(
            "{} untraced + {} traced",
            plain.refreshes.len(),
            traced.refreshes.len()
        ),
    );
    setup.service.shutdown();
    report
}
