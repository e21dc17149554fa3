//! `loo51`: the paper's Figure 3 experiment as a closed loop with one
//! caller — `eval::leave_one_out` with the default `Octant` over the
//! 51-site PlanetLab-like campaign, pass after pass.
//!
//! It is the only workload that calibrates per target (one landmark
//! preparation per target), and it bypasses the service, both caches and
//! the store.
//!
//! One measurement draw of 51 targets moves the median error by ±20%
//! between seeds, so a run captures [`DRAWS`] draws of the deployment and
//! its passes cycle through them: the accuracy metrics pool every draw's
//! first pass.

use crate::campaign::planetlab;
use crate::layers::{applied_ratio, Counters, Layers};
use crate::wrap::{traced_pipeline, TimedGeolocator, TracedProvider};
use crate::{accuracy, latency_metrics, peak_rss_mb, same_answer, stats, trace, Args, Budget};
use crate::{Report, SETUP_REPEATS};
use octant::eval::{self, TargetOutcome};
use octant::{EvidencePipeline, Octant, OctantConfig};
use octant_bench::Campaign;
use std::time::{Duration, Instant};

/// Measurement draws per run.
const DRAWS: usize = 16;

/// The seed of draw `i`; draw 0 uses the run's seed itself.
fn draw_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn capture(seed: u64) -> Vec<Campaign> {
    (0..DRAWS).map(|i| planetlab(draw_seed(seed, i))).collect()
}

/// One measured phase: passes until the time is up and every draw had one
/// (the pass under way when time runs out is finished).
struct Phase {
    /// Each draw's first pass.
    first: Vec<Vec<TargetOutcome>>,
    passes: usize,
    targets: usize,
    /// Per-target latencies, one window per pass.
    latencies_ms: Vec<Vec<f64>>,
    /// Targets per second of each pass.
    pass_rates: Vec<f64>,
    wall: Duration,
    missing_points: u64,
    diverged: usize,
}

impl Phase {
    fn pooled(&self) -> Vec<TargetOutcome> {
        self.first.concat()
    }
}

/// Runs passes through `geolocator`, reading each draw's dataset through
/// the tracing provider wrapper when `traced`.
fn measure(
    campaigns: &[Campaign],
    traced: bool,
    geolocator: &TimedGeolocator<Octant>,
    duration: Duration,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase {
        first: Vec::new(),
        passes: 0,
        targets: 0,
        latencies_ms: Vec::new(),
        pass_rates: Vec::new(),
        wall: Duration::ZERO,
        missing_points: 0,
        diverged: 0,
    };
    while phase.passes < campaigns.len() || started.elapsed() < duration {
        let draw = phase.passes % campaigns.len();
        let campaign = &campaigns[draw];
        let pass_started = Instant::now();
        let outcomes = if traced {
            let provider = TracedProvider(&campaign.dataset);
            eval::leave_one_out(&provider, geolocator, &campaign.hosts)
        } else {
            eval::leave_one_out(&campaign.dataset, geolocator, &campaign.hosts)
        };
        phase
            .pass_rates
            .push(outcomes.len() as f64 / pass_started.elapsed().as_secs_f64());
        phase.latencies_ms.push(
            geolocator
                .take_latencies()
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
        );
        phase.passes += 1;
        phase.targets += outcomes.len();
        phase.missing_points += outcomes
            .iter()
            .filter(|o| o.estimate.point.is_none())
            .count() as u64;
        match phase.first.get(draw) {
            None => phase.first.push(outcomes),
            Some(first) => {
                phase.diverged += first
                    .iter()
                    .zip(&outcomes)
                    .filter(|(a, b)| !same_answer(&a.estimate, &b.estimate))
                    .count()
            }
        }
    }
    phase.wall = started.elapsed();
    phase
}

fn check_phase(report: &mut Report, phase: &Phase, label: &str) {
    report.attempted += phase.targets as u64;
    report.failed += phase.missing_points;
    report.check(
        phase.diverged == 0,
        format!(
            "{label}: {} estimates differ from their draw's first pass",
            phase.diverged
        ),
    );
}

/// `figure3`'s Octant row — `run_technique` with the default `Octant` —
/// must match what the benchmark's loop measured on the same draw.
fn check_against_figure3(report: &mut Report, campaign: &Campaign, first: &[TargetOutcome]) {
    let reference = octant_bench::run_technique(campaign, &Octant::new(OctantConfig::default()));
    let got = accuracy(first);
    let want = accuracy(&reference.outcomes);
    report.check(
        got.median_km.to_bits() == want.median_km.to_bits()
            && got.worst_km.to_bits() == want.worst_km.to_bits()
            && got.hit_rate.to_bits() == want.hit_rate.to_bits(),
        format!(
            "loo51 accuracy {}/{}/{} differs from the figure3 Octant row {}/{}/{}",
            got.median_km, got.worst_km, got.hit_rate, want.median_km, want.worst_km, want.hit_rate
        ),
    );
}

pub fn run(args: &Args, budget: Budget, duration: Duration) -> Report {
    let mut report = Report::new();
    let config = OctantConfig::default();
    report.note(
        "workload",
        format!(
            "loo51: closed loop, 1 caller, leave-one-out over 51 sites, {DRAWS} measurement draws"
        ),
    );
    report.note("callers", 1);
    report.note("fan_out", budget.fan_out);
    report.note("generator_threads", 1);

    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut campaigns = Vec::new();
        for _ in 0..SETUP_REPEATS {
            drop(std::mem::take(&mut campaigns));
            let t = Instant::now();
            campaigns = capture(args.seed);
            setups.push(t.elapsed().as_secs_f64());
        }
        let geolocator = TimedGeolocator::new(Octant::new(config));
        let phase = measure(&campaigns, false, &geolocator, duration);
        check_phase(&mut report, &phase, "loo51");
        check_against_figure3(&mut report, &campaigns[0], &phase.first[0]);
        let acc = accuracy(&phase.pooled());
        report.note("distinct_targets", format!("51 x {DRAWS} draws"));
        report.note("requests", phase.targets);
        report.note("passes", phase.passes);
        report.metric("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric(
            "targets_per_s",
            stats::median(&phase.pass_rates).unwrap_or(f64::NAN),
            "1/s",
        );
        latency_metrics(&mut report, &phase.latencies_ms, true);
        report.metric("median_error_km", acc.median_km, "km");
        report.metric("worst_error_km", acc.worst_km, "km");
        report.metric("region_hit_rate", acc.hit_rate, "ratio");
        return report;
    }

    // Untraced half, then the traced half on a fresh capture of the same
    // inputs.
    let half = duration / 2;
    let campaigns = capture(args.seed);
    let plain = measure(
        &campaigns,
        false,
        &TimedGeolocator::new(Octant::new(config)),
        half,
    );
    drop(campaigns);
    check_phase(&mut report, &plain, "loo51 untraced");

    let t = Instant::now();
    let campaigns = capture(args.seed);
    let capture_s = t.elapsed().as_secs_f64();
    let geolocator = TimedGeolocator::new(Octant::with_pipeline(
        config,
        traced_pipeline(&EvidencePipeline::standard()),
    ));
    let before = Counters::now();
    trace::set_enabled(true);
    let traced = measure(&campaigns, true, &geolocator, half);
    trace::set_enabled(false);
    let after = Counters::now();
    let (aggs, spans) = trace::take();
    check_phase(&mut report, &traced, "loo51 traced");
    check_against_figure3(&mut report, &campaigns[0], &traced.first[0]);
    let mismatched = plain
        .pooled()
        .iter()
        .zip(&traced.pooled())
        .filter(|(a, b)| !same_answer(&a.estimate, &b.estimate))
        .count();
    report.check(
        mismatched == 0,
        format!("{mismatched} traced estimates differ from the untraced run"),
    );

    let solved = traced.targets as f64;
    let per_target = |p: &Phase| p.wall.as_secs_f64() / p.targets as f64;
    let covered_ms: f64 = aggs.values().map(|a| a.self_ms()).sum();
    let layers = Layers {
        netsim_capture_s: capture_s,
        calibration_prepare_ms: aggs
            .get("calibration")
            .map_or(0.0, |a| a.total_ms() / solved),
        trace_overhead_pct: 100.0 * (per_target(&traced) / per_target(&plain) - 1.0),
        trace_coverage_pct: 100.0 * covered_ms / (traced.wall.as_secs_f64() * 1e3),
        ..Layers::default()
    };
    let pooled = traced.pooled();
    layers.emit(
        &mut report,
        &aggs,
        before,
        after,
        solved,
        applied_ratio(pooled.iter().map(|o| &o.estimate)),
    );
    crate::write_trace(&mut report, args, &spans);
    report.note("distinct_targets", format!("51 x {DRAWS} draws"));
    report.note("requests", plain.targets + traced.targets);
    report.note(
        "passes",
        format!("{} untraced + {} traced", plain.passes, traced.passes),
    );
    report
}
