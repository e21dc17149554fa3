//! The geolocation service — Octant as a long-lived online system.
//!
//! Where `batch_localization` runs one offline batch, this example drives
//! `octant_service::GeolocationService` through the mixed workload a real
//! deployment sees, with `RouterLocalization::Recursive` (the most expensive
//! enrichment in the framework) enabled throughout:
//!
//! 1. a **cold wave** of requests for targets concentrated behind a few
//!    metro sites — the shared router cache performs one sub-localization
//!    per router, not per target;
//! 2. a **repeat wave** re-requesting the same targets from many small
//!    concurrent requests — served entirely from cache;
//! 3. a **model refresh mid-stream** — a new landmark-model epoch is
//!    registered while requests are in flight, without interrupting them;
//! 4. a **post-refresh wave** — the cache re-fills for the new epoch and
//!    old-epoch entries are retired;
//! 5. an **SLO wave** — requests carrying deadlines resolve to typed
//!    outcomes: a generous deadline is served; an already-expired one
//!    still serves an answer-memo hit (hits resolve inside `submit`), but a
//!    target that has to queue is shed at drain time without spending any
//!    solver work;
//! 6. a **profiled wave** — the same targets re-requested with
//!    `LocalizeOptions::with_profiling()`: every served estimate carries a
//!    per-stage `StageProfile` (queue wait, evidence sources, solver
//!    stages), and the service's merged per-shard stage histograms print
//!    as a breakdown table via `stats_report()`.
//!
//! Along the way the example verifies that served estimates are
//! bit-identical to the uncached sequential `Recursive` path on the same
//! replay-stable dataset. To make that demonstration exact, the service
//! opts out of the (default-on) radius-class dilation cache with a step of
//! `0.0` — the default 25 km step trades bit-identity for shared
//! dilations (sound, characterized on ground-truth error; see
//! `RouterCacheConfig::dilation_radius_step_km`).
//!
//! Run with `cargo run --release --example geolocation_service` (pass
//! `--smoke` for a reduced problem size, as CI does).

use octant::{Geolocator, Octant, OctantConfig, RouterLocalization, SourceId};
use octant_bench::service_campaign;
use octant_service::{
    GeolocationService, LocalizeOptions, RouterCacheConfig, ServeOutcome, ServiceConfig,
};
use std::time::{Duration, Instant};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // More landmarks are *cheaper* per target here: tighter constraints keep
    // the region boolean ops small, which dominates the solve cost.
    let (landmark_count, target_sites, per_site) = if smoke { (16, 3, 2) } else { (16, 4, 6) };
    let octant_config =
        OctantConfig::default().with_router_localization(RouterLocalization::Recursive);

    println!(
        "# geolocation service: {landmark_count} landmarks, {} targets behind {target_sites} shared sites",
        target_sites * per_site
    );
    let capture_start = Instant::now();
    let campaign = service_campaign(landmark_count, target_sites, per_site, 42);
    let provider = campaign.dataset.into_shared();
    println!("# campaign captured in {:.1?}", capture_start.elapsed());

    // Step 0 disables the radius-class dilation cache so the parity check
    // below can assert exact bit-identity against the uncached path.
    let service = GeolocationService::start(
        ServiceConfig::default()
            .with_octant(octant_config)
            .with_cache(RouterCacheConfig::default().with_dilation_radius_step_km(0.0)),
        provider.clone(),
        &campaign.landmarks,
    );

    // ---- Wave 1: cold cache ----------------------------------------------
    let wave_start = Instant::now();
    let cold = service.localize_blocking(&campaign.targets);
    let cold_elapsed = wave_start.elapsed();
    let stats = service.stats();
    println!(
        "# wave 1 (cold)   : {:>8.1?}  {} targets, {} router sub-localizations, {:.0}% hit rate",
        cold_elapsed,
        cold.len(),
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0
    );

    // ---- Wave 2: repeat traffic, many small concurrent requests ------------
    let wave_start = Instant::now();
    let handles: Vec<_> = campaign
        .targets
        .chunks(3)
        .map(|chunk| service.submit(chunk))
        .collect();
    let repeat: Vec<_> = handles.into_iter().flat_map(|h| h.wait()).collect();
    let repeat_elapsed = wave_start.elapsed();
    let before = service.stats();
    println!(
        "# wave 2 (repeat) : {:>8.1?}  {} targets, cache answered every router lookup",
        repeat_elapsed,
        repeat.len()
    );
    for (a, b) in cold.iter().zip(&repeat) {
        assert_eq!(
            a.estimate.point, b.estimate.point,
            "repeat wave must replay"
        );
    }

    // ---- Model refresh mid-stream ------------------------------------------
    // Submit a request, refresh the model while it may still be queued, then
    // submit another: the first is served on whichever epoch its batch
    // snapshotted, the second on the new epoch — neither is interrupted.
    let in_flight = service.submit(&campaign.targets[..per_site.min(3)]);
    let epoch = service.refresh_model(&campaign.landmarks);
    let after_refresh = service.submit(&campaign.targets[..per_site.min(3)]);
    let in_flight = in_flight.wait();
    let after_refresh = after_refresh.wait();
    println!(
        "# refresh         : epoch {} -> {}, {} entries retired, in-flight request served on epoch {}",
        before.epoch,
        epoch,
        service.cache().stats().evictions,
        in_flight[0].epoch
    );
    assert_eq!(after_refresh[0].epoch, epoch);
    // Same landmarks + replay-stable dataset => same estimates across epochs.
    for (a, b) in in_flight.iter().zip(&after_refresh) {
        assert_eq!(a.estimate.point, b.estimate.point);
    }

    // ---- Wave 3: post-refresh traffic re-fills the new epoch ----------------
    let wave_start = Instant::now();
    let post = service.localize_blocking(&campaign.targets);
    let post_elapsed = wave_start.elapsed();
    println!(
        "# wave 3 (epoch {}): {:>8.1?}  {} targets",
        epoch,
        post_elapsed,
        post.len()
    );

    // ---- Parity against the uncached sequential Recursive path --------------
    let octant = Octant::new(octant_config);
    let checks = if smoke { 2 } else { 4 };
    for s in cold.iter().take(checks) {
        let uncached = octant.localize(provider.as_ref(), &campaign.landmarks, s.target);
        assert_eq!(
            s.estimate.point, uncached.point,
            "served estimate must be bit-identical to the uncached path"
        );
    }
    println!("# parity          : served estimates bit-identical to uncached Recursive ({checks} targets checked)");

    // ---- Wave 4: SLOs — deadlines resolve to typed outcomes -----------------
    // A generous deadline serves normally. An already-expired one sheds a
    // target that has to queue — here, one whose evidence selection has no
    // memo entry yet — at drain time (ServeOutcome::DeadlineExceeded)
    // without any solver work, while a memo hit resolves inside `submit`,
    // before any deadline can pass.
    let on_time = service.localize_blocking_with_options(
        &campaign.targets[..1],
        LocalizeOptions::default().with_deadline(Duration::from_secs(60)),
    );
    let served_before = service.stats().counters.targets_served;
    let expired = service.localize_blocking_with_options(
        &campaign.targets[..1],
        LocalizeOptions::default()
            .without_source(SourceId::Hint)
            .with_deadline(Duration::ZERO),
    );
    assert!(on_time[0].is_served());
    assert!(matches!(expired[0], ServeOutcome::DeadlineExceeded));
    assert_eq!(
        service.stats().counters.targets_served,
        served_before,
        "an expired target is never solved"
    );
    let hit = service.localize_blocking_with_options(
        &campaign.targets[..1],
        LocalizeOptions::default().with_deadline(Duration::ZERO),
    );
    assert!(hit[0].is_served(), "a memo hit cannot miss its deadline");
    println!(
        "# wave 4 (SLO)    : 60s deadline served on epoch {}, 0s deadline shed unsolved ({} deadline-expired total), 0s deadline memo hit served",
        on_time[0].served().expect("generous deadline").epoch,
        service.stats().counters.deadline_expired
    );

    // ---- Wave 5: profiled traffic — per-request stage breakdowns ------------
    // Profiling is opt-in per request: these targets batch separately and
    // each served estimate carries a per-stage wall-time profile, while the
    // earlier unprofiled waves paid nothing for the capability.
    let profiled = service.localize_blocking_with_options(
        &campaign.targets,
        LocalizeOptions::default().with_profiling(),
    );
    let slowest = profiled
        .iter()
        .filter_map(|o| o.served())
        .filter_map(|s| s.estimate.profile.as_ref())
        .max_by_key(|p| p.total())
        .expect("profiled wave serves at least one target");
    println!(
        "# wave 5 (profile): {} targets profiled; slowest request spent {:.1?} across {} stages",
        profiled.len(),
        slowest.total(),
        slowest.stages().len()
    );
    println!(
        "{:<18} {:>12} {:>8}   (slowest request)",
        "stage", "wall", "calls"
    );
    for stage in slowest.stages() {
        println!(
            "{:<18} {:>12.1?} {:>8}",
            stage.name, stage.wall, stage.calls
        );
    }
    let report = service.stats_report();
    println!("# per-stage serve breakdown, merged across shards:");
    print!("{report}");

    let final_stats = service.stats();
    println!(
        "# totals          : {} targets in {} micro-batches (largest {}), {} sub-localizations, {} cache hits, {:.0}% hit rate",
        final_stats.counters.targets_served,
        final_stats.counters.batches,
        final_stats.counters.largest_batch,
        final_stats.cache.misses,
        final_stats.cache.hits,
        final_stats.cache.hit_rate() * 100.0
    );
    println!(
        "# latency         : {} serves, p50 {:?}, p99 {:?}, p999 {:?}, max {:?} (queue depth now {})",
        final_stats.latency.count,
        final_stats.latency.p50,
        final_stats.latency.p99,
        final_stats.latency.p999,
        final_stats.latency.max,
        final_stats.queue_depth_total()
    );
    service.shutdown();
}
