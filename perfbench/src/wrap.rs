//! Wrappers around the program's public trait seams.
//!
//! Each wrapper forwards every trait method to the wrapped value unchanged,
//! so a run through the wrappers computes exactly what a run without them
//! computes; the wrappers only time the calls (and, when the recorder is
//! on, open trace frames around them).

use crate::trace;
use octant::pipeline::TargetContext;
use octant::{
    Constraint, ConstraintSource, EvidencePipeline, Geolocator, LocationEstimate, SourceId,
};
use octant_geo::point::GeoPoint;
use octant_netsim::observation::{HostDescriptor, PingObservation, TracerouteHop};
use octant_netsim::topology::NodeId;
use octant_netsim::ObservationProvider;
use octant_region::GeoRegion;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace layer of every observation read (the netsim layer).
pub const PROVIDER_LAYER: &str = "provider";

/// An [`ObservationProvider`] whose every read is a `provider` frame.
pub struct TracedProvider<P>(pub P);

impl<P: ObservationProvider> ObservationProvider for TracedProvider<P> {
    fn hosts(&self) -> Vec<HostDescriptor> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.hosts()
    }
    fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.ping(from, to)
    }
    fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.traceroute(from, to)
    }
    fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.node_by_ip(ip)
    }
    fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.reverse_dns(ip)
    }
    fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.whois_city(ip)
    }
    fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
        let _f = trace::enter(PROVIDER_LAYER);
        self.0.advertised_location(id)
    }
}

/// A [`Geolocator`] that times every `localize` call (the per-target
/// latency of the leave-one-out loop). When the recorder is on, each call
/// is a `localize` span whose leading phase — everything before the first
/// evidence source runs, i.e. the per-target landmark calibration — is
/// accounted to the `calibration` layer.
pub struct TimedGeolocator<G> {
    inner: G,
    latencies: RefCell<Vec<Duration>>,
    next_request: Cell<u64>,
}

impl<G> TimedGeolocator<G> {
    /// Wraps `inner`.
    pub fn new(inner: G) -> Self {
        TimedGeolocator {
            inner,
            latencies: RefCell::new(Vec::new()),
            next_request: Cell::new(1),
        }
    }

    /// The latencies recorded so far, in call order.
    pub fn take_latencies(&self) -> Vec<Duration> {
        std::mem::take(&mut self.latencies.borrow_mut())
    }
}

impl<G: Geolocator> Geolocator for TimedGeolocator<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn localize(
        &self,
        provider: &dyn ObservationProvider,
        landmarks: &[NodeId],
        target: NodeId,
    ) -> LocationEstimate {
        let request = self.next_request.get();
        self.next_request.set(request + 1);
        let started = Instant::now();
        let estimate = {
            let _f = trace::span_with_prefix("localize", "calibration", request);
            self.inner.localize(provider, landmarks, target)
        };
        self.latencies.borrow_mut().push(started.elapsed());
        estimate
    }
}

thread_local! {
    /// The target whose last `constraints` call ended on this thread, and
    /// when: the solver runs from then until the refinement starts.
    static SOLVER_FROM: Cell<Option<(NodeId, Instant)>> = const { Cell::new(None) };
}

/// A [`ConstraintSource`] whose calls are frames of its `source.<id>`
/// layer. The gap between the last `constraints` call of a target and the
/// first `refine` call of the same target on the same thread is the
/// solver's region intersection, recorded as the `solver` layer.
pub struct TracedSource {
    inner: Arc<dyn ConstraintSource>,
}

impl TracedSource {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ConstraintSource>) -> Self {
        TracedSource { inner }
    }
}

impl ConstraintSource for TracedSource {
    fn id(&self) -> SourceId {
        self.inner.id()
    }

    fn constraints(&self, ctx: &TargetContext<'_>) -> Vec<Constraint> {
        trace::close_prefix();
        let out = {
            let _f = trace::enter(self.inner.id().span_name());
            self.inner.constraints(ctx)
        };
        SOLVER_FROM.with(|c| c.set(Some((ctx.target, Instant::now()))));
        out
    }

    fn refine(&self, ctx: &TargetContext<'_>, estimate: GeoRegion) -> GeoRegion {
        if let Some((target, since)) = SOLVER_FROM.with(|c| c.take()) {
            if target == ctx.target {
                trace::record_gap("solver", since);
            }
        }
        let _f = trace::enter(self.inner.id().span_name());
        self.inner.refine(ctx, estimate)
    }

    fn refines(&self) -> bool {
        self.inner.refines()
    }
}

/// `base` with every source wrapped in a [`TracedSource`], re-registered
/// with the same enable switch and weight scale, in the same order.
pub fn traced_pipeline(base: &EvidencePipeline) -> EvidencePipeline {
    base.entries()
        .iter()
        .fold(EvidencePipeline::empty(), |pipeline, entry| {
            pipeline.with_source_config(
                Arc::new(TracedSource::new(entry.source().clone())),
                entry.enabled(),
                entry.weight_scale(),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant::{Octant, OctantConfig, RouterLocalization};
    use octant_geo::units::Latency;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A provider with a distinct canned answer per method that counts the
    /// calls it receives.
    #[derive(Default)]
    struct Canned {
        calls: AtomicUsize,
    }

    impl Canned {
        fn bump(&self) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl ObservationProvider for Canned {
        fn hosts(&self) -> Vec<HostDescriptor> {
            self.bump();
            vec![HostDescriptor {
                id: NodeId(3),
                hostname: "h.example".into(),
                ip: [1, 2, 3, 4],
            }]
        }
        fn ping(&self, from: NodeId, to: NodeId) -> PingObservation {
            self.bump();
            PingObservation::new(vec![Latency::from_ms((from.0 * 10 + to.0) as f64)])
        }
        fn traceroute(&self, from: NodeId, to: NodeId) -> Vec<TracerouteHop> {
            self.bump();
            vec![TracerouteHop {
                node: NodeId(from.0 + to.0),
                ip: [9, 9, 9, 9],
                hostname: "r.example".into(),
                rtt: Latency::from_ms(1.5),
            }]
        }
        fn node_by_ip(&self, ip: [u8; 4]) -> Option<NodeId> {
            self.bump();
            Some(NodeId(ip[3] as u32))
        }
        fn reverse_dns(&self, ip: [u8; 4]) -> Option<String> {
            self.bump();
            Some(format!("dns-{}", ip[0]))
        }
        fn whois_city(&self, ip: [u8; 4]) -> Option<String> {
            self.bump();
            Some(format!("city-{}", ip[1]))
        }
        fn advertised_location(&self, id: NodeId) -> Option<GeoPoint> {
            self.bump();
            Some(GeoPoint::new(id.0 as f64, -(id.0 as f64)))
        }
    }

    #[test]
    fn traced_provider_forwards_every_method() {
        let wrapped = TracedProvider(Canned::default());
        let plain = Canned::default();
        let (a, b) = (NodeId(4), NodeId(7));
        let ip = [5, 6, 7, 8];
        assert_eq!(wrapped.hosts(), plain.hosts());
        assert_eq!(wrapped.ping(a, b), plain.ping(a, b));
        assert_eq!(wrapped.traceroute(a, b), plain.traceroute(a, b));
        assert_eq!(wrapped.node_by_ip(ip), plain.node_by_ip(ip));
        assert_eq!(wrapped.reverse_dns(ip), plain.reverse_dns(ip));
        assert_eq!(wrapped.whois_city(ip), plain.whois_city(ip));
        assert_eq!(wrapped.advertised_location(a), plain.advertised_location(a));
        assert_eq!(wrapped.0.calls.load(Ordering::Relaxed), 7);
    }

    fn assert_same(a: &LocationEstimate, b: &LocationEstimate) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.report, b.report);
        assert_eq!(a.provenance, b.provenance);
        assert_eq!(a.region, b.region);
    }

    #[test]
    fn wrapped_pipeline_and_geolocator_forward_every_method() {
        let campaign = octant_bench::campaign_with_sites(8, 5);
        let provider = &campaign.dataset;
        let (target, landmarks) = campaign.hosts.split_first().unwrap();
        for mode in [RouterLocalization::CityHint, RouterLocalization::Recursive] {
            let config = OctantConfig::default().with_router_localization(mode);
            let plain = Octant::new(config);
            let pipeline = traced_pipeline(plain.pipeline());
            // Same slots: identity, enable switch and weight, in order.
            let slots = |p: &EvidencePipeline| {
                p.entries()
                    .iter()
                    .map(|e| (e.id(), e.enabled(), e.weight_scale(), e.source().refines()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(slots(&pipeline), slots(plain.pipeline()));
            let traced = TimedGeolocator::new(Octant::with_pipeline(config, pipeline));
            assert_eq!(traced.name(), plain.name());
            let expected = plain.localize(provider, landmarks, *target);
            let got = traced.localize(&TracedProvider(provider), landmarks, *target);
            assert!(expected.point.is_some());
            assert_same(&got, &expected);
            assert_eq!(traced.take_latencies().len(), 1);
        }
    }
}
