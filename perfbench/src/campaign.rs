//! The workloads' measurement campaigns.
//!
//! Each is the deployment of an `octant_bench` campaign on one fixed
//! network topology, with the measurements over it — probe jitter, probe
//! loss, WHOIS errors — drawn from the run's seed. Redrawing the topology
//! itself moves a run's cost and accuracy by far more than any bound a
//! benchmark could hold (recursive throughput ranged 14–86 targets/s over
//! seven topology seeds), so the seed varies what a deployment measures,
//! not where its routers are.

use octant_bench::{BatchCampaign, Campaign};
use octant_netsim::builder::HostSpec;
use octant_netsim::latency::LatencyModel;
use octant_netsim::{MeasurementDataset, NetworkBuilder, NetworkConfig, Prober};

/// Seed of the serving workloads' network topology — the seed the figure
/// harnesses use. The run's `--seed` draws the measurements taken over it.
pub const TOPOLOGY_SEED: u64 = 42;

/// `octant_bench::planetlab_campaign`'s deployment — one host at each of
/// the 51 PlanetLab-like sites, full pairwise capture — on the
/// [`TOPOLOGY_SEED`] network, with measurements drawn from `seed`.
pub fn planetlab(seed: u64) -> Campaign {
    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed: TOPOLOGY_SEED,
        ..NetworkConfig::default()
    });
    for site in octant_geo::sites::planetlab_51() {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    let prober = Prober::with_options(builder.build(), LatencyModel::default(), 0.15, 10, seed);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    Campaign { dataset, hosts }
}

/// `octant_bench::service_campaign`'s deployment — `landmarks` hosts at
/// the built-in sites, `target_sites * per_site` targets concentrated
/// behind the next `target_sites` sites, customers within 25 km sharing an
/// access router — on the [`TOPOLOGY_SEED`] network, with probe jitter,
/// loss and WHOIS errors drawn from `seed`.
pub fn serving_campaign(
    landmarks: usize,
    target_sites: usize,
    per_site: usize,
    seed: u64,
) -> BatchCampaign {
    let sites = octant_geo::sites::all_sites();
    let mut builder = NetworkBuilder::new(NetworkConfig {
        seed: TOPOLOGY_SEED,
        access_share_radius_km: 25.0,
        ..NetworkConfig::default()
    });
    for site in &sites[..landmarks] {
        builder = builder.add_host(HostSpec::from_site(site));
    }
    for i in 0..target_sites * per_site {
        let site = &sites[landmarks + i % target_sites];
        let wave = (i / target_sites + 1) as f64;
        let dlat = 0.021 * wave * if i % 2 == 0 { 1.0 } else { -1.0 };
        let dlon = 0.017 * wave * if i % 3 == 0 { 1.0 } else { -1.0 };
        builder = builder.add_host(HostSpec {
            hostname: format!("target{i}.{}", site.hostname),
            location: octant_geo::GeoPoint::new(site.lat + dlat, site.lon + dlon),
            city_code: site.city_code.to_string(),
        });
    }
    let prober = Prober::with_options(builder.build(), LatencyModel::default(), 0.15, 10, seed);
    let dataset = MeasurementDataset::capture(&prober);
    let hosts = dataset.host_ids();
    BatchCampaign {
        landmarks: hosts[..landmarks].to_vec(),
        targets: hosts[landmarks..].to_vec(),
        dataset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octant_netsim::ObservationProvider;

    /// At the topology seed the campaigns are `octant_bench`'s exactly.
    #[test]
    fn matches_planetlab_campaign_at_the_topology_seed() {
        let ours = planetlab(TOPOLOGY_SEED);
        let theirs = octant_bench::planetlab_campaign(TOPOLOGY_SEED);
        assert_eq!(ours.hosts, theirs.hosts);
        for &a in &ours.hosts {
            for &b in &ours.hosts {
                assert_eq!(ours.dataset.ping(a, b), theirs.dataset.ping(a, b));
            }
        }
    }

    #[test]
    fn matches_service_campaign_at_the_topology_seed() {
        let ours = serving_campaign(8, 2, 3, TOPOLOGY_SEED);
        let theirs = octant_bench::service_campaign(8, 2, 3, TOPOLOGY_SEED);
        assert_eq!(ours.landmarks, theirs.landmarks);
        assert_eq!(ours.targets, theirs.targets);
        for &t in &ours.targets {
            for &l in &ours.landmarks {
                assert_eq!(ours.dataset.ping(l, t), theirs.dataset.ping(l, t));
            }
        }
    }
}
