//! The per-target-prefix answer memo sitting **in front of** the pipeline.
//!
//! [`crate::RouterCache`] memoizes work *behind* the solve (router
//! sub-localizations shared by many targets); [`AnswerCache`] memoizes the
//! solve itself. Repeat lookups for the same target /24 — the dominant
//! pattern a production geolocation service sees, since a prefix's hosts
//! share routing and the same clients re-resolve the same prefixes — are
//! answered with the previously computed estimate, skipping the entire
//! constraint pipeline.
//!
//! ## Key and invalidation semantics
//!
//! Entries are keyed `(model epoch, target /24 prefix, evidence
//! selection)`:
//!
//! * **epoch** — answers are only ever replayed against the exact model
//!   that produced them. A [`crate::ModelRegistry`] refresh bumps the
//!   epoch, so every existing entry silently stops matching; refresh
//!   maintenance then drops retired epochs eagerly
//!   ([`AnswerCache::retire_epochs_before`], same retention policy as the
//!   router cache).
//! * **/24 prefix** — targets whose IP the provider knows are keyed by
//!   their /24 ([`TargetKey::Prefix`]); unknown-IP targets fall back to
//!   their node id ([`TargetKey::Node`]). Prefix keying encodes the
//!   serving-tier assumption that a /24 localizes as a unit (hosts of one
//!   /24 share access infrastructure — the same assumption behind
//!   [`crate::ShardRouter`]'s prefix routing).
//! * **evidence** — requests that disable or re-weight pipeline sources
//!   run a different pipeline and get their own entries
//!   ([`EvidenceKey`]); option sets are compared verbatim, so two
//!   requests share an entry only when their adjusted pipelines are
//!   constructed identically. Profiled requests bypass the memo entirely
//!   (their estimates carry request-specific wall-time profiles).
//!
//! Against a replay-stable provider a hit is **bit-identical** to a fresh
//! solve (pinned by `tests/ingest_parity.rs`): same epoch means same
//! model, same evidence means same pipeline, and the solve is a pure
//! function of both.
//!
//! ## Where the lookup happens and how it is counted
//!
//! The service looks the memo up at **admission**, inside
//! `ShardedService::submit`, before a target is queued: each cacheable
//! target costs exactly one [`AnswerCache::lookup`], so `hits + misses`
//! equals the cacheable targets submitted. A hit is served on the spot;
//! a miss is queued, solved in a micro-batch, and [`AnswerCache::insert`]ed
//! under the epoch it was solved against. The drain path never looks the
//! memo up again.
//!
//! Counters are registered under `answer_cache.*` in
//! [`MetricsRegistry::global`].

use crate::service::LocalizeOptions;
use octant::{LocationEstimate, SourceId};
use octant_netsim::observation::ObservationProvider;
use octant_netsim::topology::NodeId;
use octant_telemetry::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Sizing and retention knobs of an [`AnswerCache`].
///
/// `#[non_exhaustive]`: construct via [`AnswerCacheConfig::default`] and
/// the builder-style `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AnswerCacheConfig {
    /// Master switch. Enabled by default: with a replay-stable provider a
    /// hit is bit-identical to a fresh solve. Disable for providers whose
    /// repeat measurements should influence repeat answers within an epoch.
    pub enabled: bool,
    /// Soft capacity cap. When an insert pushes the cache past this size,
    /// entries from **retired** epochs are evicted first (oldest first,
    /// deterministically); current-epoch entries are evicted only when no
    /// retired entries remain.
    pub max_entries: usize,
    /// How many epochs refresh-maintenance keeps (the service drops
    /// everything older than `current_epoch - keep_epochs + 1` after a
    /// model refresh). Minimum 1.
    pub keep_epochs: u64,
}

impl Default for AnswerCacheConfig {
    fn default() -> Self {
        AnswerCacheConfig {
            enabled: true,
            max_entries: 8192,
            keep_epochs: 1,
        }
    }
}

octant::config_setters!(AnswerCacheConfig {
    /// Enables or disables the answer memo.
    with_enabled: enabled: bool,
    /// Sets the soft entry cap.
    with_max_entries: max_entries: usize,
    /// Sets how many epochs refresh-maintenance retains.
    with_keep_epochs: keep_epochs: u64,
});

/// Counter snapshot of an [`AnswerCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct AnswerCacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that fell through to the solve pipeline.
    pub misses: u64,
    /// Entries written after a successful solve.
    pub insertions: u64,
    /// Entries removed by epoch retirement or the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl AnswerCacheStats {
    /// Fraction of lookups answered from the memo (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a target is identified in an answer key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TargetKey {
    /// The target's /24 IP prefix (the first three octets), for targets
    /// whose address the provider's host table lists.
    Prefix([u8; 3]),
    /// Fallback for targets with no known address: the node id itself.
    Node(NodeId),
}

/// The canonicalized evidence selection of a request: the part of
/// [`LocalizeOptions`] that changes which pipeline answers the request.
/// Weight scales keep their f64 bit patterns (and their order — the
/// adjusted pipeline is constructed from the options verbatim, so only
/// verbatim-equal options are guaranteed the same pipeline).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EvidenceKey {
    disabled: Vec<SourceId>,
    scales: Vec<(SourceId, u64)>,
}

impl EvidenceKey {
    /// Builds the key for a request's options.
    pub fn from_options(options: &LocalizeOptions) -> Self {
        EvidenceKey {
            disabled: options.disabled_sources.clone(),
            scales: options
                .weight_scales
                .iter()
                .map(|&(id, scale)| (id, scale.to_bits()))
                .collect(),
        }
    }
}

/// A full answer-memo key. Epoch leads so the derived `Ord` retires oldest
/// epochs first under the capacity cap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnswerKey {
    /// The model epoch the answer was computed against.
    pub epoch: u64,
    /// The target identity (prefix or node fallback).
    pub target: TargetKey,
    /// The request's evidence selection (`None` = the base pipeline).
    pub evidence: Option<EvidenceKey>,
}

/// The target → /24 prefix table, built once from the provider's (static)
/// host list — the same provider facts [`crate::ShardRouter`] routes on.
#[derive(Debug, Default)]
pub struct PrefixTable {
    by_target: HashMap<NodeId, [u8; 3]>,
}

impl PrefixTable {
    /// Builds the table over `provider`'s hosts.
    pub fn build(provider: &dyn ObservationProvider) -> Self {
        PrefixTable {
            by_target: provider
                .hosts()
                .into_iter()
                .map(|h| (h.id, [h.ip[0], h.ip[1], h.ip[2]]))
                .collect(),
        }
    }

    /// The answer-key identity of `target`: its /24 prefix when the host
    /// table lists it, the node id otherwise.
    pub fn target_key(&self, target: NodeId) -> TargetKey {
        match self.by_target.get(&target) {
            Some(&prefix) => TargetKey::Prefix(prefix),
            None => TargetKey::Node(target),
        }
    }
}

/// The epoch-aware answer memo. See the module docs for semantics.
#[derive(Debug)]
pub struct AnswerCache {
    config: AnswerCacheConfig,
    entries: Mutex<HashMap<AnswerKey, Arc<LocationEstimate>>>,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl Default for AnswerCache {
    fn default() -> Self {
        let registry = MetricsRegistry::global();
        AnswerCache {
            config: AnswerCacheConfig::default(),
            entries: Mutex::new(HashMap::new()),
            hits: registry.counter("answer_cache.hits"),
            misses: registry.counter("answer_cache.misses"),
            insertions: registry.counter("answer_cache.insertions"),
            evictions: registry.counter("answer_cache.evictions"),
        }
    }
}

impl AnswerCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: AnswerCacheConfig) -> Self {
        AnswerCache {
            config,
            ..AnswerCache::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> AnswerCacheConfig {
        self.config
    }

    /// `true` when the memo is consulted at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Looks up an answer, counting a hit or a miss.
    pub fn lookup(&self, key: &AnswerKey) -> Option<Arc<LocationEstimate>> {
        let found = self.entries.lock().get(key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores a freshly solved answer, evicting over-cap entries
    /// (retired-epoch entries first, oldest first, deterministically).
    pub fn insert(&self, key: AnswerKey, estimate: Arc<LocationEstimate>) {
        let mut map = self.entries.lock();
        let epoch = key.epoch;
        if map.insert(key, estimate).is_none() {
            self.insertions.inc();
        }
        if map.len() > self.config.max_entries {
            let over = map.len() - self.config.max_entries;
            let mut victims: Vec<AnswerKey> = map.keys().cloned().collect();
            victims.sort_unstable();
            // Oldest epochs sort first; within the current epoch the
            // deterministic key order still breaks ties, but retired
            // entries are always consumed before current-epoch ones.
            let mut evicted = 0u64;
            for key in victims
                .iter()
                .filter(|k| k.epoch != epoch)
                .chain(victims.iter().filter(|k| k.epoch == epoch))
                .take(over)
            {
                map.remove(key);
                evicted += 1;
            }
            if evicted > 0 {
                self.evictions.add(evicted);
            }
        }
    }

    /// Drops every entry whose epoch is strictly below `min_epoch`
    /// (model-refresh maintenance). Returns the number removed.
    pub fn retire_epochs_before(&self, min_epoch: u64) -> usize {
        let removed = {
            let mut map = self.entries.lock();
            let before = map.len();
            map.retain(|k, _| k.epoch >= min_epoch);
            before - map.len()
        };
        if removed > 0 {
            self.evictions.add(removed as u64);
        }
        removed
    }

    /// Number of resident entries belonging to `epoch`.
    pub fn entries_for_epoch(&self, epoch: u64) -> usize {
        self.entries
            .lock()
            .keys()
            .filter(|k| k.epoch == epoch)
            .count()
    }

    /// Number of resident entries across all epochs.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A counter snapshot.
    pub fn stats(&self) -> AnswerCacheStats {
        AnswerCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dataset;

    fn key(epoch: u64, prefix: [u8; 3]) -> AnswerKey {
        AnswerKey {
            epoch,
            target: TargetKey::Prefix(prefix),
            evidence: None,
        }
    }

    #[test]
    fn lookup_miss_insert_hit_roundtrip() {
        let cache = AnswerCache::default();
        let k = key(1, [128, 1, 13]);
        assert!(cache.lookup(&k).is_none());
        let estimate = Arc::new(LocationEstimate::unknown());
        cache.insert(k.clone(), estimate.clone());
        let back = cache.lookup(&k).expect("inserted answer is resident");
        assert!(Arc::ptr_eq(&back, &estimate), "hits share the Arc");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = AnswerCache::default();
        cache.insert(key(1, [128, 1, 13]), Arc::new(LocationEstimate::unknown()));
        assert!(
            cache.lookup(&key(2, [128, 1, 13])).is_none(),
            "a refreshed epoch must never replay an old answer"
        );
        assert_eq!(cache.retire_epochs_before(2), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn evidence_selection_partitions_entries() {
        let cache = AnswerCache::default();
        let base = key(1, [10, 0, 0]);
        let ablated = AnswerKey {
            evidence: Some(EvidenceKey::from_options(
                &LocalizeOptions::default().without_source(SourceId::Router),
            )),
            ..base.clone()
        };
        cache.insert(base.clone(), Arc::new(LocationEstimate::unknown()));
        assert!(cache.lookup(&ablated).is_none());
        cache.insert(ablated.clone(), Arc::new(LocationEstimate::unknown()));
        assert_eq!(cache.len(), 2);
        // A deadline does not change the evidence key.
        let with_deadline = AnswerKey {
            evidence: Some(EvidenceKey::from_options(
                &LocalizeOptions::default()
                    .without_source(SourceId::Router)
                    .with_deadline(std::time::Duration::from_secs(1)),
            )),
            ..base
        };
        assert!(cache.lookup(&with_deadline).is_some());
    }

    #[test]
    fn capacity_cap_evicts_retired_epochs_first() {
        let cache = AnswerCache::new(AnswerCacheConfig::default().with_max_entries(4));
        for i in 0..4u8 {
            cache.insert(key(1, [1, i, 0]), Arc::new(LocationEstimate::unknown()));
        }
        for i in 0..3u8 {
            cache.insert(key(2, [2, i, 0]), Arc::new(LocationEstimate::unknown()));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(
            cache.entries_for_epoch(2),
            3,
            "current-epoch entries survive while retired ones remain"
        );
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn prefix_table_keys_known_hosts_by_slash24() {
        let ds = dataset(6, 7);
        let table = PrefixTable::build(&ds);
        for h in ds.hosts() {
            assert_eq!(
                table.target_key(h.id),
                TargetKey::Prefix([h.ip[0], h.ip[1], h.ip[2]])
            );
        }
        let unknown = NodeId(987_654);
        assert_eq!(table.target_key(unknown), TargetKey::Node(unknown));
    }
}
