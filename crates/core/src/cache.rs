//! Memoized T-factory designs: a bounded, persistent design store shared
//! across estimation runs (and, through snapshots, across processes).
//!
//! The distillation-pipeline search ([`TFactoryBuilder::find_factory`]) is
//! the most expensive stage of an estimate, and the paper's workloads repeat
//! it constantly: a hardware-profile sweep re-designs factories per profile,
//! and the Pareto frontier re-runs the *same* design for every factory-copy
//! cap. [`FactoryCache`] memoizes designs so a warm [`crate::Estimator`]
//! skips the search entirely for repeated scenarios.
//!
//! ## Families and intervals
//!
//! The store is keyed by design *family*: everything the search depends on
//! except the required T-state output error — the physical qubit model's
//! numeric parameters, the QEC scheme's constants and formula sources, and
//! the search configuration (distillation units, round/distance limits).
//! The search stops each pipeline at the first round whose output error
//! meets the requirement (`out <= required`), so a family has only a handful
//! of distinct designs, and each answers a whole range of required errors:
//! if design D is the answer at ε′, it is also the answer at every ε with
//! `D.output_error_rate ≤ ε ≤ ε′`. Failures are monotone too: a pipeline
//! that meets a tighter requirement has a prefix that meets a looser one,
//! so if no factory exists at ε, none exists at any tighter ε.
//!
//! Each family therefore stores a list of intervals `[lo, hi]`, sorted by
//! `lo` and pairwise disjoint, where `lo` is the design's own output error
//! and `hi` the loosest required error it has answered — plus at most one
//! *infeasible bound*: no factory exists at or below it. A lookup is one
//! family probe plus a binary search. A search runs only when the required
//! error falls in a gap, and its result either widens the matching design's
//! `hi`, inserts a new interval, or raises the infeasible bound.
//!
//! A gap search is seeded with the smallest volume among the family's
//! designs that already meet the requirement (`lo ≤ required`): any such
//! design is a valid pipeline for the new problem, so its volume is an
//! achievable incumbent, the branch and bound prunes harder from the first
//! node, and the result is the unseeded search's.
//!
//! A hit on an infeasible bound rebuilds [`Error::NoTFactory`] with the
//! caller's required error, so its message is byte for byte the cold
//! search's. The cache is internally synchronized and safe to share across
//! the worker threads of a parallel batch.
//!
//! ## Scoping model: one store, per-view counters
//!
//! A cache value is two separable things: the design *store* (behind its own
//! [`Arc`]) and the hit/miss *counters* (owned by each view).
//! [`FactoryCache::scoped`] hands out sibling views that share every
//! memoized design while counting their own lookups — the shape a
//! long-running job server needs: one process-wide store, exact per-job
//! statistics even while jobs run concurrently. Store-level quantities
//! (entries, capacity, evictions) are shared by every sibling; lookup
//! counters (hits, misses) are per-view.
//!
//! ## Bounded size and eviction
//!
//! [`FactoryCache::with_capacity`] bounds the store to at most `capacity`
//! stored designs (an infeasible bound counts as one), evicting the **least
//! recently used** whenever an insert would exceed the bound (every lookup
//! hit refreshes its design's recency). A recency index ordered by last-use
//! stamp finds each victim in O(log n); a family left with no design and no
//! bound is dropped. Evictions are counted exactly in
//! [`CacheStats::evictions`]; an evicted design is simply re-searched (and
//! re-counted as a miss) if a required error it answered comes back. An
//! unbounded cache ([`FactoryCache::new`]) never evicts.
//!
//! ## Persistence: versioned JSON snapshots
//!
//! [`FactoryCache::save`] writes the store as a versioned JSON snapshot and
//! [`FactoryCache::load`] merges one back, so a design store can outlive its
//! process (the `qre serve --cache-file` flow). The snapshot document is
//!
//! ```json
//! {
//!   "format": "qre-factory-cache",
//!   "version": 2,
//!   "entries": [
//!     { "key": { "words": [...], "text": "..." }, "answeredUpToBits": ..., "design": { ... } },
//!     { "key": { "words": [...], "text": "..." }, "noTFactory": { "requiredBits": ... } }
//!   ]
//! }
//! ```
//!
//! with one entry per stored design: `key` is its family key,
//! `answeredUpToBits` its interval's `hi` (the `lo` is the design's own
//! `outputErrorRateBits`), and a `noTFactory` entry's `requiredBits` is the
//! family's infeasible bound. `format` must equal [`SNAPSHOT_FORMAT`] and
//! `version` must equal [`SNAPSHOT_VERSION`]; anything else is rejected
//! with a descriptive [`Error::InvalidInput`] so callers can warn loudly
//! and fall back to a cold start instead of silently trusting a foreign
//! file. Every `f64` in a snapshot is stored as its IEEE-754 bit pattern (a
//! `u64`), making a save→load round trip **bit-exact**: a loaded design is
//! indistinguishable from the one the search produced, and family keys
//! (which fingerprint floats by bit pattern) match exactly. Entries are
//! written in least-recently-used-first order, so loading a snapshot into a
//! cache with a smaller capacity keeps the most recently used designs.
//! Saves are atomic (write to a unique temporary file, then rename), so a
//! crash never leaves a half-written snapshot behind.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};
use crate::physical_qubit::{InstructionSet, PhysicalQubit};
use crate::qec::QecScheme;
use crate::tfactory::{FactoryRound, RoundLevel, SearchStats, TFactory, TFactoryBuilder};
use qre_json::{ObjectBuilder, Value};

/// Snapshot document type tag ([`FactoryCache::save`] writes it,
/// [`FactoryCache::load`] requires it).
pub const SNAPSHOT_FORMAT: &str = "qre-factory-cache";

/// Snapshot schema version. Bump on any incompatible change to the entry
/// encoding; [`FactoryCache::load`] rejects every other version loudly.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Bit-exact fingerprint of one design family.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FactoryKey {
    /// `f64::to_bits` / integer words of every numeric input, in a fixed
    /// field order.
    words: Vec<u64>,
    /// Unit-separated concatenation of every textual input (unit names,
    /// formula sources, instruction sets).
    text: String,
}

/// Incremental [`FactoryKey`] builder.
#[derive(Debug, Default)]
struct KeyBuilder {
    words: Vec<u64>,
    text: String,
}

impl KeyBuilder {
    fn f64(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    fn u64(&mut self, v: u64) {
        self.words.push(v);
    }

    fn str(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push('\u{1f}');
    }

    fn instruction_set(&mut self, set: InstructionSet) {
        self.str(set.name());
    }

    fn finish(self) -> FactoryKey {
        FactoryKey {
            words: self.words,
            text: self.text,
        }
    }
}

/// Fingerprint of a design *family*: every search input **except** the
/// required output error. Two problems in one family differ only in how far
/// the pipeline must distill — exactly the shape of neighbouring sweep items
/// — so one family entry answers all of them (see the module docs).
fn family_key(builder: &TFactoryBuilder, qubit: &PhysicalQubit, scheme: &QecScheme) -> FactoryKey {
    let mut k = KeyBuilder::default();
    // Qubit model: every field the search reads. The profile name is
    // cosmetic and deliberately excluded, so renamed-but-identical models
    // share designs.
    k.instruction_set(qubit.instruction_set);
    k.f64(qubit.one_qubit_gate_time_ns);
    k.f64(qubit.two_qubit_gate_time_ns);
    k.f64(qubit.one_qubit_measurement_time_ns);
    k.f64(qubit.two_qubit_measurement_time_ns);
    k.f64(qubit.t_gate_time_ns);
    k.f64(qubit.one_qubit_gate_error);
    k.f64(qubit.two_qubit_gate_error);
    k.f64(qubit.one_qubit_measurement_error);
    k.f64(qubit.two_qubit_measurement_error);
    k.f64(qubit.t_gate_error);
    k.f64(qubit.idle_error);
    // QEC scheme: constants plus the formula *sources* (formulas are pure).
    k.instruction_set(scheme.instruction_set);
    k.f64(scheme.error_correction_threshold);
    k.f64(scheme.crossing_prefactor);
    k.str(scheme.logical_cycle_time.source());
    k.str(scheme.physical_qubits_per_logical_qubit.source());
    k.u64(u64::from(scheme.max_code_distance));
    // Search configuration.
    k.u64(builder.max_rounds as u64);
    k.u64(u64::from(builder.max_code_distance));
    k.u64(builder.units.len() as u64);
    for unit in &builder.units {
        // The unit name is part of the key: it appears verbatim in the
        // realised factory's rounds, so same-shape units with different
        // names must not share cache entries.
        k.str(&unit.name);
        k.u64(unit.num_input_ts);
        k.u64(unit.num_output_ts);
        k.str(unit.failure_probability.source());
        k.str(unit.output_error_rate.source());
        match &unit.physical {
            Some(p) => {
                k.u64(1);
                k.u64(p.qubits);
                k.u64(p.duration_cycles);
            }
            None => k.u64(0),
        }
        match &unit.logical {
            Some(l) => {
                k.u64(1);
                k.u64(l.logical_qubits);
                k.u64(l.duration_logical_cycles);
            }
            None => k.u64(0),
        }
        k.u64(u64::from(unit.first_round_only));
    }
    k.finish()
}

/// Hit/miss/size/eviction counters of a [`FactoryCache`].
///
/// The counters obey `hits + misses` = lookups (per view) and, summed over
/// every view of one store, `entries + evictions ≤ misses`: each entry was
/// added by one miss and each eviction removed one, but a miss whose search
/// re-finds a stored design only widens that design's interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store (including lookups that raced a
    /// concurrent search and adopted its first-recorded result). Per-view:
    /// a [`FactoryCache::scoped`] sibling counts its own.
    pub hits: u64,
    /// Lookups that ran a search and recorded its result in the store: one
    /// per search that populated the store (a new entry, a widened interval
    /// or a raised infeasible bound), however many threads race on one gap.
    /// Per-view, like `hits`.
    pub misses: u64,
    /// Designs currently stored, an infeasible bound counting as one.
    /// Store-level: shared by every scoped sibling.
    pub entries: usize,
    /// Designs evicted to respect the capacity bound, since the store was
    /// created. Store-level, like `entries`; always 0 for an unbounded
    /// cache.
    pub evictions: u64,
    /// The store's capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// One stored design and the required errors it answers: every `required`
/// with `design.output_error_rate ≤ required ≤ answered_up_to`.
#[derive(Debug)]
struct Interval {
    design: TFactory,
    answered_up_to: f64,
    /// Recency stamp of the last lookup or record that touched it (its key
    /// in the [`Recency`] index).
    last_used: u64,
}

impl Interval {
    /// The tightest required error this design answers: its own output
    /// error.
    fn lo(&self) -> f64 {
        self.design.output_error_rate
    }
}

/// A family's infeasible bound: no factory exists at any required error at
/// or below `up_to`.
#[derive(Debug)]
struct Infeasible {
    up_to: f64,
    last_used: u64,
}

/// Everything stored for one design family.
#[derive(Debug, Default)]
struct Family {
    /// Sorted by [`Interval::lo`], pairwise disjoint.
    intervals: Vec<Interval>,
    infeasible: Option<Infeasible>,
}

impl Family {
    /// Binary search for the interval whose design has output error `lo`.
    fn position(&self, lo: f64) -> std::result::Result<usize, usize> {
        self.intervals.binary_search_by(|iv| iv.lo().total_cmp(&lo))
    }
}

/// One stored design, as the recency index names it: a family's interval
/// (by its `lo`) or the family's infeasible bound (`lo == None`).
#[derive(Debug, Clone)]
struct Slot {
    family: Arc<FactoryKey>,
    lo: Option<f64>,
}

/// Every stored design by last-use stamp, oldest first: the first entry is
/// the LRU victim, and the length is the store's entry count.
#[derive(Debug, Default)]
struct Recency {
    clock: u64,
    index: BTreeMap<u64, Slot>,
}

impl Recency {
    /// Index a new design under a fresh stamp, returning the stamp.
    fn insert(&mut self, slot: Slot) -> u64 {
        self.clock += 1;
        self.index.insert(self.clock, slot);
        self.clock
    }

    /// Move a stored design from stamp `old` to a fresh one.
    fn touch(&mut self, old: u64) -> u64 {
        let slot = self.index.remove(&old).expect("stored designs are indexed");
        self.insert(slot)
    }
}

/// The shared design store: families plus the state that must be common to
/// every scoped view (capacity bound, recency index, eviction count).
#[derive(Debug, Default)]
struct Store {
    families: HashMap<Arc<FactoryKey>, Family>,
    recency: Recency,
    capacity: Option<usize>,
    evictions: u64,
}

impl Store {
    /// The stored answer at `required`, refreshing its recency; `None` when
    /// `required` falls in a gap of its family (or the family is unknown).
    fn lookup(&mut self, family: &FactoryKey, required: f64) -> Option<Result<TFactory>> {
        let fam = self.families.get_mut(family)?;
        if let Some(bound) = fam.infeasible.as_mut().filter(|b| required <= b.up_to) {
            bound.last_used = self.recency.touch(bound.last_used);
            return Some(Err(Error::NoTFactory { required }));
        }
        let at = fam.intervals.partition_point(|iv| iv.lo() <= required);
        let interval = fam.intervals[..at]
            .last_mut()
            .filter(|iv| required <= iv.answered_up_to)?;
        interval.last_used = self.recency.touch(interval.last_used);
        Some(Ok(interval.design.clone()))
    }

    /// The best incumbent seed for a gap search at `required`: the smallest
    /// volume among the family's designs whose output error already meets
    /// `required`. Such a design is itself a valid solution of the new
    /// problem, so its volume is an upper bound the branch and bound may
    /// prune against from the first node.
    fn seed_volume(&self, family: &FactoryKey, required: f64) -> Option<f64> {
        let fam = self.families.get(family)?;
        let at = fam.intervals.partition_point(|iv| iv.lo() <= required);
        fam.intervals[..at]
            .iter()
            .map(|iv| iv.design.volume())
            .min_by(f64::total_cmp)
    }

    /// Record the answer a search gave at `required`: widen the interval of
    /// a design already stored, raise the family's infeasible bound, or add
    /// an entry — then evict least-recently-used entries until the capacity
    /// bound holds again. Returns the entry when one was added. (With
    /// `capacity == Some(0)` the fresh entry itself is evicted immediately:
    /// the store stays empty and every lookup is a miss, which keeps the
    /// counters exact even in the degenerate configuration.)
    fn record(
        &mut self,
        family: &FactoryKey,
        required: f64,
        answer: &Result<TFactory>,
    ) -> Option<Slot> {
        // The search fails only with `NoTFactory`, and a NaN requirement
        // lies in no interval; neither is worth storing.
        if required.is_nan() || matches!(answer, Err(e) if !matches!(e, Error::NoTFactory { .. })) {
            return None;
        }
        let key = match self.families.get_key_value(family) {
            Some((key, _)) => Arc::clone(key),
            None => Arc::new(family.clone()),
        };
        let fam = self.families.entry(Arc::clone(&key)).or_default();
        let slot = match answer {
            Ok(design) => match fam.position(design.output_error_rate) {
                Ok(i) => {
                    let interval = &mut fam.intervals[i];
                    interval.answered_up_to = interval.answered_up_to.max(required);
                    interval.last_used = self.recency.touch(interval.last_used);
                    return None;
                }
                Err(i) => {
                    let slot = Slot {
                        family: key,
                        lo: Some(design.output_error_rate),
                    };
                    let last_used = self.recency.insert(slot.clone());
                    fam.intervals.insert(
                        i,
                        Interval {
                            design: design.clone(),
                            answered_up_to: required,
                            last_used,
                        },
                    );
                    slot
                }
            },
            Err(_) => match &mut fam.infeasible {
                Some(bound) => {
                    bound.up_to = bound.up_to.max(required);
                    bound.last_used = self.recency.touch(bound.last_used);
                    return None;
                }
                None => {
                    let slot = Slot {
                        family: key,
                        lo: None,
                    };
                    fam.infeasible = Some(Infeasible {
                        up_to: required,
                        last_used: self.recency.insert(slot.clone()),
                    });
                    slot
                }
            },
        };
        if let Some(capacity) = self.capacity {
            while self.recency.index.len() > capacity {
                self.evict_oldest();
            }
        }
        Some(slot)
    }

    /// Drop the least recently used design, and its family once empty.
    fn evict_oldest(&mut self) {
        let (_, victim) = self
            .recency
            .index
            .pop_first()
            .expect("non-empty store over capacity");
        let fam = self
            .families
            .get_mut(&victim.family)
            .expect("indexed designs belong to a stored family");
        match victim.lo {
            Some(lo) => {
                let i = fam.position(lo).expect("indexed design is stored");
                fam.intervals.remove(i);
            }
            None => fam.infeasible = None,
        }
        if fam.intervals.is_empty() && fam.infeasible.is_none() {
            self.families.remove(&victim.family);
        }
        self.evictions += 1;
    }

    /// Whether `slot` is still stored.
    fn holds(&self, slot: &Slot) -> bool {
        self.families
            .get(&slot.family)
            .is_some_and(|fam| match slot.lo {
                Some(lo) => fam.position(lo).is_ok(),
                None => fam.infeasible.is_some(),
            })
    }

    /// Every stored design as a snapshot entry, least recently used first.
    fn entries_json(&self) -> Vec<Value> {
        self.recency
            .index
            .values()
            .map(|slot| {
                let fam = &self.families[&slot.family];
                let payload = match slot.lo {
                    Some(lo) => {
                        let interval = &fam.intervals[fam.position(lo).expect("stored design")];
                        ObjectBuilder::new()
                            .field("answeredUpToBits", bits(interval.answered_up_to))
                            .field("design", factory_to_json(&interval.design))
                    }
                    None => {
                        let bound = fam.infeasible.as_ref().expect("stored bound");
                        ObjectBuilder::new().field(
                            "noTFactory",
                            ObjectBuilder::new()
                                .field("requiredBits", bits(bound.up_to))
                                .build(),
                        )
                    }
                };
                entry_to_json(&slot.family, payload)
            })
            .collect()
    }
}

/// Thread-safe, bounded, persistable memo table for T-factory pipeline
/// searches.
///
/// The design *store* sits behind its own [`Arc`], separate from the
/// hit/miss counters, so [`FactoryCache::scoped`] can hand out sibling
/// cache views that share every memoized design while counting their own
/// lookups — the shape a long-running job server needs: one process-wide
/// store, exact per-job statistics even while jobs run concurrently.
///
/// Designs are stored per family, each answering an interval of required
/// errors (see the module docs). The store can be **bounded**
/// ([`FactoryCache::with_capacity`]): inserts beyond the capacity evict the
/// least-recently-used design (every hit refreshes recency), with evictions
/// counted exactly in [`CacheStats::evictions`]. It can also be
/// **persisted** ([`FactoryCache::save`] / [`FactoryCache::load`]): a
/// versioned JSON snapshot (`"format": "qre-factory-cache"`, `"version"` =
/// [`SNAPSHOT_VERSION`]) in which every `f64` is stored as its IEEE-754
/// bit pattern, so a save→load round trip reproduces designs bit-exactly;
/// corrupt or version-mismatched snapshots are rejected with a descriptive
/// error and leave the store untouched.
#[derive(Debug, Default)]
pub struct FactoryCache {
    store: Arc<Mutex<Store>>,
    hits: AtomicU64,
    misses: AtomicU64,
    search: SearchCountersAtomic,
}

/// Aggregated pipeline-search counters of one cache view (the
/// `--search-stats` record): how many searches ran, how many were
/// warm-started from a stored design of the family, and the summed
/// [`SearchStats`] of all of them. Like hits/misses, these are
/// **per-view** — a [`FactoryCache::scoped`] sibling counts its own
/// searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Pipeline searches this view actually ran: one per lookup that fell
    /// in a gap (a racer that lost to a concurrent search still ran its
    /// own), plus the unseeded re-run of a failed seeded search.
    pub searches: u64,
    /// Searches whose incumbent was seeded from the volume of a stored
    /// design of the same family.
    pub seeded_searches: u64,
    /// Summed per-search counters (nodes expanded/pruned, memo hits,
    /// factories realised).
    pub totals: SearchStats,
}

/// Lock-free accumulator behind [`SearchCounters`].
#[derive(Debug, Default)]
struct SearchCountersAtomic {
    searches: AtomicU64,
    seeded_searches: AtomicU64,
    nodes_expanded: AtomicU64,
    nodes_pruned_bound: AtomicU64,
    nodes_pruned_dominated: AtomicU64,
    memo_hits: AtomicU64,
    factories_realised: AtomicU64,
}

impl SearchCountersAtomic {
    fn record(&self, seeded: bool, stats: &SearchStats) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        if seeded {
            self.seeded_searches.fetch_add(1, Ordering::Relaxed);
        }
        self.nodes_expanded
            .fetch_add(stats.nodes_expanded, Ordering::Relaxed);
        self.nodes_pruned_bound
            .fetch_add(stats.nodes_pruned_bound, Ordering::Relaxed);
        self.nodes_pruned_dominated
            .fetch_add(stats.nodes_pruned_dominated, Ordering::Relaxed);
        self.memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.factories_realised
            .fetch_add(stats.factories_realised, Ordering::Relaxed);
    }

    fn load(&self) -> SearchCounters {
        SearchCounters {
            searches: self.searches.load(Ordering::Relaxed),
            seeded_searches: self.seeded_searches.load(Ordering::Relaxed),
            totals: SearchStats {
                nodes_expanded: self.nodes_expanded.load(Ordering::Relaxed),
                nodes_pruned_bound: self.nodes_pruned_bound.load(Ordering::Relaxed),
                nodes_pruned_dominated: self.nodes_pruned_dominated.load(Ordering::Relaxed),
                memo_hits: self.memo_hits.load(Ordering::Relaxed),
                factories_realised: self.factories_realised.load(Ordering::Relaxed),
            },
        }
    }

    fn reset(&self) {
        self.searches.store(0, Ordering::Relaxed);
        self.seeded_searches.store(0, Ordering::Relaxed);
        self.nodes_expanded.store(0, Ordering::Relaxed);
        self.nodes_pruned_bound.store(0, Ordering::Relaxed);
        self.nodes_pruned_dominated.store(0, Ordering::Relaxed);
        self.memo_hits.store(0, Ordering::Relaxed);
        self.factories_realised.store(0, Ordering::Relaxed);
    }
}

/// Monotonic discriminator for temporary snapshot files, so concurrent
/// saves (e.g. a periodic save racing the shutdown save) never interleave
/// writes into one temporary file. The rename itself is atomic either way.
static SAVE_DISCRIMINATOR: AtomicU64 = AtomicU64::new(0);

impl FactoryCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that stores at most `capacity` designs (an infeasible
    /// bound counts as one), evicting the least recently used when an
    /// insert would exceed the bound.
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = FactoryCache::new();
        cache.lock().capacity = Some(capacity);
        cache
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().expect("factory cache lock")
    }

    /// The store's capacity bound (`None` = unbounded). Shared with every
    /// [`FactoryCache::scoped`] sibling.
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// A sibling view of this cache: it shares the stored designs (a hit in
    /// either is visible to both, as are capacity and evictions) but starts
    /// from zeroed hit/miss counters, so a caller can attribute lookups to
    /// one scope (e.g. one server job) exactly, even while other scopes use
    /// the same store concurrently.
    pub fn scoped(&self) -> FactoryCache {
        FactoryCache {
            store: Arc::clone(&self.store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            search: SearchCountersAtomic::default(),
        }
    }

    /// Memoized [`TFactoryBuilder::find_factory`]: returns the stored design
    /// (or stored deterministic failure) whose interval holds `required`,
    /// running a seeded search when `required` falls in a gap.
    pub fn find_factory(
        &self,
        builder: &TFactoryBuilder,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
    ) -> Result<TFactory> {
        let family = family_key(builder, qubit, scheme);
        let seed = {
            let mut store = self.lock();
            if let Some(answer) = store.lookup(&family, required) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return answer;
            }
            store.seed_volume(&family, required)
        };
        // Search outside the lock: concurrent misses in one gap may
        // duplicate work once, but never block each other on the (long)
        // pipeline search. Recording is first-write-wins — a racer whose
        // requirement a concurrent search has answered meanwhile counts as
        // a hit and returns the stored design, so `misses` counts exactly
        // the searches that populated the store and every caller sees one
        // canonical result.
        let (mut designed, stats) = builder.find_factory_with_stats(qubit, scheme, required, seed);
        self.search.record(seed.is_some(), &stats);
        if designed.is_err() && seed.is_some() {
            // A stored design's volume is always achievable, so a seeded
            // search can only fail where the unseeded one would. Still,
            // never let the optimisation turn into a wrong answer: re-run
            // without the seed before trusting a failure.
            let (cold, cold_stats) = builder.find_factory_with_stats(qubit, scheme, required, None);
            self.search.record(false, &cold_stats);
            designed = cold;
        }
        let mut store = self.lock();
        if let Some(answer) = store.lookup(&family, required) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return answer;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        store.record(&family, required, &designed);
        designed
    }

    /// This view's aggregated pipeline-search counters (see
    /// [`SearchCounters`]). Per-view, like hits/misses.
    pub fn search_counters(&self) -> SearchCounters {
        self.search.load()
    }

    /// Current counters. `hits`/`misses` are this view's; `entries`,
    /// `evictions`, and `capacity` are the shared store's.
    pub fn stats(&self) -> CacheStats {
        let store = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: store.recency.index.len(),
            evictions: store.evictions,
            capacity: store.capacity,
        }
    }

    /// Drop every stored design, reset the eviction count, and reset this
    /// view's counters. The store is shared with every
    /// [`FactoryCache::scoped`] sibling, so their entries disappear too;
    /// their hit/miss counters are their own and keep counting. The
    /// capacity bound is kept.
    pub fn clear(&self) {
        let mut store = self.lock();
        store.families.clear();
        store.recency.index.clear();
        store.evictions = 0;
        drop(store);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.search.reset();
    }

    /// Serialize the store as a versioned snapshot document (see the module
    /// docs for the format). Entries are ordered least-recently-used first,
    /// so loading into a smaller-capacity cache keeps the freshest designs.
    pub fn snapshot(&self) -> Value {
        let entries = self.lock().entries_json();
        ObjectBuilder::new()
            .field("format", SNAPSHOT_FORMAT)
            .field("version", SNAPSHOT_VERSION)
            .field("entries", Value::Array(entries))
            .build()
    }

    /// Merge a snapshot document into this cache, returning how many of the
    /// snapshot's designs the store **retained** as new entries. An entry
    /// whose design is already stored only widens that design's interval
    /// (the search is pure, so the stored design is identical), and an
    /// infeasible bound only raises the family's bound; the capacity bound
    /// applies as usual, evicting if the merge overflows it — designs the
    /// bound discarded on the spot are not counted, so the return value is
    /// the warm state the caller actually gained, not the insert attempts.
    /// Fails with [`Error::InvalidInput`] — without touching the store —
    /// when the document is not a snapshot, names another format, or
    /// carries a different [`SNAPSHOT_VERSION`].
    pub fn load_snapshot(&self, doc: &Value) -> Result<usize> {
        let invalid = |msg: String| Error::InvalidInput(format!("factory-cache snapshot: {msg}"));
        if doc.as_object().is_none() {
            return Err(invalid("not a JSON object".into()));
        }
        match doc.get("format").and_then(Value::as_str) {
            Some(SNAPSHOT_FORMAT) => {}
            Some(other) => return Err(invalid(format!("unknown format `{other}`"))),
            None => return Err(invalid("missing `format` field".into())),
        }
        match doc.get("version").and_then(Value::as_u64) {
            Some(SNAPSHOT_VERSION) => {}
            Some(other) => {
                return Err(invalid(format!(
                    "version {other} is not the supported version {SNAPSHOT_VERSION}"
                )))
            }
            None => return Err(invalid("missing integer `version` field".into())),
        }
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("missing `entries` array".into()))?;
        // Decode every entry before touching the store: a corrupt entry
        // rejects the whole snapshot instead of half-loading it.
        let mut decoded = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            decoded
                .push(entry_from_json(entry).map_err(|e| invalid(format!("entries[{i}]: {e}")))?);
        }
        let mut store = self.lock();
        let added: Vec<Slot> = decoded
            .iter()
            .filter_map(|(key, required, answer)| store.record(key, *required, answer))
            .collect();
        // Count what survived, not what was attempted: a capacity-bounded
        // store may have evicted part of the snapshot immediately, and
        // callers report this number as the session's warm state.
        Ok(added.iter().filter(|slot| store.holds(slot)).count())
    }

    /// Write the snapshot to `path` atomically (unique temporary file in
    /// the same directory, then rename), returning how many designs were
    /// persisted. A crash mid-save leaves any previous snapshot intact.
    pub fn save(&self, path: &Path) -> std::result::Result<usize, String> {
        let snapshot = self.snapshot();
        let persisted = snapshot
            .get("entries")
            .and_then(Value::as_array)
            .map_or(0, <[Value]>::len);
        let discriminator = SAVE_DISCRIMINATOR.fetch_add(1, Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}.{discriminator}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let write = std::fs::write(&tmp, snapshot.to_string_compact())
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "failed to save cache snapshot to {}: {e}",
                path.display()
            ));
        }
        Ok(persisted)
    }

    /// Read a snapshot file and merge it into this cache (see
    /// [`FactoryCache::load_snapshot`]), returning how many designs the
    /// store retained. Unreadable files, non-JSON content, and format/version
    /// mismatches all return a descriptive error and leave the store
    /// untouched — callers are expected to warn and continue cold.
    pub fn load(&self, path: &Path) -> std::result::Result<usize, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read cache snapshot {}: {e}", path.display()))?;
        let doc = qre_json::parse(&text)
            .map_err(|e| format!("cache snapshot {} is not JSON: {e}", path.display()))?;
        self.load_snapshot(&doc)
            .map_err(|e| format!("cache snapshot {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// Snapshot encoding. Every f64 is stored as its IEEE-754 bit pattern (u64),
// so the round trip is bit-exact; qre-json preserves u64 exactly.
// ---------------------------------------------------------------------------

fn bits(v: f64) -> Value {
    Value::from(v.to_bits())
}

fn f64_field(v: &Value, key: &str) -> std::result::Result<f64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(f64::from_bits)
        .ok_or_else(|| format!("missing bit-pattern field `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> std::result::Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> std::result::Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// One snapshot entry: the family key followed by the entry's `payload`
/// fields.
fn entry_to_json(key: &FactoryKey, payload: ObjectBuilder) -> Value {
    let key_json = ObjectBuilder::new()
        .field(
            "words",
            Value::Array(key.words.iter().map(|w| Value::from(*w)).collect()),
        )
        .field("text", key.text.as_str())
        .build();
    let mut entry = ObjectBuilder::new().field("key", key_json).build();
    if let (Value::Object(pairs), Value::Object(tail)) = (&mut entry, payload.build()) {
        pairs.extend(tail);
    }
    entry
}

/// Decode one snapshot entry as the `(family, required, answer)` triple
/// [`Store::record`] takes: a design with the loosest required error it
/// answered, or an infeasible bound as a failure at the bound.
fn entry_from_json(
    entry: &Value,
) -> std::result::Result<(FactoryKey, f64, Result<TFactory>), String> {
    let key = entry.get("key").ok_or("missing `key` object")?;
    let words = key
        .get("words")
        .and_then(Value::as_array)
        .ok_or("missing `key.words` array")?
        .iter()
        .map(|w| w.as_u64().ok_or_else(|| "non-integer key word".to_string()))
        .collect::<std::result::Result<Vec<u64>, String>>()?;
    let text = str_field(key, "text")?.to_owned();
    let key = FactoryKey { words, text };
    if let Some(design) = entry.get("design") {
        let design = factory_from_json(design)?;
        let answered_up_to = f64_field(entry, "answeredUpToBits")?;
        // An interval with a NaN edge answers nothing either.
        let lo = design.output_error_rate;
        if lo.is_nan() || answered_up_to.is_nan() || answered_up_to < lo {
            return Err("`answeredUpToBits` is below the design's `outputErrorRateBits`".into());
        }
        return Ok((key, answered_up_to, Ok(design)));
    }
    if let Some(failure) = entry.get("noTFactory") {
        let required = f64_field(failure, "requiredBits")?;
        if required.is_nan() {
            return Err("`noTFactory.requiredBits` is NaN".into());
        }
        return Ok((key, required, Err(Error::NoTFactory { required })));
    }
    Err("entry carries neither `design` nor `noTFactory`".into())
}

fn factory_to_json(f: &TFactory) -> Value {
    let rounds: Vec<Value> = f
        .rounds
        .iter()
        .map(|r| {
            ObjectBuilder::new()
                .field("unit", r.unit_name.as_str())
                .field(
                    "codeDistance",
                    match r.level {
                        RoundLevel::Physical => 0u64,
                        RoundLevel::Logical { code_distance } => u64::from(code_distance),
                    },
                )
                .field("copies", r.copies)
                .field("inputErrorRateBits", bits(r.input_error_rate))
                .field("outputErrorRateBits", bits(r.output_error_rate))
                .field("failureProbabilityBits", bits(r.failure_probability))
                .field("physicalQubitsPerUnit", r.physical_qubits_per_unit)
                .field("durationNsBits", bits(r.duration_ns))
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field("physicalQubits", f.physical_qubits)
        .field("durationNsBits", bits(f.duration_ns))
        .field("outputErrorRateBits", bits(f.output_error_rate))
        .field("outputTStates", f.output_t_states)
        .field("inputErrorRateBits", bits(f.input_error_rate))
        .field("rounds", Value::Array(rounds))
        .build()
}

fn factory_from_json(v: &Value) -> std::result::Result<TFactory, String> {
    let rounds = v
        .get("rounds")
        .and_then(Value::as_array)
        .ok_or("missing `rounds` array")?
        .iter()
        .map(|r| {
            let code_distance = u64_field(r, "codeDistance")?;
            let level = if code_distance == 0 {
                RoundLevel::Physical
            } else {
                RoundLevel::Logical {
                    code_distance: u32::try_from(code_distance)
                        .map_err(|_| "codeDistance out of range".to_string())?,
                }
            };
            Ok(FactoryRound {
                unit_name: str_field(r, "unit")?.to_owned(),
                level,
                copies: u64_field(r, "copies")?,
                input_error_rate: f64_field(r, "inputErrorRateBits")?,
                output_error_rate: f64_field(r, "outputErrorRateBits")?,
                failure_probability: f64_field(r, "failureProbabilityBits")?,
                physical_qubits_per_unit: u64_field(r, "physicalQubitsPerUnit")?,
                duration_ns: f64_field(r, "durationNsBits")?,
            })
        })
        .collect::<std::result::Result<Vec<FactoryRound>, String>>()?;
    Ok(TFactory {
        rounds,
        physical_qubits: u64_field(v, "physicalQubits")?,
        duration_ns: f64_field(v, "durationNsBits")?,
        output_error_rate: f64_field(v, "outputErrorRateBits")?,
        output_t_states: u64_field(v, "outputTStates")?,
        input_error_rate: f64_field(v, "inputErrorRateBits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn problem() -> (TFactoryBuilder, PhysicalQubit, QecScheme) {
        (
            TFactoryBuilder::default(),
            PhysicalQubit::qubit_maj_ns_e4(),
            QecScheme::floquet_code(),
        )
    }

    /// Required errors whose designs are pairwise distinct in the test
    /// family, loosest first. A design answers only its own interval, so
    /// each of these is a store entry of its own, and none is answered by
    /// another's design. Found once by halving from 1e-4 with cold searches.
    fn requirement(i: usize) -> f64 {
        static DISTINCT: OnceLock<Vec<f64>> = OnceLock::new();
        DISTINCT.get_or_init(|| {
            let (b, q, s) = problem();
            let mut found: Vec<(f64, TFactory)> = Vec::new();
            let mut required = 1e-4;
            while found.len() < 8 {
                let design = b
                    .find_factory(&q, &s, required)
                    .expect("eight distinct designs before the family turns infeasible");
                if found.iter().all(|(_, known)| *known != design) {
                    found.push((required, design));
                }
                required *= 0.5;
            }
            found.into_iter().map(|(required, _)| required).collect()
        })[i]
    }

    #[test]
    fn second_lookup_hits_and_matches_cold() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let first = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let second = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let cold = b.find_factory(&q, &s, 1e-10).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, cold);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, None);
    }

    #[test]
    fn distinct_requirements_are_distinct_entries() {
        // Requirements answered by different designs are different entries…
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().hits, 0);
        // …but requirements answered by one design share its entry.
        let design = b.find_factory(&q, &s, requirement(1)).unwrap();
        cache
            .find_factory(&b, &q, &s, design.output_error_rate)
            .unwrap();
        assert_eq!(
            cache.stats().hits,
            1,
            "the design's own error is in its interval"
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn one_design_answers_its_whole_interval() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let required = requirement(2);
        let design = cache.find_factory(&b, &q, &s, required).unwrap();
        let lo = design.output_error_rate;
        // Every required error in [lo, required] is a hit on the same design:
        // both edges and the geometric midpoint.
        for probe in [lo, (lo * required).sqrt(), required] {
            assert_eq!(cache.find_factory(&b, &q, &s, probe).unwrap(), design);
            assert_eq!(b.find_factory(&q, &s, probe).unwrap(), design);
        }
        assert_eq!((cache.stats().hits, cache.stats().misses), (3, 1));
        // Just outside either edge is a gap: it searches, and the answer is
        // the cold search's whether it widens this interval or adds one.
        let below = f64::from_bits(lo.to_bits() - 1);
        let above = f64::from_bits(required.to_bits() + 1);
        for probe in [below, above] {
            assert_eq!(
                cache.find_factory(&b, &q, &s, probe).unwrap(),
                b.find_factory(&q, &s, probe).unwrap()
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 3));
        // The looser probe re-found the design and widened its interval
        // without adding an entry; the tighter one needed a new design.
        assert_eq!(stats.entries, 2);
        assert_eq!(cache.find_factory(&b, &q, &s, above).unwrap(), design);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn qubit_parameters_invalidate_the_key() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let mut q2 = q.clone();
        q2.t_gate_error = 0.04;
        cache.find_factory(&b, &q2, &s, 1e-10).unwrap();
        assert_eq!(cache.stats().misses, 2);
        // A rename alone, though, still hits.
        let mut q3 = q.clone();
        q3.name = "renamed".into();
        cache.find_factory(&b, &q3, &s, 1e-10).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn failures_are_cached_too() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        for _ in 0..2 {
            match cache.find_factory(&b, &q, &s, 1e-60) {
                Err(Error::NoTFactory { .. }) => {}
                other => panic!("expected NoTFactory, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn infeasible_bound_answers_tighter_requirements_with_the_callers_error() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        assert!(cache.find_factory(&b, &q, &s, 1e-60).is_err());
        let warm = cache.find_factory(&b, &q, &s, 1e-70).unwrap_err();
        assert_eq!(
            (cache.stats().hits, cache.stats().misses),
            (1, 1),
            "the 1e-60 bound answers 1e-70 without a search"
        );
        match warm {
            Error::NoTFactory { required } => assert_eq!(required.to_bits(), 1e-70f64.to_bits()),
            ref other => panic!("expected NoTFactory, got {other:?}"),
        }
        let cold = b.find_factory(&q, &s, 1e-70).unwrap_err();
        assert_eq!(warm.to_string(), cold.to_string(), "error bytes differ");
    }

    #[test]
    fn concurrent_misses_on_one_key_count_once() {
        // Many threads racing the same cold gap: each runs the search
        // outside the lock, but only the first writer may count a miss or
        // store its design — the rest adopt the stored result as hits.
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let threads = 8;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| cache.find_factory(&b, &q, &s, 1e-10).unwrap()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one populating search per gap");
        assert_eq!(stats.hits, threads - 1);
        assert_eq!(stats.entries, 1);
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all racers see the first-written design");
        }
    }

    #[test]
    fn scoped_views_share_designs_but_not_counters() {
        let (b, q, s) = problem();
        let base = FactoryCache::new();
        base.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(base.stats().misses, 1);

        // A scope opened afterwards sees the stored design as a hit…
        let job = base.scoped();
        assert_eq!((job.stats().hits, job.stats().misses), (0, 0));
        job.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!((job.stats().hits, job.stats().misses), (1, 0));
        // …without touching the base view's counters.
        assert_eq!((base.stats().hits, base.stats().misses), (0, 1));

        // A miss inside a scope populates the shared store for everyone.
        job.find_factory(&b, &q, &s, requirement(1)).unwrap();
        assert_eq!(job.stats().misses, 1);
        assert_eq!(base.stats().entries, 2);
        base.find_factory(&b, &q, &s, requirement(1)).unwrap();
        assert_eq!(base.stats().hits, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_is_respected_and_evictions_are_counted() {
        let (b, q, s) = problem();
        let cache = FactoryCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        for i in 0..5 {
            cache.find_factory(&b, &q, &s, requirement(i)).unwrap();
            assert!(cache.stats().entries <= 2, "capacity bound violated");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3, "exactly overflow count evictions");
        assert_eq!(stats.capacity, Some(2));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let (b, q, s) = problem();
        let cache = FactoryCache::with_capacity(2);
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        // Refresh entry 0, then overflow: entry 1 is now the LRU victim.
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(2)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // Entry 0 survived (hit); entry 1 was evicted (miss again).
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(cache.stats().misses, 3);
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        assert_eq!(cache.stats().misses, 4, "evicted design re-searched");
    }

    #[test]
    fn evicted_designs_recompute_identically() {
        let (b, q, s) = problem();
        let bounded = FactoryCache::with_capacity(1);
        let first = bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        bounded.find_factory(&b, &q, &s, requirement(1)).unwrap(); // evicts 0
        let again = bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(first, again, "re-searched design is identical");
        assert!(bounded.stats().evictions >= 2);
    }

    /// A synthetic design whose only meaningful field is its output error.
    fn synthetic(output_error_rate: f64) -> TFactory {
        TFactory {
            rounds: Vec::new(),
            physical_qubits: 1,
            duration_ns: 1.0,
            output_error_rate,
            output_t_states: 1,
            input_error_rate: 1e-3,
        }
    }

    fn family(id: u64) -> FactoryKey {
        FactoryKey {
            words: vec![id],
            text: String::new(),
        }
    }

    /// The store's entries, least recently used first, as (family id,
    /// design output error or `None` for the infeasible bound).
    fn recency_order(store: &Store) -> Vec<(u64, Option<f64>)> {
        store
            .recency
            .index
            .values()
            .map(|slot| (slot.family.words[0], slot.lo))
            .collect()
    }

    #[test]
    fn store_evicts_least_recently_used_across_families_and_bounds() {
        let mut store = Store {
            capacity: Some(3),
            ..Store::default()
        };
        let (a, b) = (family(1), family(2));
        let none = |required| Err(Error::NoTFactory { required });
        store.record(&a, 1e-6, &Ok(synthetic(1e-7)));
        store.record(&b, 1e-40, &none(1e-40));
        store.record(&a, 1e-9, &Ok(synthetic(1e-10)));
        assert_eq!(
            recency_order(&store),
            [(1, Some(1e-7)), (2, None), (1, Some(1e-10))]
        );
        // A hit refreshes A's loose design, so B's bound becomes the victim
        // of the next insert.
        assert!(store.lookup(&a, 5e-7).unwrap().is_ok());
        store.record(&b, 1e-3, &Ok(synthetic(1e-4)));
        assert_eq!(store.evictions, 1);
        assert_eq!(
            recency_order(&store),
            [(1, Some(1e-10)), (1, Some(1e-7)), (2, Some(1e-4))]
        );
        assert!(store.lookup(&b, 1e-50).is_none(), "B's bound was evicted");
        // Widening an interval refreshes it without adding an entry.
        store.record(&a, 1e-8, &Ok(synthetic(1e-10)));
        assert_eq!(store.evictions, 1);
        assert_eq!(
            recency_order(&store),
            [(1, Some(1e-7)), (2, Some(1e-4)), (1, Some(1e-10))]
        );
        // A new bound evicts A's loose design; the widened one still
        // answers its whole interval.
        store.record(&b, 1e-60, &none(1e-60));
        assert_eq!(
            recency_order(&store),
            [(2, Some(1e-4)), (1, Some(1e-10)), (2, None)]
        );
        assert!(store.lookup(&a, 5e-7).is_none());
        assert!(store.lookup(&a, 5e-9).unwrap().is_ok());
        // Raising a bound is a touch too, and a family left empty is
        // dropped.
        store.record(&b, 1e-50, &none(1e-50));
        assert_eq!(
            recency_order(&store),
            [(2, Some(1e-4)), (1, Some(1e-10)), (2, None)]
        );
        store.record(&b, 1e-2, &Ok(synthetic(2e-3)));
        store.record(&b, 1e-5, &Ok(synthetic(1e-5)));
        assert_eq!(store.evictions, 4);
        assert!(!store.families.contains_key(&a), "emptied family dropped");
        assert_eq!(
            recency_order(&store),
            [(2, None), (2, Some(2e-3)), (2, Some(1e-5))]
        );
        // The raised bound answers at the caller's requirement.
        match store.lookup(&b, 1e-55) {
            Some(Err(Error::NoTFactory { required })) => assert_eq!(required, 1e-55),
            other => panic!("expected the infeasible bound, got {other:?}"),
        }
    }

    #[test]
    fn seeds_come_from_designs_that_meet_the_requirement() {
        let mut store = Store::default();
        let a = family(1);
        let big = TFactory {
            physical_qubits: 200,
            ..synthetic(1e-12)
        };
        let small = TFactory {
            physical_qubits: 50,
            ..synthetic(1e-9)
        };
        store.record(&a, 1e-11, &Ok(big));
        store.record(&a, 1e-8, &Ok(small));
        assert_eq!(store.seed_volume(&a, 1e-7), Some(50.0));
        assert_eq!(store.seed_volume(&a, 1e-9), Some(50.0), "lo edge seeds");
        assert_eq!(store.seed_volume(&a, 5e-10), Some(200.0));
        assert_eq!(store.seed_volume(&a, 1e-13), None, "no achievable seed");
        assert_eq!(
            store.seed_volume(&family(2), 1e-7),
            None,
            "families isolated"
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let design = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert!(cache.find_factory(&b, &q, &s, 1e-60).is_err()); // cached failure
        let doc = cache.snapshot();
        assert_eq!(doc.get("format").unwrap().as_str(), Some(SNAPSHOT_FORMAT));
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(SNAPSHOT_VERSION));

        // Round trip through the *printed* form, as the file flow does.
        let reparsed = qre_json::parse(&doc.to_string_compact()).unwrap();
        let fresh = FactoryCache::new();
        assert_eq!(fresh.load_snapshot(&reparsed).unwrap(), 2);
        let warm = fresh.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(warm, design, "loaded design is bit-identical");
        match fresh.find_factory(&b, &q, &s, 1e-60) {
            Err(Error::NoTFactory { required }) => assert_eq!(required, 1e-60),
            other => panic!("expected cached NoTFactory, got {other:?}"),
        }
        let stats = fresh.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "all lookups warm");
    }

    #[test]
    fn load_snapshot_skips_known_keys() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let doc = cache.snapshot();
        assert_eq!(cache.load_snapshot(&doc).unwrap(), 0, "nothing new to add");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_are_rejected() {
        let cache = FactoryCache::new();
        let reject = |doc: &str, needle: &str| {
            let err = cache
                .load_snapshot(&qre_json::parse(doc).unwrap())
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "`{needle}` not in `{err}`");
        };
        reject("{}", "format");
        reject(
            r#"{"format": "something-else", "version": 2}"#,
            "something-else",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 999, "entries": []}"#,
            "version 999",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 1, "entries": []}"#,
            "version 1 is not the supported version 2",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 2}"#,
            "entries",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 2, "entries": [ {"key": 5} ]}"#,
            "entries[0]",
        );
        // An interval whose upper edge lies below its design's own error.
        let (b, q, s) = problem();
        let source = FactoryCache::new();
        let design = source.find_factory(&b, &q, &s, 1e-10).unwrap();
        let mut doc = source.snapshot().to_string_compact();
        let hi = format!("\"answeredUpToBits\":{}", 1e-10f64.to_bits());
        let below = format!(
            "\"answeredUpToBits\":{}",
            (design.output_error_rate / 2.0).to_bits()
        );
        assert!(doc.contains(&hi));
        doc = doc.replace(&hi, &below);
        reject(&doc, "below the design's");
        reject("[1, 2]", "object");
        assert_eq!(cache.stats().entries, 0, "rejected loads leave no residue");
    }

    #[test]
    fn save_and_load_files() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        let path = std::env::temp_dir().join(format!(
            "qre-cache-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        assert_eq!(cache.save(&path).unwrap(), 2);

        let fresh = FactoryCache::new();
        assert_eq!(fresh.load(&path).unwrap(), 2);
        fresh.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(fresh.stats().hits, 1);

        // Corrupt file: descriptive error, store untouched.
        std::fs::write(&path, "definitely { not json").unwrap();
        let untouched = FactoryCache::new();
        let err = untouched.load(&path).unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
        assert_eq!(untouched.stats().entries, 0);

        // Missing file: descriptive error too.
        std::fs::remove_file(&path).unwrap();
        assert!(untouched
            .load(&path)
            .unwrap_err()
            .contains("failed to read"));
    }

    #[test]
    fn snapshot_orders_entries_for_capacity_truncation() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        for i in 0..4 {
            cache.find_factory(&b, &q, &s, requirement(i)).unwrap();
        }
        // Refresh entry 0 so it is the most recently used.
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();

        let bounded = FactoryCache::with_capacity(2);
        let retained = bounded.load_snapshot(&cache.snapshot()).unwrap();
        assert_eq!(retained, 2, "only surviving designs are reported");
        let stats = bounded.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        // The refreshed entry survived the truncating load.
        bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(bounded.stats().hits, 1, "most recent design kept");
    }

    #[test]
    fn family_neighbours_seed_the_incumbent_without_changing_results() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        // Tight requirement first: its achieved error also meets the looser
        // requirement, so the second search starts with a warm incumbent.
        let tight = cache.find_factory(&b, &q, &s, 1e-11).unwrap();
        assert!(tight.output_error_rate <= 1e-11);
        assert_eq!(cache.search_counters().seeded_searches, 0);
        let loose = cache.find_factory(&b, &q, &s, 1e-9).unwrap();
        let counters = cache.search_counters();
        assert_eq!(counters.searches, 2);
        assert_eq!(counters.seeded_searches, 1, "neighbour bound must seed");
        assert_eq!(
            loose,
            b.find_factory(&q, &s, 1e-9).unwrap(),
            "a seeded search returns exactly the cold search's design"
        );
    }

    #[test]
    fn search_counters_are_per_view_and_cleared_with_the_cache() {
        let (b, q, s) = problem();
        let base = FactoryCache::new();
        base.find_factory(&b, &q, &s, 1e-10).unwrap();
        let c = base.search_counters();
        assert_eq!(c.searches, 1);
        assert!(c.totals.nodes_expanded > 0);
        assert!(c.totals.memo_hits > 0);
        assert!(c.totals.factories_realised > 0);

        // A sibling view counts its own searches; a cache hit runs none.
        let job = base.scoped();
        assert_eq!(job.search_counters(), SearchCounters::default());
        job.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(job.search_counters().searches, 0, "hit runs no search");
        assert_eq!(base.search_counters().searches, 1);

        base.clear();
        assert_eq!(base.search_counters(), SearchCounters::default());
    }

    #[test]
    fn concurrent_scoped_views_at_cap_account_exactly() {
        // The serve shape under deliberate cache pressure: several scoped
        // views (one per "job") hammer a store whose capacity is smaller
        // than the shared working set, so every round churns evictions.
        // The accounting must stay exact anyway: the capacity bound holds
        // at every observation, per-view hits+misses tally every lookup,
        // and every surviving or evicted entry was added by a counted miss.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(4);
        let keys = 8usize;
        let rounds = 3usize;
        let threads = 4usize;
        let view_stats: Vec<CacheStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let view = base.scoped();
                    let b = &b;
                    let q = &q;
                    let s = &s;
                    scope.spawn(move || {
                        for r in 0..rounds {
                            for k in 0..keys {
                                // Offset the walk per thread so views
                                // genuinely interleave different keys.
                                let key = (k + t * 3 + r) % keys;
                                let _ = view.find_factory(b, q, s, requirement(key));
                                assert!(
                                    view.stats().entries <= 4,
                                    "capacity bound violated mid-churn"
                                );
                            }
                        }
                        view.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let lookups: u64 = (threads * rounds * keys) as u64;
        let view_hits: u64 = view_stats.iter().map(|v| v.hits).sum();
        let view_misses: u64 = view_stats.iter().map(|v| v.misses).sum();
        assert_eq!(
            view_hits + view_misses,
            lookups,
            "every lookup is exactly one hit or one miss in its view"
        );
        let store = base.stats();
        assert_eq!((store.hits, store.misses), (0, 0), "base view ran nothing");
        assert_eq!(store.capacity, Some(4));
        assert!(store.entries <= 4);
        assert!(
            store.evictions > 0,
            "working set of 8 over cap 4 must churn"
        );
        // Every entry was added by one counted miss and every eviction
        // removed one; a miss that only widened an interval added none.
        assert!(
            store.entries as u64 + store.evictions <= view_misses,
            "entries + evictions exceed populating searches"
        );
    }

    #[test]
    fn eviction_churn_recomputes_designs_identically_across_views() {
        // Interleaved scoped views over a cap-2 store with 5 live keys:
        // designs are constantly evicted and re-searched, but every view
        // must see the same design for the same key every time.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(2);
        let cold: Vec<TFactory> = (0..5)
            .map(|k| b.find_factory(&q, &s, requirement(k)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let view = base.scoped();
                let b = &b;
                let q = &q;
                let s = &s;
                let cold = &cold;
                scope.spawn(move || {
                    for r in 0..3 {
                        for k in 0..5 {
                            let key = (k + t + r) % 5;
                            let design = view.find_factory(b, q, s, requirement(key)).unwrap();
                            assert_eq!(
                                design, cold[key],
                                "churned design for key {key} diverged from cold search"
                            );
                        }
                    }
                });
            }
        });
        assert!(base.stats().evictions >= 5, "cap 2 under 5 keys must churn");
    }

    #[test]
    fn snapshot_save_races_eviction_churn() {
        // A periodic saver (the serve --save-every flow) racing insert +
        // eviction churn: every snapshot it writes must be internally
        // consistent — atomic on disk, loadable into a fresh cache, and
        // never larger than the capacity bound, because snapshot() sees
        // the store only between (locked) insert-evict steps.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(3);
        // Pre-populate one entry so even a saver that only gets scheduled
        // after the churner finished observes a non-empty store.
        base.scoped()
            .find_factory(&b, &q, &s, requirement(0))
            .unwrap();
        let path = std::env::temp_dir().join(format!(
            "qre-cache-race-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::thread::scope(|scope| {
            let churner = {
                let view = base.scoped();
                let b = &b;
                let q = &q;
                let s = &s;
                scope.spawn(move || {
                    for r in 0..4 {
                        for k in 0..6 {
                            let _ = view.find_factory(b, q, s, requirement((k + r) % 6));
                        }
                    }
                })
            };
            let saver = {
                let view = base.scoped();
                let path = path.clone();
                scope.spawn(move || {
                    let mut max_saved = 0usize;
                    let mut last_pass = false;
                    // Always run at least one pass, and one final pass after
                    // the churner has finished, so a late-scheduled saver
                    // still exercises save + reload at least twice.
                    while !last_pass {
                        last_pass = churner.is_finished();
                        let saved = view.save(&path).expect("save during churn");
                        assert!(saved <= 3, "snapshot larger than the capacity bound");
                        max_saved = max_saved.max(saved);
                        let fresh = FactoryCache::new();
                        let retained = fresh.load(&path).expect("saved snapshot must load");
                        assert_eq!(retained, saved, "snapshot lost entries on disk");
                        assert_eq!(fresh.stats().entries, retained);
                    }
                    max_saved
                })
            };
            let max_saved = saver.join().unwrap();
            // The churner kept at least filling the store, so at least one
            // mid-churn snapshot observed a non-empty state.
            assert!(max_saved > 0, "saver never observed a populated store");
        });
        // One final save after the dust settles still round-trips.
        let saved = base.save(&path).unwrap();
        let fresh = FactoryCache::new();
        assert_eq!(fresh.load(&path).unwrap(), saved);
        std::fs::remove_file(&path).unwrap();
    }
}
