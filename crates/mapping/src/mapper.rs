//! The mapper: searches a mapspace for the best mapping under a
//! caller-supplied objective.
//!
//! The objective is a [`CandidateEvaluator`] returning the metric to
//! *minimize* (EDP, latency, energy, ...) or `None` when the mapping is
//! invalid (e.g. fails the capacity check in Sparseloop's
//! micro-architectural step); any `Fn(&Mapping) -> Option<f64> + Sync`
//! closure is one. Keeping the evaluator abstract lets the mapping
//! crate stay independent of the model crate, mirroring the paper's
//! separation between mapspace construction and evaluation.
//!
//! # Search pipeline
//!
//! Candidates stream out of the mapspace iterators
//! ([`Mapspace::iter_enumerate`] / [`Mapspace::iter_sample`]) — O(1)
//! memory in the candidate count — and flow through a two-stage
//! evaluation: a cheap [`CandidateEvaluator::precheck`] rejects
//! obviously-invalid candidates (e.g. oversized tiles) before the full
//! objective runs. [`Mapper::search`] is the one entry point; its
//! [`Exec`] argument walks the stream sequentially, over worker threads
//! or as disjoint shards, and every mode reduces with a deterministic
//! `(objective, candidate position)` tie-break, so all of them return
//! bit-identical winners and counters.

use crate::loops::Mapping;
use crate::mapspace::{CandidateKey, ChangeDepth, Mapspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Mutex;

/// Statistics from one mapper run.
///
/// Invariant: `generated == pruned + evaluated + invalid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Mappings drawn from the mapspace's candidate stream.
    pub generated: usize,
    /// Mappings rejected by the cheap precheck before full evaluation.
    pub pruned: usize,
    /// Mappings the objective accepted (returned `Some`).
    pub evaluated: usize,
    /// Mappings rejected as invalid by the full evaluation (objective
    /// returned `None`).
    pub invalid: usize,
}

impl SearchStats {
    /// Accumulates another run's counters into this one (shard merges,
    /// batch totals).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.pruned += other.pruned;
        self.evaluated += other.evaluated;
        self.invalid += other.invalid;
    }
}

/// The winner of a mapper search (its counters are returned beside it,
/// see [`Mapper::search`]).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its objective value.
    pub objective: f64,
}

/// How [`Mapper::search`] walks the candidate stream. Winner, objective
/// bits and counters are identical in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Fan the stream out over this many worker threads (`None`: every
    /// available core). `Threads(Some(1))` is the sequential scan.
    Threads(Option<usize>),
    /// Split the stream into this many disjoint shards, walked
    /// concurrently on the worker pool and merged exactly like a
    /// multi-process fleet's per-shard replies (0 counts as 1).
    Shards(usize),
}

/// A two-stage candidate evaluator: a cheap validity pre-pass followed by
/// the full objective.
///
/// `precheck` should be a conservative, fast filter: returning `false`
/// asserts the full evaluation would reject the mapping (return `None`),
/// so the pipeline may skip it entirely; returning `true` just means "run
/// the full evaluation". Any `Fn(&Mapping) -> Option<f64> + Sync` closure
/// is an evaluator whose precheck accepts everything.
pub trait CandidateEvaluator: Sync {
    /// Cheap pre-pass; `false` prunes the candidate before evaluation.
    fn precheck(&self, _mapping: &Mapping) -> bool {
        true
    }

    /// Full evaluation: the metric to minimize, or `None` when invalid.
    fn evaluate(&self, mapping: &Mapping) -> Option<f64>;

    /// A per-worker stateful evaluator. The search loops create one
    /// worker per thread (or shard) and feed it the candidate stream in
    /// order together with each candidate's [`ChangeDepth`], so an
    /// implementation can keep reusable scratch buffers and
    /// prefix-incremental caches across candidates — results must be
    /// bit-identical to the stateless [`precheck`] / [`evaluate`] pair.
    ///
    /// The default worker simply delegates to the stateless methods,
    /// ignoring deltas, so plain closures and simple evaluators keep
    /// working unchanged.
    ///
    /// [`precheck`]: CandidateEvaluator::precheck
    /// [`evaluate`]: CandidateEvaluator::evaluate
    fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
        Box::new(StatelessWorker(self))
    }
}

/// A per-worker, stateful view of a [`CandidateEvaluator`] (see
/// [`CandidateEvaluator::worker`]).
///
/// # Call protocol
///
/// The caller walks one candidate stream in order. For each candidate it
/// calls [`precheck`](WorkerEvaluator::precheck) with the candidate's
/// [`ChangeDepth`] (relative to the stream's *previous* candidate — pass
/// [`ChangeDepth::Reset`] when that relation is unknown, e.g. at batch
/// seams of a work-stealing parallel search), and, if the precheck
/// passes, [`evaluate`](WorkerEvaluator::evaluate) with the *same*
/// candidate and depth. Implementations compose depths internally, so
/// skipping `evaluate` for pruned candidates is always sound.
pub trait WorkerEvaluator {
    /// Cheap pre-pass; `false` prunes the candidate before evaluation.
    fn precheck(&mut self, mapping: &Mapping, change: ChangeDepth) -> bool;

    /// Full evaluation: the metric to minimize, or `None` when invalid.
    fn evaluate(&mut self, mapping: &Mapping, change: ChangeDepth) -> Option<f64>;
}

/// The default [`WorkerEvaluator`]: stateless delegation to the
/// underlying evaluator, ignoring change depths.
struct StatelessWorker<'a, E: ?Sized>(&'a E);

impl<E: CandidateEvaluator + ?Sized> WorkerEvaluator for StatelessWorker<'_, E> {
    fn precheck(&mut self, mapping: &Mapping, _change: ChangeDepth) -> bool {
        self.0.precheck(mapping)
    }

    fn evaluate(&mut self, mapping: &Mapping, _change: ChangeDepth) -> Option<f64> {
        self.0.evaluate(mapping)
    }
}

impl<F> CandidateEvaluator for F
where
    F: Fn(&Mapping) -> Option<f64> + Sync,
{
    fn evaluate(&self, mapping: &Mapping) -> Option<f64> {
        self(mapping)
    }
}

/// Candidates pulled from the shared stream per lock acquisition in a
/// threaded [`Mapper::search`]; amortizes lock traffic without letting any
/// worker run far ahead of the stream.
const PAR_BATCH: usize = 32;

/// How [`Mapper::Hybrid`] draws its sample tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleStrategy {
    /// Independent uniform draws from a seeded RNG
    /// ([`Mapspace::iter_sample`]).
    #[default]
    Uniform,
    /// Low-discrepancy Halton draws: consecutive samples spread evenly
    /// over the factorization space instead of clustering
    /// ([`Mapspace::iter_sample_halton`]), so a fixed sample budget
    /// covers more distinct candidates.
    Halton,
}

/// Mapspace search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapper {
    /// Enumerate deterministically up to a candidate cap.
    Exhaustive {
        /// Maximum number of candidates to enumerate.
        limit: usize,
    },
    /// Draw random candidates with a seeded RNG (reproducible).
    Random {
        /// Number of samples to draw.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Enumerate up to a cap, then top up with samples — a simple
    /// hybrid that works well on medium mapspaces. Samples that duplicate
    /// an enumerated candidate are dropped from the stream (the strategy
    /// keeps a set of the enumerated prefix, so memory is O(`enumerate`)),
    /// ensuring sampled draws only ever explore beyond the prefix.
    Hybrid {
        /// Enumeration cap.
        enumerate: usize,
        /// Additional samples.
        samples: usize,
        /// Sample seed (RNG seed for uniform draws, sequence offset for
        /// Halton draws).
        seed: u64,
        /// How the sample tail is drawn.
        sampling: SampleStrategy,
    },
}

impl Mapper {
    /// The strategy's candidate stream over `space`: a lazy, deterministic
    /// iterator (for a fixed strategy, including seeds) shared by the
    /// sequential and parallel search paths.
    pub fn candidates<'a>(
        &self,
        space: &'a Mapspace,
    ) -> Box<dyn Iterator<Item = Mapping> + Send + 'a> {
        Box::new(self.delta_candidates(space).map(|(_, m)| m))
    }

    /// Like [`candidates`](Mapper::candidates), but each candidate
    /// carries its [`ChangeDepth`] relative to the previous stream
    /// candidate. Enumerated candidates report their true first-changed
    /// position; sampled draws (and the first candidate) report
    /// [`ChangeDepth::Reset`] — sampling shares no systematic prefix, so
    /// consumers must recompute those from scratch.
    pub fn delta_candidates<'a>(
        &self,
        space: &'a Mapspace,
    ) -> Box<dyn Iterator<Item = (ChangeDepth, Mapping)> + Send + 'a> {
        match *self {
            Mapper::Exhaustive { limit } => {
                let mut it = space.iter_enumerate(limit);
                Box::new(std::iter::from_fn(move || it.next_delta()))
            }
            Mapper::Random { samples, seed } => Box::new(
                space
                    .iter_sample(samples, StdRng::seed_from_u64(seed))
                    .map(|m| (ChangeDepth::Reset, m)),
            ),
            Mapper::Hybrid {
                enumerate,
                samples,
                seed,
                sampling,
            } => {
                // dedup sampled candidates against the enumerated prefix:
                // re-evaluating a mapping enumeration already scored
                // wastes the sample budget without changing the winner.
                // The prefix stays streaming (O(1) beyond the dedup set
                // itself): each enumerated candidate is recorded into the
                // set as it is yielded, and the sample tail filters
                // against it. The tail is built only once the prefix runs
                // dry — and not at all when the prefix *covered* the
                // space: every sample would dedup away, so the tail's
                // 20x-samples draw budget would be pure waste (the cover
                // check is free — the enumeration stream already knows
                // whether its counter wrapped). `enumerate == 0` is the
                // pure-sampling degenerate: exhaustion then means "no
                // prefix", not "covered", so the tail always runs.
                let mut seen: HashSet<Mapping> = HashSet::new();
                let mut prefix = space.iter_enumerate(enumerate);
                let mut tail: Option<Box<dyn Iterator<Item = Mapping> + Send + 'a>> = None;
                Box::new(std::iter::from_fn(move || loop {
                    if let Some(t) = tail.as_mut() {
                        return t
                            .find(|m| !seen.contains(m))
                            .map(|m| (ChangeDepth::Reset, m));
                    }
                    if let Some((depth, m)) = prefix.next_delta() {
                        if samples > 0 {
                            seen.insert(m.clone());
                        }
                        return Some((depth, m));
                    }
                    tail = if samples == 0 || (enumerate > 0 && prefix.space_exhausted()) {
                        Some(Box::new(std::iter::empty()))
                    } else {
                        Some(sample_tail(space, samples, seed, sampling))
                    };
                }))
            }
        }
    }

    /// Searches `space` for the candidate minimizing `evaluator`'s
    /// objective. Returns the winner (`None` when no candidate evaluates
    /// successfully) and the run's counters, which count the walked
    /// stream even when it held no valid candidate.
    ///
    /// Every candidate goes through the two-stage pipeline: a failed
    /// [`CandidateEvaluator::precheck`] prunes it, otherwise the full
    /// evaluation scores it. NaN objectives are counted invalid: they
    /// are unordered, so admitting them would make the winner depend on
    /// evaluation order.
    ///
    /// `exec` only picks how the stream is walked; winner, objective
    /// bits and counters are identical in every mode:
    ///
    /// * [`Exec::Threads`] — workers pull fixed-size batches off the
    ///   shared stream and keep a local best keyed by `(objective,
    ///   candidate index)`. The lexicographic minimum of those keys is
    ///   exactly the candidate the sequential scan keeps (first strict
    ///   minimum in stream order). `Threads(Some(1))` is that scan.
    /// * [`Exec::Shards`] — every shard of
    ///   [`search_shard_counted`](Mapper::search_shard_counted) runs on
    ///   the worker pool and [`merge_shard_results`] reduces them: the
    ///   same code a multi-process fleet runs, one shard per process.
    pub fn search<E: CandidateEvaluator + ?Sized>(
        &self,
        space: &Mapspace,
        evaluator: &E,
        exec: Exec,
    ) -> (Option<SearchResult>, SearchStats) {
        match exec {
            Exec::Threads(threads) => {
                let workers = threads.unwrap_or_else(rayon::current_num_threads).max(1);
                let keyed = self
                    .delta_candidates(space)
                    .enumerate()
                    .map(|(idx, (depth, m))| (idx, depth, m));
                if workers == 1 {
                    // one stateful worker walks the whole stream: scratch
                    // buffers and prefix-incremental caches persist
                    return Best::default().walk(evaluator, keyed).finish();
                }
                par_walk(keyed, evaluator, workers).finish()
            }
            Exec::Shards(shards) => {
                let shards = shards.max(1);
                let mut parts = vec![(None, SearchStats::default()); shards];
                rayon::scope(|s| {
                    for (shard, part) in parts.iter_mut().enumerate() {
                        s.spawn(move |_| {
                            *part = self.search_shard_counted(space, evaluator, shard, shards)
                        });
                    }
                });
                merge_shard_results(parts)
            }
        }
    }

    /// Evaluates **one** shard of the sharded search on this process,
    /// returning its raw local winner (objective value, globally
    /// comparable [`CandidateKey`], mapping) and counters — the
    /// per-worker half of a multi-process sharded search. Feeding every
    /// shard's return through [`merge_shard_results`] is exactly what
    /// [`Mapper::search`] does under [`Exec::Shards`].
    ///
    /// Division of labor by strategy:
    ///
    /// * `Exhaustive` (and `Hybrid` with no samples) — shard `shard` of
    ///   the enumerated stream.
    /// * `Hybrid` — shard `shard` of the enumerated prefix; shard 0
    ///   additionally owns the (inherently sequential) seeded sample
    ///   tail, regenerating the *full* prefix locally to rebuild the
    ///   dedup set and the cover-check counter the unsharded stream
    ///   maintains for free.
    /// * `Random` — one seeded sequence with nothing to shard: shard 0
    ///   walks it whole; other shards return empty.
    ///
    /// Panics if `shard >= shards` or `shards == 0`.
    pub fn search_shard_counted<E: CandidateEvaluator + ?Sized>(
        &self,
        space: &Mapspace,
        evaluator: &E,
        shard: usize,
        shards: usize,
    ) -> (Option<ShardWinner>, SearchStats) {
        assert!(shards > 0, "shard count must be positive");
        assert!(shard < shards, "shard index {shard} out of {shards}");
        // one worker per shard: the shard is one contiguous sub-stream,
        // so its change depths hold end to end
        let enumerated_shard = |limit: usize| {
            let mut own = space.shards(shards, limit).swap_remove(shard);
            Best::default().walk(evaluator, std::iter::from_fn(|| own.next_delta()))
        };
        let best = match *self {
            Mapper::Exhaustive { limit } => enumerated_shard(limit),
            Mapper::Random { .. } if shard != 0 => Best::default(),
            // the whole seeded stream, keyed like a sample tail: the
            // first strict minimum wins, exactly as in the unsharded scan
            Mapper::Random { .. } => Best::default().walk(
                evaluator,
                self.delta_candidates(space)
                    .enumerate()
                    .map(|(i, (depth, m))| (CandidateKey::sampled(i as u64), depth, m)),
            ),
            Mapper::Hybrid {
                enumerate,
                samples,
                seed,
                sampling,
            } => {
                let best = enumerated_shard(enumerate);
                if samples == 0 || shard != 0 {
                    return (best.winner, best.stats);
                }
                // shard 0 owns the sample tail. The tail's dedup set and
                // the cover-check counter span the *whole* prefix, so
                // regenerate it locally (generation only — no evaluation;
                // shards are disjoint and collectively exhaustive, so
                // this count equals the union of every shard's
                // `generated`).
                let mut seen: HashSet<Mapping> = HashSet::new();
                let mut prefix = space.iter_enumerate(enumerate);
                let mut total_generated = 0usize;
                while let Some((_, m)) = prefix.next_delta() {
                    total_generated += 1;
                    seen.insert(m);
                }
                // a prefix that ran dry below its cap covered the space:
                // every sample would dedup away, so the tail is skipped
                // like the unsharded stream skips it
                if total_generated < enumerate {
                    return (best.winner, best.stats);
                }
                // sampled keys order after all enumerated keys, matching
                // the tail's stream position; sampled draws share no
                // prefix, so every one is a Reset
                let tail = sample_tail(space, samples, seed, sampling)
                    .filter(|m| !seen.contains(m))
                    .enumerate()
                    .map(|(i, m)| (CandidateKey::sampled(i as u64), ChangeDepth::Reset, m));
                best.walk(evaluator, tail)
            }
        };
        (best.winner, best.stats)
    }
}

/// One shard's raw winner: `(objective value, candidate key, mapping)`,
/// as returned by [`Mapper::search_shard_counted`].
pub type ShardWinner = (f64, CandidateKey, Mapping);

/// Reduces per-shard partial results (one per shard index, any order)
/// into the full search outcome: the `(value, key)`-lexicographic
/// minimum winner plus summed counters — the result of
/// [`Mapper::search`] under [`Exec::Shards`] when fed every shard of
/// the same search.
pub fn merge_shard_results(
    parts: impl IntoIterator<Item = (Option<ShardWinner>, SearchStats)>,
) -> (Option<SearchResult>, SearchStats) {
    parts
        .into_iter()
        .fold(Best::default(), |acc, (winner, stats)| {
            acc.merge(Best { winner, stats })
        })
        .finish()
}

/// The hybrid strategy's sample tail as a boxed stream (uniform RNG or
/// Halton low-discrepancy draws).
fn sample_tail<'a>(
    space: &'a Mapspace,
    samples: usize,
    seed: u64,
    sampling: SampleStrategy,
) -> Box<dyn Iterator<Item = Mapping> + Send + 'a> {
    match sampling {
        SampleStrategy::Uniform => {
            Box::new(space.iter_sample(samples, StdRng::seed_from_u64(seed)))
        }
        SampleStrategy::Halton => Box::new(space.iter_sample_halton(samples, seed)),
    }
}

/// A walk's running winner — the `(objective, key)`-lexicographic
/// minimum, keys being stream positions — plus its counters. Its
/// [`step`](Best::step) is the one candidate step every search walk
/// shares.
struct Best<K> {
    winner: Option<(f64, K, Mapping)>,
    stats: SearchStats,
}

impl<K> Default for Best<K> {
    fn default() -> Self {
        Best {
            winner: None,
            stats: SearchStats::default(),
        }
    }
}

impl<K: PartialOrd> Best<K> {
    /// Precheck → evaluate → NaN check → keep the better candidate.
    fn step(&mut self, worker: &mut dyn WorkerEvaluator, key: K, depth: ChangeDepth, m: Mapping) {
        self.stats.generated += 1;
        if !worker.precheck(&m, depth) {
            self.stats.pruned += 1;
            return;
        }
        match worker.evaluate(&m, depth) {
            Some(v) if !v.is_nan() => {
                self.stats.evaluated += 1;
                self.offer(v, key, m);
            }
            _ => self.stats.invalid += 1,
        }
    }

    fn offer(&mut self, v: f64, key: K, m: Mapping) {
        let beats = match &self.winner {
            None => true,
            Some((bv, bkey, _)) => v < *bv || (v == *bv && key < *bkey),
        };
        if beats {
            self.winner = Some((v, key, m));
        }
    }

    /// Steps through a keyed stream with one fresh stateful worker.
    fn walk<E: CandidateEvaluator + ?Sized>(
        mut self,
        evaluator: &E,
        stream: impl Iterator<Item = (K, ChangeDepth, Mapping)>,
    ) -> Self {
        let mut worker = evaluator.worker();
        for (key, depth, m) in stream {
            self.step(&mut *worker, key, depth, m);
        }
        self
    }

    /// Reduction of two disjoint walks: summed counters, better winner.
    fn merge(mut self, other: Best<K>) -> Self {
        self.stats.absorb(&other.stats);
        if let Some((v, key, m)) = other.winner {
            self.offer(v, key, m);
        }
        self
    }

    fn finish(self) -> (Option<SearchResult>, SearchStats) {
        let result = self
            .winner
            .map(|(objective, _, mapping)| SearchResult { mapping, objective });
        (result, self.stats)
    }
}

/// Threaded walk: `workers` pool tasks pull [`PAR_BATCH`]-sized batches
/// off the shared keyed stream, each keeping a local [`Best`]; the
/// locals are merged once every task has drained.
fn par_walk<E: CandidateEvaluator + ?Sized>(
    stream: impl Iterator<Item = (usize, ChangeDepth, Mapping)> + Send,
    evaluator: &E,
    workers: usize,
) -> Best<usize> {
    let stream = Mutex::new(stream);
    let mut locals: Vec<Best<usize>> = (0..workers).map(|_| Best::default()).collect();
    rayon::scope(|s| {
        for local in locals.iter_mut() {
            let stream = &stream;
            s.spawn(move |_| {
                let mut worker = evaluator.worker();
                loop {
                    let batch: Vec<(usize, ChangeDepth, Mapping)> = {
                        let mut it = stream.lock().expect("candidate stream poisoned");
                        it.by_ref().take(PAR_BATCH).collect()
                    };
                    if batch.is_empty() {
                        break;
                    }
                    for (pos, (idx, depth, m)) in batch.into_iter().enumerate() {
                        // a batch's first candidate follows one that
                        // (usually) went to another worker: its depth
                        // relation does not hold for THIS worker's
                        // caches, so it must recompute from scratch
                        let depth = if pos == 0 { ChangeDepth::Reset } else { depth };
                        local.step(&mut *worker, idx, depth, m);
                    }
                }
            });
        }
    });
    locals.into_iter().fold(Best::default(), Best::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
    use sparseloop_tensor::einsum::Einsum;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The sequential scan every other execution mode must reproduce.
    const SEQ: Exec = Exec::Threads(Some(1));

    /// Every execution mode the parity tests sweep.
    const EXECS: [Exec; 8] = [
        Exec::Threads(Some(1)),
        Exec::Threads(Some(2)),
        Exec::Threads(Some(3)),
        Exec::Threads(Some(8)),
        Exec::Shards(1),
        Exec::Shards(2),
        Exec::Shards(3),
        Exec::Shards(7),
    ];

    fn setup() -> Mapspace {
        let e = Einsum::matmul(8, 8, 8);
        let a = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        Mapspace::all_temporal(&e, &a)
    }

    /// A toy objective: prefer large innermost-level loop products
    /// (maximizing on-chip work per DRAM visit).
    fn toy_objective(m: &Mapping) -> Option<f64> {
        let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
        Some(1.0 / inner as f64)
    }

    /// Winner as comparable bits: `(objective bits, mapping)`.
    fn bits(r: &Option<SearchResult>) -> Option<(u64, &Mapping)> {
        r.as_ref().map(|r| (r.objective.to_bits(), &r.mapping))
    }

    /// Asserts every mode of [`EXECS`] returns the sequential scan's
    /// winner (objective bits included) and counters; returns the scan.
    fn assert_exec_parity<E: CandidateEvaluator>(
        mapper: Mapper,
        space: &Mapspace,
        evaluator: &E,
    ) -> (Option<SearchResult>, SearchStats) {
        let (seq, seq_stats) = mapper.search(space, evaluator, SEQ);
        for exec in EXECS {
            let (got, stats) = mapper.search(space, evaluator, exec);
            assert_eq!(bits(&got), bits(&seq), "{exec:?} {mapper:?}");
            assert_eq!(stats, seq_stats, "{exec:?} {mapper:?}");
        }
        (seq, seq_stats)
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let space = setup();
        let (r, stats) = Mapper::Exhaustive { limit: 100_000 }.search(&space, &toy_objective, SEQ);
        // optimum puts everything innermost: product 512
        assert!((r.unwrap().objective - 1.0 / 512.0).abs() < 1e-12);
        assert!(stats.evaluated > 0);
    }

    #[test]
    fn random_search_reproducible() {
        let space = setup();
        let m = Mapper::Random {
            samples: 64,
            seed: 42,
        };
        let a = m.search(&space, &toy_objective, SEQ).0.unwrap();
        let b = m.search(&space, &toy_objective, SEQ).0.unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn invalid_candidates_counted() {
        let space = setup();
        let calls = AtomicUsize::new(0);
        let every_other = |m: &Mapping| {
            if (calls.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(2) {
                None
            } else {
                toy_objective(m)
            }
        };
        let (r, stats) = Mapper::Exhaustive { limit: 50 }.search(&space, &every_other, SEQ);
        assert!(r.is_some());
        assert!(stats.invalid > 0);
        assert_eq!(stats.invalid + stats.evaluated, stats.generated);
    }

    #[test]
    fn all_invalid_returns_none() {
        let space = setup();
        let reject = |_: &Mapping| -> Option<f64> { None };
        let (r, stats) = Mapper::Exhaustive { limit: 10 }.search(&space, &reject, SEQ);
        assert!(r.is_none());
        assert_eq!(stats.invalid, 10, "the fruitless walk is still counted");
    }

    #[test]
    fn hybrid_covers_both_sources() {
        let space = setup();
        let (r, stats) = Mapper::Hybrid {
            enumerate: 10,
            samples: 10,
            seed: 1,
            sampling: SampleStrategy::Uniform,
        }
        .search(&space, &toy_objective, SEQ);
        assert!(r.is_some());
        // at least the enumerated prefix; sampled duplicates of the
        // prefix are dropped, so the total may fall short of 20
        assert!(stats.generated >= 10 && stats.generated <= 20);
    }

    #[test]
    fn hybrid_samples_never_repeat_the_enumerated_prefix() {
        // enumerate below the 64-candidate space size so a sample tail
        // actually runs (a covering prefix would skip it entirely)
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 40,
            samples: 500,
            seed: 3,
            sampling: SampleStrategy::Uniform,
        };
        let stream: Vec<Mapping> = mapper.candidates(&space).collect();
        assert!(stream.len() > 40, "tail must contribute candidates");
        let prefix: std::collections::HashSet<&Mapping> = stream.iter().take(40).collect();
        for m in stream.iter().skip(40) {
            assert!(!prefix.contains(m), "sampled candidate repeats prefix");
        }
    }

    #[test]
    fn covered_prefix_skips_the_sample_tail() {
        // setup()'s space has exactly 64 candidates; an enumeration cap
        // at or above that covers the space, so the hybrid stream must
        // end after the prefix instead of burning the 20x-samples draw
        // budget on draws that all dedup away (the ROADMAP's hybrid
        // sample-tail cost note)
        let space = setup();
        assert_eq!(space.iter_enumerate(usize::MAX).count(), 64);
        let covered = Mapper::Hybrid {
            enumerate: 64,
            samples: 1_000_000,
            seed: 9,
            sampling: SampleStrategy::Uniform,
        };
        let stream: Vec<(ChangeDepth, Mapping)> = covered.delta_candidates(&space).collect();
        assert_eq!(stream.len(), 64, "no sampled candidate can be new");
        // the searches agree with plain exhaustive enumeration, counters
        // included (sampled duplicates were never generated)
        let exhaustive = Mapper::Exhaustive { limit: 64 }.search(&space, &toy_objective, SEQ);
        let hybrid = covered.search(&space, &toy_objective, SEQ);
        assert_eq!(bits(&hybrid.0), bits(&exhaustive.0));
        assert_eq!(hybrid.1, exhaustive.1);
        // the sharded walk takes the same shortcut and stays identical
        assert_exec_parity(covered, &space, &EvenPruner);
    }

    #[test]
    fn zero_enumerate_hybrid_is_pure_sampling() {
        // enumerate == 0 exhausts the prefix immediately — that must
        // read as "no prefix", not "prefix covered the space"
        let space = setup();
        let stream: Vec<Mapping> = Mapper::Hybrid {
            enumerate: 0,
            samples: 16,
            seed: 2,
            sampling: SampleStrategy::Uniform,
        }
        .candidates(&space)
        .collect();
        assert!(!stream.is_empty(), "sample tail must run with no prefix");
    }

    #[test]
    fn uncovered_prefix_still_samples() {
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 63, // one short of the 64-candidate space
            samples: 200,
            seed: 5,
            sampling: SampleStrategy::Uniform,
        };
        let stream: Vec<Mapping> = mapper.candidates(&space).collect();
        assert!(
            stream.len() > 63,
            "a non-covering prefix must keep its sample tail"
        );
    }

    #[test]
    fn generated_counted_from_stream() {
        // the stream is lazy: generated reflects candidates actually
        // drawn, and a tiny limit draws no more than that
        let space = setup();
        let (_, stats) = Mapper::Exhaustive { limit: 7 }.search(&space, &toy_objective, SEQ);
        assert_eq!(stats.generated, 7);
    }

    /// Evaluator pruning even innermost-products, matching an objective
    /// that rejects them.
    struct EvenPruner;

    impl CandidateEvaluator for EvenPruner {
        fn precheck(&self, m: &Mapping) -> bool {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            !inner.is_multiple_of(2)
        }

        fn evaluate(&self, m: &Mapping) -> Option<f64> {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            if inner.is_multiple_of(2) {
                None
            } else {
                Some(1.0 / inner as f64)
            }
        }
    }

    #[test]
    fn precheck_prunes_and_accounts() {
        let space = setup();
        let mapper = Mapper::Exhaustive { limit: 10_000 };
        let (r, stats) = mapper.search(&space, &EvenPruner, SEQ);
        assert!(stats.pruned > 0, "some candidates must be pruned");
        assert_eq!(
            stats.pruned + stats.evaluated + stats.invalid,
            stats.generated
        );
        // pruning must not change the winner vs. the plain objective
        let (plain, _) = mapper.search(&space, &|m: &Mapping| EvenPruner.evaluate(m), SEQ);
        assert_eq!(bits(&r), bits(&plain));
    }

    #[test]
    fn par_search_matches_sequential_exhaustive() {
        let space = setup();
        let (seq, _) = assert_exec_parity(
            Mapper::Exhaustive { limit: 100_000 },
            &space,
            &toy_objective,
        );
        assert!(seq.is_some());
    }

    #[test]
    fn par_search_matches_sequential_random_and_hybrid() {
        let space = setup();
        for mapper in [
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
                sampling: SampleStrategy::Uniform,
            },
        ] {
            assert!(assert_exec_parity(mapper, &space, &toy_objective)
                .0
                .is_some());
        }
    }

    #[test]
    fn par_search_with_pruning_evaluator() {
        let space = setup();
        let (seq, stats) =
            assert_exec_parity(Mapper::Exhaustive { limit: 50_000 }, &space, &EvenPruner);
        assert!(seq.is_some());
        assert!(stats.pruned > 0);
    }

    #[test]
    fn nan_objectives_counted_invalid_and_deterministic() {
        let space = setup();
        // poison the optimum with NaN: it must be rejected, not win
        let nan_obj = |m: &Mapping| {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            if inner == 512 {
                Some(f64::NAN)
            } else {
                Some(1.0 / inner as f64)
            }
        };
        let (seq, stats) =
            assert_exec_parity(Mapper::Exhaustive { limit: 100_000 }, &space, &nan_obj);
        assert!(stats.invalid > 0, "NaN candidates count as invalid");
        assert!(!seq.unwrap().objective.is_nan());
    }

    #[test]
    fn search_sharded_matches_par_search_exhaustive() {
        // limits both above and *below* the space size: the shard census
        // must reproduce the exact global cutoff
        let space = setup();
        for limit in [7, 100, 100_000] {
            assert_exec_parity(Mapper::Exhaustive { limit }, &space, &toy_objective);
        }
    }

    #[test]
    fn search_sharded_matches_par_search_hybrid_and_random() {
        let space = setup();
        for mapper in [
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
                sampling: SampleStrategy::Uniform,
            },
            Mapper::Hybrid {
                enumerate: 32,
                samples: 100,
                seed: 11,
                sampling: SampleStrategy::Halton,
            },
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
        ] {
            assert!(assert_exec_parity(mapper, &space, &toy_objective)
                .0
                .is_some());
        }
    }

    #[test]
    fn search_sharded_with_pruning_evaluator() {
        let space = setup();
        let mapper = Mapper::Exhaustive { limit: 50_000 };
        let (seq, seq_stats) = mapper.search(&space, &EvenPruner, SEQ);
        let (sharded, stats) = mapper.search(&space, &EvenPruner, Exec::Shards(4));
        assert_eq!(bits(&sharded), bits(&seq));
        assert_eq!(stats, seq_stats);
    }

    #[test]
    fn search_sharded_all_invalid_returns_none_with_stats() {
        let space = setup();
        let reject = |_: &Mapping| -> Option<f64> { None };
        let (result, stats) = assert_exec_parity(Mapper::Exhaustive { limit: 10 }, &space, &reject);
        assert!(result.is_none());
        assert_eq!(stats.generated, 10);
        assert_eq!(stats.invalid, 10);
    }

    #[test]
    fn hybrid_halton_tail_skips_enumerated_prefix() {
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 200,
            samples: 300,
            seed: 3,
            sampling: SampleStrategy::Halton,
        };
        let stream: Vec<Mapping> = mapper.candidates(&space).collect();
        let prefix: std::collections::HashSet<&Mapping> = stream.iter().take(200).collect();
        for m in stream.iter().skip(200) {
            assert!(!prefix.contains(m), "halton sample repeats prefix");
        }
    }

    #[test]
    fn per_shard_merge_matches_in_process_sharded_search() {
        // the multi-process contract: running search_shard_counted for
        // every shard index (as worker processes would) and merging must
        // reproduce the sequential scan bit-identically — winner
        // mapping, objective bits, and summed counters — for every
        // strategy and shard count
        let space = setup();
        for mapper in [
            Mapper::Exhaustive { limit: 100_000 },
            Mapper::Exhaustive { limit: 7 },
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
                sampling: SampleStrategy::Uniform,
            },
            Mapper::Hybrid {
                enumerate: 32,
                samples: 100,
                seed: 11,
                sampling: SampleStrategy::Halton,
            },
            Mapper::Hybrid {
                enumerate: 100,
                samples: 50,
                seed: 2,
                sampling: SampleStrategy::Uniform,
            },
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
        ] {
            let (whole, whole_stats) = mapper.search(&space, &toy_objective, SEQ);
            for shards in [1, 2, 3] {
                let parts = (0..shards)
                    .map(|k| mapper.search_shard_counted(&space, &toy_objective, k, shards));
                let (merged, stats) = merge_shard_results(parts);
                assert_eq!(bits(&merged), bits(&whole), "shards={shards} {mapper:?}");
                assert_eq!(stats, whole_stats, "shards={shards} {mapper:?}");
            }
        }
    }

    #[test]
    fn per_shard_merge_with_pruning_evaluator() {
        let space = setup();
        let mapper = Mapper::Exhaustive { limit: 50_000 };
        let whole = mapper.search(&space, &EvenPruner, SEQ);
        let parts = (0..4).map(|k| mapper.search_shard_counted(&space, &EvenPruner, k, 4));
        let merged = merge_shard_results(parts);
        assert_eq!(bits(&merged.0), bits(&whole.0));
        assert_eq!(merged.1, whole.1);
    }

    #[test]
    fn shard_results_survive_the_wire() {
        // encode each shard's winner exactly as the worker protocol does
        // and merge the decoded parts: still bit-identical
        use crate::wire::{
            decode_key, decode_mapping, decode_stats, encode_key, encode_mapping, encode_stats,
            WireReader, WireWriter,
        };
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 40,
            samples: 60,
            seed: 7,
            sampling: SampleStrategy::Uniform,
        };
        let (whole, whole_stats) = mapper.search(&space, &toy_objective, SEQ);
        let mut parts = Vec::new();
        for k in 0..3 {
            let (winner, stats) = mapper.search_shard_counted(&space, &toy_objective, k, 3);
            let mut w = WireWriter::new();
            encode_stats(&mut w, &stats);
            match &winner {
                Some((v, key, m)) => {
                    w.put_bool(true);
                    w.put_f64_bits(*v);
                    encode_key(&mut w, key);
                    encode_mapping(&mut w, m);
                }
                None => w.put_bool(false),
            }
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let stats = decode_stats(&mut r).unwrap();
            let winner = if r.get_bool("have").unwrap() {
                let v = r.get_f64_bits("value").unwrap();
                let key = decode_key(&mut r).unwrap();
                let m = decode_mapping(&mut r).unwrap();
                Some((v, key, m))
            } else {
                None
            };
            assert!(r.is_done());
            parts.push((winner, stats));
        }
        let (merged, stats) = merge_shard_results(parts);
        assert!(merged.is_some());
        assert_eq!(bits(&merged), bits(&whole));
        assert_eq!(stats, whole_stats);
    }

    #[test]
    fn par_search_all_invalid_returns_none() {
        let space = setup();
        let reject = |_: &Mapping| -> Option<f64> { None };
        let (r, stats) =
            Mapper::Exhaustive { limit: 10 }.search(&space, &reject, Exec::Threads(Some(4)));
        assert!(r.is_none());
        assert_eq!(stats.generated, 10);
    }
}
