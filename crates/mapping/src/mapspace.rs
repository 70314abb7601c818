//! Mapspaces: constraint-driven enumeration of candidate mappings.
//!
//! A [`Mapspace`] fixes, per storage level, the *order* in which
//! dimensions may appear as temporal loops and which dimensions may be
//! distributed spatially. What remains free — and what the mapper
//! explores — is the *factorization*: how each workload dimension's bound
//! splits across the eligible loop positions. This mirrors the paper's
//! "mapspace constraints" input (§5.1): the user supplies partial loop
//! orders, Sparseloop locates the best concrete schedule.

use crate::loops::{Loop, Mapping};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sparseloop_arch::Architecture;
use sparseloop_tensor::einsum::{DimId, Einsum, TensorId};
use std::sync::Arc;

/// All ordered factorizations of `n` into `k` positive factors.
///
/// The result is deterministic (lexicographic in factor order). Sizes grow
/// combinatorially; callers cap enumeration via `limit` (`None` =
/// unlimited).
///
/// # Example
/// ```
/// use sparseloop_mapping::factorizations;
/// let f = factorizations(4, 2, None);
/// assert_eq!(f, vec![vec![1, 4], vec![2, 2], vec![4, 1]]);
/// ```
pub fn factorizations(n: u64, k: usize, limit: Option<usize>) -> Vec<Vec<u64>> {
    assert!(n >= 1 && k >= 1, "need n >= 1 and k >= 1");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(
        n: u64,
        k: usize,
        current: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
        limit: Option<usize>,
    ) {
        if let Some(l) = limit {
            if out.len() >= l {
                return;
            }
        }
        if k == 1 {
            current.push(n);
            out.push(current.clone());
            current.pop();
            return;
        }
        for d in 1..=n {
            if n.is_multiple_of(d) {
                current.push(d);
                rec(n / d, k - 1, current, out, limit);
                current.pop();
            }
        }
    }
    rec(n, k, &mut current, &mut out, limit);
    out
}

/// A random ordered factorization of `n` into `k` positive factors.
pub fn random_factorization(n: u64, k: usize, rng: &mut impl Rng) -> Vec<u64> {
    let mut factors = vec![1u64; k];
    let mut rest = n;
    let mut divisors: Vec<u64> = Vec::new();
    // Peel random divisors into random positions until rest is 1.
    while rest > 1 {
        divisors_excluding_one(rest, &mut divisors);
        let d = divisors[rng.gen_range(0..divisors.len())];
        // take a prime-ish chunk: smallest prime factor of d
        let p = smallest_prime_factor(d);
        let pos = rng.gen_range(0..k);
        factors[pos] *= p;
        rest /= p;
    }
    factors
}

/// The divisors of `n >= 2` except 1, ascending, via trial division to
/// `√n` — the same list a linear scan of `2..=n` produces, three orders
/// of magnitude faster for the large composite bounds real workloads
/// have (random sampling draws this per peel per dimension, which made
/// the hybrid mapper's sample tail the most expensive part of its
/// candidate stream).
fn divisors_excluding_one(n: u64, out: &mut Vec<u64>) {
    out.clear();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            if d != n / d {
                out.push(n / d);
            }
        }
        d += 1;
    }
    out.push(n);
    out.sort_unstable();
}

fn smallest_prime_factor(n: u64) -> u64 {
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return d;
        }
        d += 1;
    }
    n
}

/// The prime factors of `n` with multiplicity, ascending (`n >= 1`;
/// `1` has no prime factors).
fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    while n > 1 {
        let p = smallest_prime_factor(n);
        out.push(p);
        n /= p;
    }
    out
}

/// The first `count` primes (the Halton sampler's per-decision bases).
fn first_primes(count: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(count);
    let mut candidate = 2u64;
    while primes.len() < count {
        if primes.iter().all(|p| !candidate.is_multiple_of(*p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// Radical inverse (van der Corput sequence) of `i` in `base`: the digits
/// of `i` mirrored around the radix point, a low-discrepancy point in
/// `[0, 1)`.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let inv = 1.0 / base as f64;
    let mut f = inv;
    let mut r = 0.0;
    while i > 0 {
        r += f * (i % base) as f64;
        i /= base;
        f *= inv;
    }
    r
}

/// Lazy, memoizing stream of the ordered factorizations of `n` into `k`
/// positive factors, produced in exactly the order [`factorizations`]
/// returns them.
///
/// [`EnumerateIter`] walks a mixed-radix counter over one stream per
/// within-block workload dimension. The counter revisits indices, so
/// produced factorizations are cached for O(1) re-access — but nothing
/// past the highest index the counter has touched is ever computed, so an
/// enumeration stopped early by its output `limit` never pays the full
/// ordered-factor list of an astronomically composite bound up front.
///
/// `k == 0` models a dimension that owns no loop slots: the stream holds
/// exactly one empty factorization (a unit radix in the counter).
struct FactorizationStream {
    n: u64,
    k: usize,
    cache: Vec<Vec<u64>>,
    /// DFS continuation: one frame per already-chosen factor position.
    stack: Vec<Frame>,
    /// Factors chosen by the frames, index-aligned with `stack`.
    current: Vec<u64>,
    started: bool,
    done: bool,
}

/// One suspended level of [`FactorizationStream`]'s depth-first walk.
struct Frame {
    /// Value left to factor at this position (before its choice).
    remaining: u64,
    /// Next divisor candidate to try here on backtrack.
    next: u64,
}

impl FactorizationStream {
    fn new(n: u64, k: usize) -> Self {
        assert!(n >= 1, "need n >= 1");
        FactorizationStream {
            n,
            k,
            cache: Vec::new(),
            stack: Vec::new(),
            current: Vec::new(),
            started: false,
            done: false,
        }
    }

    /// Number of factorizations materialized so far (laziness probe).
    #[cfg(test)]
    fn materialized(&self) -> usize {
        self.cache.len()
    }

    /// The `i`-th factorization, extending the cache as needed; `None`
    /// past the end of the stream.
    fn get(&mut self, i: usize) -> Option<&[u64]> {
        while self.cache.len() <= i && self.advance() {}
        self.cache.get(i).map(Vec::as_slice)
    }

    /// The `i`-th factorization, which must already be materialized.
    fn cached(&self, i: usize) -> &[u64] {
        &self.cache[i]
    }

    /// Materializes the next factorization; `false` once exhausted.
    fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        if self.k == 0 {
            self.done = true;
            self.cache.push(Vec::new());
            return true;
        }
        if !self.started {
            self.started = true;
            let tail = self.descend(self.n);
            self.emit(tail);
            return true;
        }
        loop {
            let Some(frame) = self.stack.last_mut() else {
                self.done = true;
                return false;
            };
            // next divisor of this level's remaining value
            let mut d = frame.next;
            while d <= frame.remaining && !frame.remaining.is_multiple_of(d) {
                d += 1;
            }
            if d > frame.remaining {
                self.stack.pop();
                self.current.pop();
                continue;
            }
            frame.next = d + 1;
            let rest = frame.remaining / d;
            *self.current.last_mut().expect("frame has a chosen factor") = d;
            let tail = self.descend(rest);
            self.emit(tail);
            return true;
        }
    }

    /// Chooses factor 1 at every level below the current one, down to
    /// depth `k - 1`; returns the value left for the final position.
    fn descend(&mut self, rest: u64) -> u64 {
        while self.stack.len() < self.k - 1 {
            self.stack.push(Frame {
                remaining: rest,
                next: 2,
            });
            self.current.push(1);
        }
        rest
    }

    fn emit(&mut self, tail: u64) {
        let mut f = self.current.clone();
        f.push(tail);
        self.cache.push(f);
    }
}

/// One loop *slot* of a mapspace: a level plus position where a dimension
/// may receive a tiling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    level: usize,
    dim: DimId,
    spatial: bool,
}

/// The outermost position at which a candidate differs from the
/// previously yielded candidate of the same stream.
///
/// The deterministic enumeration streams ([`Mapspace::iter_enumerate`],
/// [`Mapspace::shards`]) emit candidates in lexicographic factorization
/// order, so consecutive candidates usually share a long outer-loop
/// prefix. Each yielded candidate carries its `ChangeDepth` so an
/// incremental evaluator can reuse everything derived from the shared
/// prefix (per-level tile bounds, occupancies, format analyses) and
/// recompute only from the first changed loop inward.
///
/// **Contract** (what an evaluator may rely on): for
/// `ChangeDepth::At { level, loop_pos }`,
///
/// * the nests of every storage level strictly above `level` are
///   bit-identical to the previous candidate's, and within `level` the
///   loops before the first change are identical too;
/// * the flattened `(level, loop)` lists of the two candidates agree on
///   their first `loop_pos` entries and differ at position `loop_pos`
///   (where present — a factor may collapse to an elided factor-1 loop);
/// * because every candidate factorizes each workload dimension exactly,
///   the tile held at any level at-or-above `level` (the projection of
///   the loops at-and-below it) is also unchanged.
///
/// `Reset` marks stream seams — the first candidate of a stream or
/// shard, and every sampled (non-enumerated) draw — where no prefix may
/// be assumed and a consumer must recompute from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeDepth {
    /// No relation to the previously yielded candidate: stream start,
    /// shard seam, or a sampled draw. Consumers recompute everything.
    Reset,
    /// The first difference from the previous candidate.
    At {
        /// Storage level containing the first changed loop position.
        level: usize,
        /// Index into the flattened loop list of the first difference.
        loop_pos: usize,
    },
}

impl ChangeDepth {
    /// The deepest storage level whose *held tile* is guaranteed
    /// unchanged from the previous candidate (`None` for [`Reset`]:
    /// nothing may be reused).
    ///
    /// [`Reset`]: ChangeDepth::Reset
    pub fn reuse_level(&self) -> Option<usize> {
        match *self {
            ChangeDepth::Reset => None,
            ChangeDepth::At { level, .. } => Some(level),
        }
    }
}

/// First-difference position between the previous and current per-slot
/// factor assignments (both full factorizations of the same bounds).
fn change_depth(slots: &[Slot], prev: &[u64], cur: &[u64]) -> ChangeDepth {
    let mut loop_pos = 0usize;
    for (i, (&p, &c)) in prev.iter().zip(cur).enumerate() {
        if p != c {
            return ChangeDepth::At {
                level: slots[i].level,
                loop_pos,
            };
        }
        if c > 1 {
            loop_pos += 1;
        }
    }
    // Identical factor vectors never occur between consecutive distinct
    // candidates; stay conservative if they somehow do.
    ChangeDepth::Reset
}

/// A constrained space of mappings for one workload on one architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mapspace {
    num_levels: usize,
    num_tensors: usize,
    num_dims: usize,
    dim_bounds: Vec<u64>,
    /// Per level, the ordered dims eligible for temporal loops.
    temporal_order: Vec<Vec<DimId>>,
    /// Per level, dims eligible for spatial loops (placed before the
    /// level's temporal loops).
    spatial_dims: Vec<Vec<DimId>>,
    /// Per level fanout budget (from the architecture).
    fanout: Vec<u64>,
    /// Keep matrix (`[level][tensor]`, true = stored).
    keep: Vec<Vec<bool>>,
}

impl Mapspace {
    /// A mapspace that allows every dimension as a temporal loop at every
    /// level, in workload dimension order, with no spatial loops.
    pub fn all_temporal(einsum: &Einsum, arch: &Architecture) -> Self {
        let dims: Vec<DimId> = (0..einsum.dims().len()).map(DimId).collect();
        Mapspace {
            num_levels: arch.num_levels(),
            num_tensors: einsum.tensors().len(),
            num_dims: einsum.dims().len(),
            dim_bounds: einsum.bounds(),
            temporal_order: vec![dims.clone(); arch.num_levels()],
            spatial_dims: vec![Vec::new(); arch.num_levels()],
            fanout: (0..arch.num_levels())
                .map(|l| arch.fanout_below(sparseloop_arch::LevelId(l)))
                .collect(),
            keep: vec![vec![true; einsum.tensors().len()]; arch.num_levels()],
        }
    }

    /// Restricts level `l`'s temporal loops to the given dims, in the
    /// given outermost-first order.
    pub fn with_temporal_order(mut self, level: usize, dims: Vec<DimId>) -> Self {
        self.temporal_order[level] = dims;
        self
    }

    /// Allows the given dims to be distributed spatially below `level`.
    pub fn with_spatial_dims(mut self, level: usize, dims: Vec<DimId>) -> Self {
        self.spatial_dims[level] = dims;
        self
    }

    /// Marks tensor `t` as bypassed at `level` in every generated mapping.
    pub fn with_bypass(mut self, level: usize, t: TensorId) -> Self {
        self.keep[level][t.0] = false;
        self
    }

    /// Number of storage levels the space's mappings cover.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Number of workload tensors.
    pub fn num_tensors(&self) -> usize {
        self.num_tensors
    }

    /// Number of workload dimensions.
    pub fn num_dims(&self) -> usize {
        self.num_dims
    }

    /// Per-level temporal dimension orders (outermost level first) — the
    /// constraint state [`with_temporal_order`] sets, exposed so the spec
    /// front-end can serialize a mapspace back to its declarative form.
    ///
    /// [`with_temporal_order`]: Mapspace::with_temporal_order
    pub fn temporal_order(&self) -> &[Vec<DimId>] {
        &self.temporal_order
    }

    /// Per-level spatially-eligible dimensions (see
    /// [`with_spatial_dims`](Mapspace::with_spatial_dims)).
    pub fn spatial_dims(&self) -> &[Vec<DimId>] {
        &self.spatial_dims
    }

    /// The `(level, tensor)` pairs bypassed in every generated mapping
    /// (see [`with_bypass`](Mapspace::with_bypass)), outermost first.
    pub fn bypasses(&self) -> Vec<(usize, TensorId)> {
        let mut out = Vec::new();
        for (l, keeps) in self.keep.iter().enumerate() {
            for (t, &kept) in keeps.iter().enumerate() {
                if !kept {
                    out.push((l, TensorId(t)));
                }
            }
        }
        out
    }

    /// The ordered loop slots of this mapspace (levels outermost-first;
    /// spatial slots before temporal slots within a level).
    fn slots(&self) -> Vec<Slot> {
        let mut slots = Vec::new();
        for l in 0..self.num_levels {
            for &d in &self.spatial_dims[l] {
                slots.push(Slot {
                    level: l,
                    dim: d,
                    spatial: true,
                });
            }
            for &d in &self.temporal_order[l] {
                slots.push(Slot {
                    level: l,
                    dim: d,
                    spatial: false,
                });
            }
        }
        slots
    }

    /// Builds the mapping corresponding to fanout-valid per-slot factors
    /// (see [`fanout_ok`](Mapspace::fanout_ok)), dropping factor-1
    /// loops. Every mapping shares the plan's bypass configuration
    /// snapshot (see [`Mapping::with_shared_keep`]).
    fn mapping_from_factors(&self, plan: &SlotPlan, factors: &[u64]) -> Mapping {
        let mut nests: Vec<Vec<Loop>> = vec![Vec::new(); self.num_levels];
        for (s, &f) in plan.slots.iter().zip(factors) {
            if f > 1 {
                nests[s.level].push(if s.spatial {
                    Loop::spatial(s.dim, f)
                } else {
                    Loop::temporal(s.dim, f)
                });
            }
        }
        Mapping::with_shared_keep(nests, Arc::clone(&plan.keep))
    }

    /// Whether per-slot factors respect every level's spatial fanout
    /// budget: the one validity test of enumeration, sampling and the
    /// shard census (which counts candidates without building them).
    fn fanout_ok(&self, slots: &[Slot], factors: &[u64]) -> bool {
        for l in 0..self.num_levels {
            let spatial_product: u64 = slots
                .iter()
                .zip(factors)
                .filter(|(s, _)| s.level == l && s.spatial)
                .map(|(_, &f)| f)
                .product();
            if spatial_product > self.fanout[l] {
                return false;
            }
        }
        true
    }

    /// Precomputes the slot layout shared by enumeration and sampling.
    /// `feasible` is false when a dimension with bound > 1 has no slot to
    /// live in (the space contains no mapping at all).
    fn plan(&self) -> SlotPlan {
        let slots = self.slots();
        let mut per_dim: Vec<Vec<usize>> = vec![Vec::new(); self.num_dims];
        for (i, s) in slots.iter().enumerate() {
            per_dim[s.dim.0].push(i);
        }
        let feasible =
            (0..self.num_dims).all(|d| !per_dim[d].is_empty() || self.dim_bounds[d] == 1);
        SlotPlan {
            slots,
            per_dim,
            feasible,
            keep: Arc::new(self.keep.clone()),
        }
    }

    /// Streaming deterministic enumeration of up to `limit` mappings:
    /// the one-shard case of [`shards`](Mapspace::shards), whose keys are
    /// `(0, position)`.
    ///
    /// Candidates are produced lazily in the same order [`enumerate`]
    /// (a thin collecting wrapper) returns them, so exhaustive search
    /// over a combinatorially large mapspace needs O(1) memory in the
    /// candidate count.
    ///
    /// `limit` caps only the *output*: every candidate of the space is
    /// reachable given a large enough `limit` — a dimension with many
    /// factorizations never silently loses its tail.
    ///
    /// Memory note: each dimension's ordered factorization list is a
    /// *lazy memoizing stream* (`FactorizationStream`): factorizations
    /// materialize only as far as the mixed-radix counter reaches, so an
    /// enumeration stopped early (small `limit`, or a search that bails
    /// out) never allocates the full ordered-factor list of an
    /// astronomically composite bound up front.
    ///
    /// [`enumerate`]: Mapspace::enumerate
    pub fn iter_enumerate(&self, limit: usize) -> EnumerateIter<'_> {
        self.shards(1, limit).swap_remove(0)
    }

    /// Streaming random sampling of up to `count` mappings (duplicates
    /// possible). Draws stop after `count` valid mappings or `20 × count`
    /// attempts, whichever comes first — identical semantics to
    /// [`sample`](Mapspace::sample), which collects this iterator.
    pub fn iter_sample<R: Rng>(&self, count: usize, rng: R) -> SampleIter<'_, draw::Uniform<R>> {
        self.sampler(count, draw::Uniform(rng))
    }

    /// Enumerates up to `limit` mappings deterministically, materialized.
    ///
    /// Prefer [`iter_enumerate`](Mapspace::iter_enumerate) in search
    /// loops; this wrapper exists for callers that genuinely need the
    /// whole candidate list at once.
    pub fn enumerate(&self, limit: usize) -> Vec<Mapping> {
        self.iter_enumerate(limit).collect()
    }

    /// Samples `count` random mappings (duplicates possible),
    /// materialized. Prefer [`iter_sample`](Mapspace::iter_sample) in
    /// search loops.
    pub fn sample(&self, count: usize, rng: &mut impl Rng) -> Vec<Mapping> {
        self.iter_sample(count, rng).collect()
    }

    /// Streaming low-discrepancy (Halton) sampling of up to `count`
    /// mappings.
    ///
    /// Each draw assigns the prime factors of every dimension's bound to
    /// that dimension's loop slots using one radical-inverse coordinate
    /// per `(dimension, prime)` decision — consecutive sample indices
    /// therefore spread over the factorization space far more evenly
    /// than independent uniform draws, which cluster and repeat. The
    /// sequence is a pure function of `(space, count, seed)`:
    /// reproducible like [`iter_sample`](Mapspace::iter_sample), with
    /// the same draw-budget semantics (stops after `count` valid
    /// mappings or `20 × count` attempts).
    pub fn iter_sample_halton(&self, count: usize, seed: u64) -> SampleIter<'_, draw::Halton> {
        let plan = self.plan();
        let dim_primes: Vec<Vec<u64>> = (0..self.num_dims)
            .map(|d| {
                if plan.per_dim[d].is_empty() {
                    Vec::new()
                } else {
                    prime_factors(self.dim_bounds[d])
                }
            })
            .collect();
        let decisions: usize = dim_primes.iter().map(Vec::len).sum();
        let mut bases = first_primes(decisions).into_iter();
        let dims = dim_primes
            .into_iter()
            .map(|primes| primes.into_iter().zip(bases.by_ref()).collect())
            .collect();
        // offset the sequence by the seed (kept small so radical
        // inverses stay cheap); +1 skips the all-zeros point
        self.sampler(
            count,
            draw::Halton {
                dims,
                offset: (seed % (1 << 16)) + 1,
            },
        )
    }

    /// A sampler of up to `count` mappings drawing with `draw`.
    fn sampler<D>(&self, count: usize, draw: D) -> SampleIter<'_, D> {
        SampleIter {
            space: self,
            plan: self.plan(),
            draw,
            produced: 0,
            attempts: 0,
            count,
        }
    }

    /// Partitions [`iter_enumerate`]`(limit)`'s candidate stream into
    /// `n` disjoint, collectively exhaustive walks.
    ///
    /// The split runs along the *outermost* factorization dimensions:
    /// the slowest-varying counter digits form a block space (grown one
    /// dimension at a time until it holds at least `n` blocks), and
    /// shard `i` owns blocks `i, i + n, i + 2n, …` — so the union of
    /// all shards' candidates is exactly the unsharded stream, each
    /// candidate appearing in exactly one shard. `n = 1` is the
    /// unsharded stream itself: one block holding every dimension.
    ///
    /// Each shard yields `(`[`CandidateKey`]`, ChangeDepth, Mapping)`
    /// triples from [`EnumerateIter::next_delta`] whose keys are
    /// **globally comparable across shards**: sorting the union by key
    /// reproduces `iter_enumerate(limit)`'s exact sequence, and a sharded
    /// search can therefore reduce per-shard winners with the same
    /// deterministic `(objective, candidate position)` rule as the
    /// unsharded parallel search — bit-identical winners at any shard
    /// count.
    ///
    /// A finite `limit` is honored *exactly*. A single block starts at
    /// stream position 0, so its rank is its position and the limit
    /// applies to it directly. With several blocks, a census pass
    /// (the same walk over factors only, building no mapping) first
    /// counts produced candidates per block, so every shard knows which
    /// of its candidates fall inside the global first-`limit` prefix.
    /// The census costs one extra walk of at most `limit` candidates;
    /// pass `usize::MAX` to skip it when the whole space is wanted.
    ///
    /// Cost note: unlike the lazy within-block dimensions, the *block*
    /// dimensions' ordered factorization lists are materialized eagerly
    /// (block decoding needs random access across shards). The suffix
    /// only grows until it holds `n` blocks, so this is bounded by the
    /// outermost dimension(s) actually split on — constrain the
    /// outermost temporal order if an astronomically composite bound
    /// ends up there.
    ///
    /// [`iter_enumerate`]: Mapspace::iter_enumerate
    pub fn shards(&self, n: usize, limit: usize) -> Vec<EnumerateIter<'_>> {
        let n = n.max(1);
        let plan = Arc::new(self.plan());
        let walkable = plan.feasible && limit > 0;
        // grow the block space from the outermost dimension inward until
        // it offers at least n blocks (or swallows every dimension)
        let mut split = self.num_dims;
        let mut blocks: u64 = 1;
        let mut outer_rev: Vec<Vec<Vec<u64>>> = Vec::new();
        while walkable && split > 0 && blocks < n as u64 {
            split -= 1;
            let list = if plan.per_dim[split].is_empty() {
                vec![Vec::new()]
            } else {
                factorizations(self.dim_bounds[split], plan.per_dim[split].len(), None)
            };
            blocks = blocks.saturating_mul(list.len() as u64);
            outer_rev.push(list);
        }
        outer_rev.reverse(); // now ordered by dim index: split, split+1, …
        let outer_lists = Arc::new(outer_rev);
        // an infeasible space or a zero limit is the empty walk
        let blocks = if walkable { blocks } else { 0 };
        let base = (blocks > 1 && limit < usize::MAX).then(|| {
            let mut census = self.walk(&plan, split, &outer_lists, (0..blocks).collect());
            Arc::new(census.block_bases(limit))
        });
        (0..n)
            .map(|s| {
                let mut walk = self.walk(
                    &plan,
                    split,
                    &outer_lists,
                    (s as u64..blocks).step_by(n).collect(),
                );
                walk.base = base.clone();
                walk.limit = limit;
                walk
            })
            .collect()
    }

    /// A walk over `blocks` (ascending block ids) with no output limit.
    fn walk(
        &self,
        plan: &Arc<SlotPlan>,
        split: usize,
        outer_lists: &Arc<Vec<Vec<Vec<u64>>>>,
        blocks: Vec<u64>,
    ) -> EnumerateIter<'_> {
        // each inner stream holds >= 1 factorization: materialize index
        // 0 so the counter's initial state is addressable
        let inner = (0..split)
            .map(|d| {
                let mut stream =
                    FactorizationStream::new(self.dim_bounds[d], plan.per_dim[d].len());
                let first = stream.get(0);
                debug_assert!(first.is_some());
                stream
            })
            .collect();
        let num_slots = plan.slots.len();
        EnumerateIter {
            space: self,
            plan: Arc::clone(plan),
            split,
            outer_choice: blocks
                .first()
                .map_or_else(Vec::new, |&b| decode_block(b, outer_lists)),
            outer_lists: Arc::clone(outer_lists),
            blocks,
            cur_block: 0,
            base: None,
            limit: usize::MAX,
            inner,
            choice: vec![0; split],
            rank: 0,
            factors: vec![1; num_slots],
            prev_factors: vec![1; num_slots],
            have_prev: false,
        }
    }
}

/// Decodes a block id into per-suffix-dim factorization choices
/// (dimension `split` varies fastest, matching the global counter).
fn decode_block(mut id: u64, outer_lists: &[Vec<Vec<u64>>]) -> Vec<usize> {
    outer_lists
        .iter()
        .map(|list| {
            let len = list.len() as u64;
            let c = (id % len) as usize;
            id /= len;
            c
        })
        .collect()
}

/// Globally comparable position of a sharded candidate in the unsharded
/// enumeration order (see [`Mapspace::shards`]).
///
/// Sorting by `(block, rank)` reproduces [`Mapspace::iter_enumerate`]'s
/// exact output order: `block` is the mixed-radix value of the outermost
/// (slowest-varying) factorization choices and `rank` counts produced
/// candidates within the block — candidates of earlier blocks always
/// precede candidates of later blocks in the unsharded stream. Sampled
/// candidates (a hybrid search's tail) use [`CandidateKey::sampled`],
/// which orders after every enumerated candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateKey {
    /// Block id (outermost factorization choices, mixed-radix).
    pub block: u64,
    /// Produced-candidate index within the block.
    pub rank: u64,
}

impl CandidateKey {
    /// The key of the `i`-th *sampled* candidate: greater than every
    /// enumerated key, ordered by draw index — matching the unsharded
    /// hybrid stream, where the sample tail follows the enumerated
    /// prefix.
    pub fn sampled(i: u64) -> Self {
        CandidateKey {
            block: u64::MAX,
            rank: i,
        }
    }
}

/// Slot layout shared by the candidate iterators.
struct SlotPlan {
    slots: Vec<Slot>,
    /// Slot indices owned by each dimension.
    per_dim: Vec<Vec<usize>>,
    /// False when some dimension with bound > 1 has no slot.
    feasible: bool,
    /// Bypass configuration shared by every generated mapping.
    keep: Arc<Vec<Vec<bool>>>,
}

impl SlotPlan {
    /// Writes the per-slot factors for one per-dim factorization choice.
    fn assemble<'a>(&self, factors: &mut [u64], mut pick: impl FnMut(usize) -> &'a [u64]) {
        factors.fill(1);
        for (d, slots) in self.per_dim.iter().enumerate() {
            let f = pick(d);
            for (j, &slot_idx) in slots.iter().enumerate() {
                factors[slot_idx] = f.get(j).copied().unwrap_or(1);
            }
        }
    }
}

/// Lazy deterministic walk over a mapspace's factorization cross
/// product: the whole stream ([`Mapspace::iter_enumerate`]) or one shard
/// of it ([`Mapspace::shards`]).
///
/// The walk visits its blocks in ascending order. Within a block a
/// mixed-radix counter runs over the within-block dimensions' lazy
/// factorization streams (dimension 0 fastest), materializing each
/// stream only as far as the counter has reached.
pub struct EnumerateIter<'a> {
    space: &'a Mapspace,
    /// Slot layout, shared by the walks of one `shards` call.
    plan: Arc<SlotPlan>,
    /// Dim index where the block (suffix) dims begin; dims below it
    /// form the within-block counter.
    split: usize,
    /// Eager factorization lists of the block dims (shared by shards).
    outer_lists: Arc<Vec<Vec<Vec<u64>>>>,
    /// Block ids this walk owns, ascending; `cur_block` indexes the one
    /// being walked.
    blocks: Vec<u64>,
    cur_block: usize,
    /// Per-block global base from the census; `None` reads every base
    /// as 0, exact for a single block or an unlimited walk.
    base: Option<Arc<Vec<usize>>>,
    limit: usize,
    /// Lazy factorization streams of the within-block dims.
    inner: Vec<FactorizationStream>,
    /// The current block's suffix choices and within-block counter.
    outer_choice: Vec<usize>,
    choice: Vec<usize>,
    /// Produced candidates so far in the current block.
    rank: u64,
    /// Per-slot factor buffer, reused across candidates (the walk
    /// allocates nothing per candidate beyond the mapping itself).
    factors: Vec<u64>,
    /// Factors of the previously *yielded* candidate (delta baseline).
    prev_factors: Vec<u64>,
    have_prev: bool,
}

impl EnumerateIter<'_> {
    /// Whether the walk's mixed-radix counter has wrapped through every
    /// block it owns (as opposed to the stream stopping at its output
    /// `limit`). Once the unsharded stream returns `None`, this tells a
    /// hybrid mapper for free whether its enumerated prefix *covered*
    /// the space — in which case every sampled draw would duplicate an
    /// enumerated candidate and the sample tail (with its
    /// `20 × samples` draw budget) can be skipped outright.
    ///
    /// Caveat: also `true` for an infeasible space or a zero limit
    /// (nothing left to walk either way); a caller distinguishing
    /// "covered by my prefix" from "never started" must check its limit
    /// was positive.
    pub fn space_exhausted(&self) -> bool {
        self.cur_block >= self.blocks.len()
    }

    /// The next candidate with its globally comparable [`CandidateKey`]
    /// and the position where it first differs from the walk's
    /// previously yielded candidate (see [`ChangeDepth`]). The walk's
    /// first candidate reports [`ChangeDepth::Reset`] — shard seams
    /// never assume a prefix, so a sharded evaluation stays
    /// bit-identical to the unsharded one.
    pub fn next_delta(&mut self) -> Option<(CandidateKey, ChangeDepth, Mapping)> {
        loop {
            let (key, valid) = self.step()?;
            if !valid {
                continue;
            }
            let m = self.space.mapping_from_factors(&self.plan, &self.factors);
            let depth = if self.have_prev {
                change_depth(&self.plan.slots, &self.prev_factors, &self.factors)
            } else {
                ChangeDepth::Reset
            };
            std::mem::swap(&mut self.factors, &mut self.prev_factors);
            self.have_prev = true;
            return Some((key, depth, m));
        }
    }

    /// Assembles the counter's current position into `self.factors`,
    /// then advances the counter. Returns the position's key and whether
    /// it respects the fanout budgets; `None` once every owned block is
    /// walked or the next candidate would fall at or past `limit`.
    fn step(&mut self) -> Option<(CandidateKey, bool)> {
        let &block = self.blocks.get(self.cur_block)?;
        let base = self.base.as_ref().map_or(0, |b| b[block as usize]);
        if base + self.rank as usize >= self.limit {
            return None;
        }
        {
            let (inner, choice, outer_lists, outer_choice, split) = (
                &self.inner,
                &self.choice,
                &self.outer_lists,
                &self.outer_choice,
                self.split,
            );
            self.plan.assemble(&mut self.factors, |d| {
                if d < split {
                    inner[d].cached(choice[d])
                } else {
                    &outer_lists[d - split][outer_choice[d - split]]
                }
            });
        }
        let key = CandidateKey {
            block,
            rank: self.rank,
        };
        let valid = self.space.fanout_ok(&self.plan.slots, &self.factors);
        if valid {
            self.rank += 1;
        }
        if self.advance() {
            self.cur_block += 1;
            self.rank = 0;
            if let Some(&next) = self.blocks.get(self.cur_block) {
                self.outer_choice = decode_block(next, &self.outer_lists);
            }
        }
        Some((key, valid))
    }

    /// Advances the within-block counter, extending streams lazily;
    /// `true` when it wrapped back to its first position.
    fn advance(&mut self) -> bool {
        for d in 0..self.split {
            self.choice[d] += 1;
            if self.inner[d].get(self.choice[d]).is_some() {
                return false;
            }
            self.choice[d] = 0;
        }
        true
    }

    /// Each block's *base*: the number of candidates the unsharded
    /// stream produces before the block starts, clamped to `limit`
    /// (blocks entirely past the cutoff read `base == limit`). `self`
    /// must walk every block, unlimited.
    fn block_bases(&mut self, limit: usize) -> Vec<usize> {
        let blocks = self.blocks.len();
        let mut base = Vec::with_capacity(blocks);
        let mut produced = 0usize;
        while produced < limit {
            let Some((key, valid)) = self.step() else {
                break;
            };
            // every block holds at least one position, so block b's
            // first step arrives when b bases are known
            if base.len() as u64 == key.block {
                base.push(produced);
            }
            produced += usize::from(valid);
        }
        base.resize(blocks, limit);
        base
    }
}

impl Iterator for EnumerateIter<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        self.next_delta().map(|(_, _, m)| m)
    }
}

/// Lazy mapspace sampling ([`Mapspace::iter_sample`],
/// [`Mapspace::iter_sample_halton`]); the draw `D` picks each
/// dimension's factors.
pub struct SampleIter<'a, D> {
    space: &'a Mapspace,
    plan: SlotPlan,
    draw: D,
    produced: usize,
    attempts: usize,
    count: usize,
}

impl<D: draw::Draw> Iterator for SampleIter<'_, D> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        if !self.plan.feasible {
            return None;
        }
        let mut factors = vec![1u64; self.plan.slots.len()];
        while self.produced < self.count && self.attempts < self.count * 20 {
            let attempt = self.attempts;
            self.attempts += 1;
            let draws: Vec<Vec<u64>> = (0..self.space.num_dims)
                .map(|d| match self.plan.per_dim[d].len() {
                    0 => Vec::new(),
                    k => self.draw.factors(attempt, d, self.space.dim_bounds[d], k),
                })
                .collect();
            self.plan.assemble(&mut factors, |d| &draws[d]);
            if self.space.fanout_ok(&self.plan.slots, &factors) {
                self.produced += 1;
                return Some(self.space.mapping_from_factors(&self.plan, &factors));
            }
        }
        None
    }
}

/// The per-dimension draws of [`SampleIter`].
mod draw {
    use super::{radical_inverse, random_factorization};
    use rand::Rng;

    /// How a sampler draws one dimension's factors.
    pub trait Draw {
        /// An ordered factorization of `bound` into `k >= 1` factors for
        /// dimension `d` in draw number `attempt`; dimensions are drawn
        /// in order within an attempt.
        fn factors(&mut self, attempt: usize, d: usize, bound: u64, k: usize) -> Vec<u64>;
    }

    /// Independent draws from a seeded RNG.
    pub struct Uniform<R>(pub(super) R);

    impl<R: Rng> Draw for Uniform<R> {
        fn factors(&mut self, _attempt: usize, _d: usize, bound: u64, k: usize) -> Vec<u64> {
            random_factorization(bound, k, &mut self.0)
        }
    }

    /// Low-discrepancy Halton draws.
    pub struct Halton {
        /// Per dim, `(prime factor, Halton base)` for each prime factor
        /// (with multiplicity) of its bound: one distinct base per
        /// `(dim, prime)` decision.
        pub(super) dims: Vec<Vec<(u64, u64)>>,
        /// Sequence index of draw 0.
        pub(super) offset: u64,
    }

    impl Draw for Halton {
        fn factors(&mut self, attempt: usize, d: usize, _bound: u64, k: usize) -> Vec<u64> {
            let index = self.offset + attempt as u64;
            let mut f = vec![1u64; k];
            for &(p, base) in &self.dims[d] {
                // one low-discrepancy coordinate per prime-factor
                // placement: stratified slot assignment
                let h = radical_inverse(index, base);
                let pos = ((h * k as f64) as usize).min(k - 1);
                f[pos] *= p;
            }
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};

    fn arch() -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap()
    }

    #[test]
    fn factorization_counts() {
        assert_eq!(factorizations(1, 3, None), vec![vec![1, 1, 1]]);
        assert_eq!(factorizations(6, 2, None).len(), 4); // 1*6, 2*3, 3*2, 6*1
        assert_eq!(factorizations(8, 3, None).len(), 10);
    }

    #[test]
    fn factorization_products_correct() {
        for f in factorizations(24, 3, None) {
            assert_eq!(f.iter().product::<u64>(), 24);
        }
    }

    #[test]
    fn factorization_limit_respected() {
        assert_eq!(factorizations(64, 4, Some(5)).len(), 5);
    }

    #[test]
    fn random_factorization_products() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let f = random_factorization(36, 3, &mut rng);
            assert_eq!(f.iter().product::<u64>(), 36);
        }
    }

    #[test]
    fn enumerate_produces_valid_mappings() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let maps = space.enumerate(200);
        assert!(!maps.is_empty());
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn spatial_budget_enforced() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch(); // fanout below Buf is 4
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        let maps = space.enumerate(5000);
        for m in &maps {
            assert!(m.spatial_fanout_at(1) <= 4);
            m.validate(&e, &a).unwrap();
        }
        // some mapping should actually use the parallelism
        assert!(maps.iter().any(|m| m.spatial_fanout_at(1) == 4));
    }

    #[test]
    fn space_exhausted_distinguishes_cover_from_cap() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        // with and without spatial constraints (fanout-invalid combos
        // past the last valid candidate must still count as exhaustion)
        for space in [
            Mapspace::all_temporal(&e, &a),
            Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]),
        ] {
            let total = space.iter_enumerate(usize::MAX).count();
            for (cap, covered) in [
                (total - 1, false), // stopped by the cap
                (total, true),      // cap == space: counter wrapped
                (total + 1, true),
                (usize::MAX, true),
            ] {
                let mut it = space.iter_enumerate(cap);
                while it.next_delta().is_some() {}
                assert_eq!(it.space_exhausted(), covered, "cap {cap} of {total}");
            }
        }
        // infeasible space (dim with bound > 1, no slots): exhausted
        // from the start, nothing to enumerate or sample
        let empty = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        let mut it = empty.iter_enumerate(usize::MAX);
        assert!(it.next_delta().is_none());
        assert!(it.space_exhausted());
    }

    #[test]
    fn accessors_expose_constraint_state() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![DimId(2), DimId(0)])
            .with_spatial_dims(1, vec![DimId(1)])
            .with_bypass(1, TensorId(2));
        assert_eq!(space.temporal_order()[0], vec![DimId(2), DimId(0)]);
        assert_eq!(space.temporal_order()[1].len(), 3);
        assert_eq!(space.spatial_dims()[0], Vec::<DimId>::new());
        assert_eq!(space.spatial_dims()[1], vec![DimId(1)]);
        assert_eq!(space.bypasses(), vec![(1, TensorId(2))]);
    }

    #[test]
    fn bypass_propagates_to_mappings() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_bypass(1, TensorId(1));
        let maps = space.enumerate(10);
        assert!(!maps.is_empty());
        for m in &maps {
            assert!(!m.keeps(1, TensorId(1)));
            assert!(m.keeps(1, TensorId(0)));
        }
    }

    #[test]
    fn sampling_yields_valid_mappings() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let maps = space.sample(50, &mut rng);
        assert_eq!(maps.len(), 50);
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn iter_enumerate_matches_collected_enumerate() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        for limit in [1, 7, 100, 5000] {
            let streamed: Vec<_> = space.iter_enumerate(limit).collect();
            assert_eq!(streamed, space.enumerate(limit), "limit={limit}");
        }
    }

    #[test]
    fn iter_enumerate_is_lazy_and_resumable() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let all = space.enumerate(1000);
        // taking a prefix then continuing yields the same stream
        let mut it = space.iter_enumerate(1000);
        let head: Vec<_> = it.by_ref().take(5).collect();
        let tail: Vec<_> = it.collect();
        assert_eq!(head, all[..5].to_vec());
        assert_eq!(tail, all[5..].to_vec());
    }

    #[test]
    fn iter_sample_matches_collected_sample() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let collected = space.sample(40, &mut StdRng::seed_from_u64(11));
        let streamed: Vec<_> = space.iter_sample(40, StdRng::seed_from_u64(11)).collect();
        assert_eq!(streamed, collected);
    }

    #[test]
    fn enumeration_limit_does_not_truncate_dimension_tails() {
        // m=64 owns two slots: an outer temporal and an inner spatial
        // bounded by fanout 4. The lexicographic factorization list
        // [1,64], [2,32], ... puts the only fanout-respecting splits at
        // the tail ([16,4], [32,2], [64,1]); the seed's per-dimension cap
        // of `limit` truncated the list to its invalid head, so a small
        // limit produced nothing at all.
        let e = Einsum::matmul(64, 1, 1);
        let a = arch(); // fanout below Buf is 4
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![DimId(0)])
            .with_temporal_order(1, vec![])
            .with_spatial_dims(1, vec![DimId(0)]);
        let maps = space.enumerate(3);
        assert_eq!(maps.len(), 3, "tail factorizations must be reachable");
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn factorization_stream_matches_eager_list() {
        for (n, k) in [(1, 1), (1, 3), (6, 2), (8, 3), (24, 3), (64, 4), (97, 2)] {
            let eager = factorizations(n, k, None);
            let mut stream = FactorizationStream::new(n, k);
            let mut lazy = Vec::new();
            let mut i = 0;
            while let Some(f) = stream.get(i) {
                lazy.push(f.to_vec());
                i += 1;
            }
            assert_eq!(lazy, eager, "n={n} k={k}");
            // exhausted stream stays exhausted and random access works
            assert!(stream.get(i).is_none());
            assert_eq!(stream.get(0).unwrap(), eager[0].as_slice());
        }
    }

    #[test]
    fn factorization_stream_unit_radix() {
        let mut s = FactorizationStream::new(7, 0);
        assert_eq!(s.get(0).unwrap(), &[] as &[u64]);
        assert!(s.get(1).is_none());
    }

    #[test]
    fn enumeration_materializes_factorizations_lazily() {
        // m=64 in a single temporal slot per level: 64 has many ordered
        // 2-factorizations, but drawing one candidate must not build the
        // whole list
        let e = Einsum::matmul(64, 1, 1);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let mut it = space.iter_enumerate(usize::MAX);
        let first = it.next();
        assert!(first.is_some());
        let eager = factorizations(64, 2, None).len();
        assert!(
            it.inner[0].materialized() <= 2,
            "one candidate materialized {} of {} factorizations",
            it.inner[0].materialized(),
            eager
        );
    }

    #[test]
    fn shards_partition_the_enumeration_exactly() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        for limit in [1, 7, 100, 5000, usize::MAX] {
            let reference: Vec<Mapping> = space.iter_enumerate(limit.min(1_000_000)).collect();
            for n in [1, 2, 3, 7] {
                let mut tagged: Vec<(CandidateKey, Mapping)> = Vec::new();
                for mut shard in space.shards(n, limit) {
                    tagged
                        .extend(std::iter::from_fn(|| shard.next_delta()).map(|(k, _, m)| (k, m)));
                }
                // keys are unique (disjointness)
                let mut keys: Vec<CandidateKey> = tagged.iter().map(|(k, _)| *k).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), tagged.len(), "n={n} limit={limit}");
                // sorting by key reproduces the unsharded stream exactly
                tagged.sort_by_key(|(k, _)| *k);
                let merged: Vec<Mapping> = tagged.into_iter().map(|(_, m)| m).collect();
                assert_eq!(merged, reference, "n={n} limit={limit}");
            }
        }
    }

    #[test]
    fn shards_of_infeasible_space_are_empty() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        for shard in space.shards(3, 100) {
            assert!(shard.space_exhausted());
            assert_eq!(shard.count(), 0);
        }
        // a zero limit is the empty walk too
        let feasible = Mapspace::all_temporal(&e, &a);
        for shard in feasible.shards(3, 0) {
            assert!(shard.space_exhausted());
            assert_eq!(shard.count(), 0);
        }
    }

    #[test]
    fn unsharded_stream_is_the_one_block_walk() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        for limit in [1, 7, 100, usize::MAX] {
            let mut it = space.iter_enumerate(limit);
            // one block at position 0: no census, keys are positions
            assert!(it.base.is_none() && it.blocks == [0]);
            let mut i = 0;
            while let Some((key, _, _)) = it.next_delta() {
                assert_eq!(key, CandidateKey { block: 0, rank: i });
                i += 1;
            }
            assert_eq!(i as usize, space.enumerate(limit).len());
        }
        // several blocks with a finite limit take the census
        assert!(space.shards(2, 7).iter().all(|s| s.base.is_some()));
    }

    #[test]
    fn sampled_candidate_keys_order_after_enumerated_keys() {
        let enumerated = CandidateKey {
            block: u64::MAX - 1,
            rank: u64::MAX,
        };
        assert!(CandidateKey::sampled(0) > enumerated);
        assert!(CandidateKey::sampled(0) < CandidateKey::sampled(1));
    }

    #[test]
    fn halton_samples_are_valid_and_deterministic() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let first: Vec<Mapping> = space.iter_sample_halton(50, 9).collect();
        let second: Vec<Mapping> = space.iter_sample_halton(50, 9).collect();
        assert_eq!(first, second, "halton draws must be reproducible");
        assert!(!first.is_empty());
        for m in &first {
            m.validate(&e, &a).unwrap();
        }
        // a different seed shifts the sequence
        let other: Vec<Mapping> = space.iter_sample_halton(50, 10).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn halton_covers_more_distinct_candidates_than_uniform() {
        // the low-discrepancy point is even coverage: over the same draw
        // budget the Halton tail should reach at least as many distinct
        // factorizations as independent uniform draws
        let e = Einsum::matmul(36, 36, 36);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let halton: std::collections::HashSet<Mapping> = space.iter_sample_halton(200, 3).collect();
        let uniform: std::collections::HashSet<Mapping> =
            space.iter_sample(200, StdRng::seed_from_u64(3)).collect();
        assert!(
            halton.len() + 10 >= uniform.len(),
            "halton {} vs uniform {}",
            halton.len(),
            uniform.len()
        );
    }

    #[test]
    fn infeasible_space_yields_nothing() {
        // no slots for any dim but nonunit bounds -> empty space
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        assert_eq!(space.iter_enumerate(10).count(), 0);
        assert_eq!(space.iter_sample(10, StdRng::seed_from_u64(0)).count(), 0);
        assert_eq!(space.iter_sample_halton(10, 0).count(), 0);
    }

    #[test]
    fn restricted_order_respected() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        // only k may tile at the buffer level
        let space = Mapspace::all_temporal(&e, &a).with_temporal_order(1, vec![DimId(2)]);
        for m in space.enumerate(500) {
            for lp in &m.nests()[1] {
                assert_eq!(lp.dim, DimId(2));
            }
        }
    }
}
