//! # sparseloop-mapping
//!
//! Mappings, mapspaces, and the mapper (Sparseloop §5.1, Fig. 6/10).
//!
//! A *mapping* is an exact schedule: per storage level, an ordered list of
//! `for` (temporal) and `parallel-for` (spatial) loops, plus per-level
//! bypass choices saying which tensors each level actually stores. The
//! dataflow-modeling step consumes the mapping to derive dense traffic;
//! the gating/skipping analyzer consumes it to identify leader/follower
//! tiles (mapping-dependent intersection behavior, Fig. 10).
//!
//! A *mapspace* is the set of mappings compatible with user constraints
//! (allowed loop orders, dims eligible for spatial distribution). The
//! [`mapper`] searches a mapspace — exhaustively for small spaces, by
//! seeded random sampling for large ones — ranking candidates with a
//! caller-supplied objective (the paper searches for best energy-delay
//! product or latency given the analytical model).

pub mod loops;
pub mod mapper;
pub mod mapspace;
pub mod wire;

pub use loops::{Loop, LoopKind, Mapping, MappingBuilder, MappingError};
pub use mapper::{
    merge_shard_results, CandidateEvaluator, Exec, Mapper, SampleStrategy, SearchResult,
    SearchStats, ShardWinner, WorkerEvaluator,
};
pub use mapspace::{
    factorizations, CandidateKey, ChangeDepth, EnumerateIter, HaltonSampleIter, Mapspace,
    MapspaceShard, SampleIter,
};
pub use wire::{WireError, WireReader, WireWriter};
