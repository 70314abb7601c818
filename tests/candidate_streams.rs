//! Golden hashes of every registered search job's candidate streams.
//!
//! For each search job of the 21 registered scenarios this test hashes
//! (FNV-1a over the `wire` encodings of mappings, keys and stats):
//!
//! * `stream` — `Mapper::delta_candidates`, change depths included;
//! * `walks` — every walker of `Mapspace::shards(n, limit)` for
//!   n ∈ {1, 2, 3}, keys and change depths included;
//! * `shards` — each of 3 shards' winner and `SearchStats` from
//!   `search_shard_counted` under an integer-valued closure evaluator,
//!   which covers shard 0's sample tail;
//! * `halton` — the same job's mapper with a Halton sample tail
//!   (stream and per-shard results), since no registered scenario
//!   draws Halton samples itself;
//! * `random` — the stream of `Mapper::Random` with the job's sample
//!   count and seed.
//!
//! Everything hashed is integer data (the evaluator's objectives are
//! small whole numbers), so the table holds on every platform. A
//! mismatch prints the recomputed column. Each column is its own test,
//! so they run in parallel.

use sparseloop_designs::{MappingPolicy, ScenarioRegistry};
use sparseloop_mapping::wire::{encode_key, encode_mapping, encode_stats, WireWriter};
use sparseloop_mapping::{ChangeDepth, Mapper, Mapping, Mapspace, SampleStrategy};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn wire(&mut self, fill: impl FnOnce(&mut WireWriter)) {
        let mut w = WireWriter::new();
        fill(&mut w);
        self.bytes(&w.into_bytes());
    }
}

fn put_depth(w: &mut WireWriter, depth: ChangeDepth) {
    match depth {
        ChangeDepth::Reset => w.put_u8(0),
        ChangeDepth::At { level, loop_pos } => {
            w.put_u8(1);
            w.put_usize(level);
            w.put_usize(loop_pos);
        }
    }
}

/// A deterministic objective with whole-number values and some invalid
/// candidates, so ties (broken by candidate key) and the invalid
/// counter both occur.
fn objective(m: &Mapping) -> Option<f64> {
    let mut h = 0u64;
    for (level, nest) in m.nests().iter().enumerate() {
        for (pos, l) in nest.iter().enumerate() {
            h = h
                .wrapping_mul(31)
                .wrapping_add((level * 7 + pos) as u64 * l.bound + l.dim.0 as u64);
        }
    }
    (!h.is_multiple_of(7)).then_some((h % 97) as f64)
}

fn hash_stream(h: &mut Fnv, mapper: &Mapper, space: &Mapspace) {
    for (depth, m) in mapper.delta_candidates(space) {
        h.wire(|w| {
            put_depth(w, depth);
            encode_mapping(w, &m);
        });
    }
}

fn hash_walks(h: &mut Fnv, space: &Mapspace, limit: usize) {
    for n in 1..=3 {
        for (s, mut shard) in space.shards(n, limit).into_iter().enumerate() {
            h.wire(|w| {
                w.put_usize(n);
                w.put_usize(s);
            });
            while let Some((key, depth, m)) = shard.next_delta() {
                h.wire(|w| {
                    encode_key(w, &key);
                    put_depth(w, depth);
                    encode_mapping(w, &m);
                });
            }
        }
    }
}

fn hash_shard_results(h: &mut Fnv, mapper: &Mapper, space: &Mapspace) {
    for s in 0..SHARDS {
        let (winner, stats) = mapper.search_shard_counted(space, &objective, s, SHARDS);
        h.wire(|w| {
            encode_stats(w, &stats);
            if let Some((v, key, m)) = &winner {
                w.put_f64_bits(*v);
                encode_key(w, key);
                encode_mapping(w, m);
            }
        });
    }
}

/// The enumeration limit of a mapper's deterministic prefix.
fn enumeration_limit(mapper: &Mapper) -> Option<usize> {
    match *mapper {
        Mapper::Exhaustive { limit } => Some(limit),
        Mapper::Hybrid { enumerate, .. } => Some(enumerate),
        Mapper::Random { .. } => None,
    }
}

fn random(mapper: &Mapper) -> Option<Mapper> {
    match *mapper {
        Mapper::Hybrid { samples, seed, .. } => Some(Mapper::Random { samples, seed }),
        _ => None,
    }
}

fn halton(mapper: &Mapper) -> Option<Mapper> {
    match *mapper {
        Mapper::Hybrid {
            enumerate,
            samples,
            seed,
            ..
        } => Some(Mapper::Hybrid {
            enumerate,
            samples,
            seed,
            sampling: SampleStrategy::Halton,
        }),
        _ => None,
    }
}

/// Shard count of the `shards` and `halton` columns (the walks cover
/// 1, 2 and 3).
const SHARDS: usize = 3;

/// Every registered search job as `(scenario, space, mapper)`.
fn search_jobs() -> Vec<(String, Mapspace, Mapper)> {
    let registry = ScenarioRegistry::standard();
    let mut jobs = Vec::new();
    for scenario in registry.scenarios() {
        for exp in scenario.experiments() {
            if let MappingPolicy::Search { space, mapper, .. } = exp.policy {
                jobs.push((scenario.name().to_string(), space, mapper));
            }
        }
    }
    jobs
}

/// One column of the golden table: per scenario with search jobs, the
/// hash of `hash_job` over its jobs in registry order.
fn column(hash_job: impl Fn(&mut Fnv, &Mapspace, &Mapper)) -> Vec<(String, u64)> {
    let mut out: Vec<(String, Fnv)> = Vec::new();
    for (scenario, space, mapper) in search_jobs() {
        if out.last().is_none_or(|(name, _)| *name != scenario) {
            out.push((scenario, Fnv::new()));
        }
        hash_job(
            &mut out.last_mut().expect("pushed above").1,
            &space,
            &mapper,
        );
    }
    out.into_iter().map(|(name, h)| (name, h.0)).collect()
}

/// `(scenario, stream, walks, shards, halton, random)`.
type Row = (&'static str, u64, u64, u64, u64, u64);

/// The table, recorded at a commit whose candidate streams are the
/// reference.
const GOLDEN: &[Row] = &[
    (
        "fig11_scnn_validation",
        0xd4f0dede33fb1c24,
        0x9c18b784421d98b2,
        0xc67d8b71c294825a,
        0x75bb9ffb176c9b52,
        0x25e861f0d57b7073,
    ),
    (
        "fig12_eyerissv2_validation",
        0x195e4c44a77301ee,
        0x6090b9e6dd246c6c,
        0x2ea185b47aa65aa2,
        0x767705dab7c3156f,
        0xf58166b30ace8919,
    ),
    (
        "table5_eyeriss_resnet50",
        0x2fd19681632b6e89,
        0x326e234052a94414,
        0x455a9909ef34da2e,
        0xfac2d4317ed804d9,
        0x398d73931912aebc,
    ),
    (
        "table5_eyeriss_bert",
        0x6f13ddebd644cbce,
        0x49dc8225084d33d9,
        0xe0c77c3f59350af5,
        0xcb1e234b6a677762,
        0xc697a30adfbfdf0a,
    ),
    (
        "table5_eyeriss_vgg16",
        0x244da76528cf857e,
        0x00de25f207f7e2bf,
        0xb66b32ddcd1945a3,
        0x5201d0567f70e815,
        0x6d31120c055be55a,
    ),
    (
        "table5_eyeriss_alexnet",
        0x4c3381912eb6fa80,
        0xc82cd6ccf7e9bd33,
        0xe76edb1b50466b46,
        0x29fde30b591f98a7,
        0xf108601ce3016c02,
    ),
    (
        "table5_eyerissv2pe_resnet50",
        0xadbec1868f95d17d,
        0xed079f94ad31fa1a,
        0x2767e7168f772ce1,
        0x8d6086435acc08e2,
        0xc0188f7058252f24,
    ),
    (
        "table5_eyerissv2pe_bert",
        0x6f13ddebd644cbce,
        0x49dc8225084d33d9,
        0xe0c77c3f59350af5,
        0xcb1e234b6a677762,
        0xc697a30adfbfdf0a,
    ),
    (
        "table5_eyerissv2pe_vgg16",
        0x5b6234234e7b0b3a,
        0x6f08f2cd4b9ac10c,
        0x8a87a60c4927d101,
        0xc816c6ab4aaf1200,
        0x2aea7eea1cf96c30,
    ),
    (
        "table5_eyerissv2pe_alexnet",
        0xcf7238f828fb8bca,
        0xa6f529a0d8a6522a,
        0xdbbda9a55eb3ab82,
        0x74f86602bbbb4923,
        0xcc6bff580d5fdd84,
    ),
    (
        "table5_scnn_resnet50",
        0x6bc33d7fee593daa,
        0xc3e4767b9766e0d5,
        0xe7a89f59fd093296,
        0xd0343e4570d31cdd,
        0x26a95e1054cdeac2,
    ),
    (
        "table5_scnn_bert",
        0x6f13ddebd644cbce,
        0x49dc8225084d33d9,
        0xe0c77c3f59350af5,
        0xcb1e234b6a677762,
        0xc697a30adfbfdf0a,
    ),
    (
        "table5_scnn_vgg16",
        0xbf56e1a9f1c25573,
        0x2c2bba161efe3d00,
        0xe21495f74af2e961,
        0xc98e93c581178b3f,
        0xf47c76e8c1e21844,
    ),
    (
        "table5_scnn_alexnet",
        0xaf6e54d02163cd35,
        0x866a6358c6b7fe42,
        0x42b94a1945b7e4dc,
        0x2c687e53d015d972,
        0xc4d8bfa7a41ea786,
    ),
    (
        "table5_refsim_baseline",
        0x6858ec1d6a08a6c3,
        0xd5d6bb3422789d1c,
        0xe70cb043432e4a3b,
        0x83e89b3b0433b110,
        0x1f4b6ae25cac769a,
    ),
    (
        "table6_validation_summary",
        0x50bdd3a073cbad3e,
        0xd80a414b4ddb2074,
        0xb36674422ddb5cd6,
        0x30189c8c76985090,
        0x6af2467e30333c8f,
    ),
    (
        "table7_eyeriss_rlc",
        0xaa079428724a427d,
        0x89908416ca1ff97d,
        0x271def9fc00bc8dc,
        0xdf73ba0560a6f384,
        0xebd3aff10f27c959,
    ),
];

fn check(label: &str, pick: fn(&Row) -> u64, got: Vec<(String, u64)>) {
    let want: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|row| (row.0.to_string(), pick(row)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    assert!(got == want, "{label} hashes changed; recomputed:\n{table}");
}

#[test]
fn delta_stream_matches_the_golden_table() {
    check(
        "stream",
        |row| row.1,
        column(|h, space, mapper| hash_stream(h, mapper, space)),
    );
}

#[test]
fn shard_walks_match_the_golden_table() {
    check(
        "walks",
        |row| row.2,
        column(|h, space, mapper| {
            if let Some(limit) = enumeration_limit(mapper) {
                hash_walks(h, space, limit);
            }
        }),
    );
}

#[test]
fn shard_results_match_the_golden_table() {
    check(
        "shards",
        |row| row.3,
        column(|h, space, mapper| hash_shard_results(h, mapper, space)),
    );
}

#[test]
fn halton_hybrid_matches_the_golden_table() {
    check(
        "halton",
        |row| row.4,
        column(|h, space, mapper| {
            if let Some(variant) = halton(mapper) {
                hash_stream(h, &variant, space);
                hash_shard_results(h, &variant, space);
            }
        }),
    );
}

#[test]
fn random_stream_matches_the_golden_table() {
    check(
        "random",
        |row| row.5,
        column(|h, space, mapper| {
            if let Some(variant) = random(mapper) {
                hash_stream(h, &variant, space);
            }
        }),
    );
}
