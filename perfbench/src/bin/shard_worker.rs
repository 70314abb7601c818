//! The shard-worker executable the fleet workload spawns: the same
//! `worker_main` as the workspace's `sparseloop-shard-worker`, built
//! beside the benchmark binaries.

fn main() {
    sparseloop_serve::worker_main();
}
