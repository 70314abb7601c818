//! Shared plumbing for design definitions.

use sparseloop_arch::Architecture;
use sparseloop_core::{Model, SafSpec, Workload};
use sparseloop_mapping::{Exec, Mapper, Mapping, Mapspace};
use sparseloop_tensor::einsum::{DimId, Einsum, TensorId};
use sparseloop_workloads::Layer;

/// The default search strategy of [`DesignPoint::search`] and the
/// scenario registry's search experiments: a hybrid that enumerates a
/// deterministic prefix and tops it up with deduplicated random samples.
pub const DEFAULT_MAPPER: Mapper = Mapper::Hybrid {
    enumerate: 256,
    samples: 128,
    seed: 0xD0E5,
    // uniform draws keep every registered scenario's recorded results
    // stable; opt into SampleStrategy::Halton for better coverage per
    // sample on new experiments
    sampling: sparseloop_mapping::SampleStrategy::Uniform,
};

/// A fully-bound design point: architecture + SAFs for a specific
/// workload, ready to evaluate.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Design name (e.g. `"STC-flexible-rle"`).
    pub name: String,
    /// The architecture.
    pub arch: Architecture,
    /// SAFs bound to the workload's tensor ids.
    pub safs: SafSpec,
}

impl DesignPoint {
    /// Builds the Sparseloop model for a workload layer.
    pub fn model(&self, layer: &Layer) -> Model {
        let workload = Workload::new(layer.einsum.clone(), layer.densities.clone());
        Model::new(workload, self.arch.clone(), self.safs.clone())
    }

    /// Evaluates the layer with a fixed mapping.
    pub fn evaluate(
        &self,
        layer: &Layer,
        mapping: &Mapping,
    ) -> Result<sparseloop_core::Evaluation, sparseloop_core::EvalError> {
        self.model(layer).evaluate(mapping)
    }

    /// Searches the default constrained mapspace for the best mapping by
    /// EDP. Returns `None` when nothing in the space is valid.
    pub fn search(
        &self,
        layer: &Layer,
        space: &Mapspace,
    ) -> Option<(Mapping, sparseloop_core::Evaluation)> {
        self.model(layer)
            .search(
                space,
                DEFAULT_MAPPER,
                sparseloop_core::Objective::Edp,
                Exec::Threads(Some(1)),
            )
            .0
    }
}

/// Tensor ids `(A, B, Z)` of a matmul workload.
///
/// # Panics
/// Panics if the Einsum is not a matmul-shaped workload.
pub fn matmul_ids(e: &Einsum) -> (TensorId, TensorId, TensorId) {
    (
        e.tensor_id("A").expect("matmul A"),
        e.tensor_id("B").expect("matmul B"),
        e.tensor_id("Z").expect("matmul Z"),
    )
}

/// Tensor ids `(Weights, Inputs, Outputs)` of a conv workload.
///
/// # Panics
/// Panics if the Einsum is not a conv-shaped workload.
pub fn conv_ids(e: &Einsum) -> (TensorId, TensorId, TensorId) {
    (
        e.tensor_id("Weights").expect("conv Weights"),
        e.tensor_id("Inputs").expect("conv Inputs"),
        e.tensor_id("Outputs").expect("conv Outputs"),
    )
}

/// Largest divisor of `n` that is `<= cap`.
pub fn divisor_at_most(n: u64, cap: u64) -> u64 {
    (1..=cap.min(n))
        .rev()
        .find(|d| n.is_multiple_of(*d))
        .unwrap_or(1)
}

/// A canonical two-level matmul mapping (output-stationary inner loop):
///
/// ```text
/// [outer]  for m in 0..M/Tm
/// [inner]  parallel-for n in 0..S
///          for n0 in 0..N/S
///          for m0 in 0..Tm
///          for k  in 0..K
/// ```
///
/// `tm` controls how much of `m` stays inner (B reuse across `m0`).
pub fn matmul_mapping_2level(e: &Einsum, spatial_n: u64, tm: u64) -> Mapping {
    let (m, n, k) = (DimId(0), DimId(1), DimId(2));
    let (mb, nb, kb) = (e.bound(m), e.bound(n), e.bound(k));
    let s = divisor_at_most(nb, spatial_n);
    let tm = divisor_at_most(mb, tm);
    let mut b = sparseloop_mapping::MappingBuilder::new(2, e.tensors().len());
    if mb / tm > 1 {
        b = b.temporal(0, m, mb / tm);
    }
    if s > 1 {
        b = b.spatial(1, n, s);
    }
    if nb / s > 1 {
        b = b.temporal(1, n, nb / s);
    }
    if tm > 1 {
        b = b.temporal(1, m, tm);
    }
    b = b.temporal(1, k, kb);
    b.build()
}

/// A canonical three-level matmul mapping (DRAM / SMEM / RF):
///
/// ```text
/// [DRAM] for k1 (outer-product position when k_outer=true)
///        for m1
/// [SMEM] for n1
///        parallel-for n in 0..S
/// [RF]   for k0
///        for m0, n0
/// ```
pub fn matmul_mapping_3level(
    e: &Einsum,
    spatial: u64,
    tile_m: u64,
    tile_n: u64,
    tile_k: u64,
    k_outer: bool,
) -> Mapping {
    let (m, n, k) = (DimId(0), DimId(1), DimId(2));
    let (mb, nb, kb) = (e.bound(m), e.bound(n), e.bound(k));
    let tm = divisor_at_most(mb, tile_m);
    let tn = divisor_at_most(nb, tile_n);
    let tk = divisor_at_most(kb, tile_k);
    let s = divisor_at_most(tn, spatial);
    let mut b = sparseloop_mapping::MappingBuilder::new(3, e.tensors().len());
    if k_outer && kb / tk > 1 {
        b = b.temporal(0, k, kb / tk);
    }
    if mb / tm > 1 {
        b = b.temporal(0, m, mb / tm);
    }
    if nb / tn > 1 {
        b = b.temporal(0, n, nb / tn);
    }
    if !k_outer && kb / tk > 1 {
        b = b.temporal(1, k, kb / tk);
    }
    if s > 1 {
        b = b.spatial(1, n, s);
    }
    if tn / s > 1 {
        b = b.temporal(1, n, tn / s);
    }
    if tm > 1 {
        b = b.temporal(2, m, tm);
    }
    b = b.temporal(2, k, tk);
    b.build()
}

/// A constrained conv mapspace: output/channel dims tile at every level,
/// filter dims stay innermost, output channels may go spatial below the
/// given level.
pub fn conv_mapspace(e: &Einsum, arch: &Architecture, spatial_level: usize) -> Mapspace {
    let dims: Vec<DimId> = (0..e.dims().len()).map(DimId).collect();
    let mut space = Mapspace::all_temporal(e, arch);
    // output channels (m) and input channels (c) are the natural spatial
    // candidates in conv accelerators
    let spatial: Vec<DimId> = [e.dim_id("m"), e.dim_id("c")]
        .into_iter()
        .flatten()
        .collect();
    if !spatial.is_empty() {
        space = space.with_spatial_dims(spatial_level, spatial);
    }
    let _ = dims;
    space
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_workloads::spmspm;

    #[test]
    fn divisor_selection() {
        assert_eq!(divisor_at_most(16, 5), 4);
        assert_eq!(divisor_at_most(12, 6), 6);
        assert_eq!(divisor_at_most(7, 4), 1);
        assert_eq!(divisor_at_most(7, 7), 7);
    }

    #[test]
    fn two_level_mapping_valid() {
        let l = spmspm(16, 16, 16, 0.5, 0.5);
        let arch = crate::fig1::bitmask_design(&l.einsum).arch;
        let m = matmul_mapping_2level(&l.einsum, 16, 4);
        m.validate(&l.einsum, &arch).unwrap();
    }

    #[test]
    fn three_level_mapping_valid() {
        let l = spmspm(32, 32, 32, 0.5, 0.5);
        let dp = crate::dstc::design(&l.einsum);
        let m = matmul_mapping_3level(&l.einsum, 16, 8, 16, 8, true);
        m.validate(&l.einsum, &dp.arch).unwrap();
    }
}
