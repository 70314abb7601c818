//! The inputs of each workload. Why each corpus was chosen is recorded
//! in `perfbench/NOTES.md`.

use sparseloop_designs::{Scenario, ScenarioRegistry};

/// The Table 5 modeling-speed scenarios of the standard registry.
pub const TABLE5: [&str; 13] = [
    "table5_eyeriss_alexnet",
    "table5_eyeriss_vgg16",
    "table5_eyeriss_resnet50",
    "table5_eyeriss_bert",
    "table5_eyerissv2pe_alexnet",
    "table5_eyerissv2pe_vgg16",
    "table5_eyerissv2pe_resnet50",
    "table5_eyerissv2pe_bert",
    "table5_scnn_alexnet",
    "table5_scnn_vgg16",
    "table5_scnn_resnet50",
    "table5_scnn_bert",
    "table5_refsim_baseline",
];

/// Every other scenario of the standard registry: the validation and
/// case-study experiments.
pub const VALIDATION: [&str; 8] = [
    "fig1_format_tradeoff",
    "fig11_scnn_validation",
    "fig12_eyerissv2_validation",
    "fig13_dstc_validation",
    "fig15_stc_case_study",
    "fig17_codesign_study",
    "table6_validation_summary",
    "table7_eyeriss_rlc",
];

/// Directory of the spec corpus, relative to the checkout root; one
/// file per registry scenario, named after it.
pub const SPEC_DIR: &str = "examples/specs";

/// Looks the named scenarios up in `registry`, in order.
///
/// # Errors
/// Names the first scenario the registry lacks.
pub fn scenarios<'r>(
    registry: &'r ScenarioRegistry,
    names: &[&str],
) -> Result<Vec<&'r Scenario>, String> {
    names
        .iter()
        .map(|n| {
            registry
                .get(n)
                .ok_or_else(|| format!("scenario {n:?} is not registered"))
        })
        .collect()
}

/// The text of every spec file of the corpus (`SPEC_DIR/<name>.yaml`
/// for each name of [`TABLE5`] and [`VALIDATION`]), with its name.
///
/// # Errors
/// Names the first file that cannot be read.
pub fn read_specs() -> Result<Vec<(String, String)>, String> {
    TABLE5
        .iter()
        .chain(VALIDATION.iter())
        .map(|name| {
            let path = format!("{SPEC_DIR}/{name}.yaml");
            std::fs::read_to_string(&path)
                .map(|text| (name.to_string(), text))
                .map_err(|e| format!("cannot read {path}: {e}"))
        })
        .collect()
}

/// SplitMix64: a small, fixed pseudo-random sequence, so the order a
/// seed makes never depends on a library's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `0..n` in the order pass `pass` of a run with `seed` visits it.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_permutation() {
        let mut order = pass_order(21, 3, 5);
        assert_ne!(order, (0..21).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..21).collect::<Vec<_>>());
    }

    #[test]
    fn corpus_names_are_registered() {
        let registry = ScenarioRegistry::standard();
        assert!(scenarios(&registry, &TABLE5).is_ok());
        assert!(scenarios(&registry, &VALIDATION).is_ok());
        assert_eq!(registry.names().len(), TABLE5.len() + VALIDATION.len());
    }
}
