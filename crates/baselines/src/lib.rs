//! # serenade-baselines — comparison recommenders for the Serenade experiments
//!
//! Every algorithm the paper compares against, implemented from scratch:
//!
//! * [`vsknn`] — the scan-based **VS-kNN** baseline of the index-design
//!   microbenchmark (Figure 3a, bottom): holds the historical data in hash
//!   maps and first materialises the `m` most recent matching sessions
//!   before computing similarities. Produces *identical* neighbourhoods to
//!   VMIS-kNN (the test suite verifies this), just slower.
//! * [`vmis_noopt`] — **VMIS-kNN-no-opt**: the index-based algorithm with
//!   early stopping off. The paper's no-opt variant also swaps octonary for
//!   binary heaps; the kernel's heap has one fixed arity here (DESIGN.md
//!   §3).
//! * [`itemknn`] — item-to-item collaborative filtering, the **legacy**
//!   production system of the A/B test (Section 5.2.3).
//! * [`popularity`] — the popularity baseline.
//! * [`seqrules`] — sequential rules, a strong lightweight sequence baseline
//!   from the session-rec literature.
//! * [`analogues`] — Rust behavioural analogues of the alternative
//!   implementations in Figure 3a (top): the pandas-style scan (VS-Py), the
//!   allocation-heavy variant (VMIS-Java), the join-materialising variant
//!   (VMIS-SQL) and the incremental variant (VMIS-Diff). See DESIGN.md for
//!   the substitution rationale.

#![warn(missing_docs)]

pub mod analogues;
pub mod common;
pub mod itemknn;
pub mod popularity;
pub mod seqrules;
pub mod vsknn;

pub use itemknn::ItemKnn;
pub use popularity::Popularity;
pub use seqrules::SequentialRules;
pub use vsknn::VsKnnBaseline;

use serenade_core::{CoreError, SessionIndex, VmisConfig, VmisKnn};
use std::sync::Arc;

/// Constructs **VMIS-kNN-no-opt**: the same index-based algorithm with
/// early stopping disabled (Section 5.1.3, less its binary heaps).
pub fn vmis_noopt(
    index: impl Into<Arc<SessionIndex>>,
    config: VmisConfig,
) -> Result<VmisKnn, CoreError> {
    VmisKnn::new(index, VmisConfig { early_stopping: false, ..config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::Click;

    #[test]
    fn vmis_noopt_disables_optimisations() {
        let clicks = vec![Click::new(1, 1, 1), Click::new(1, 2, 2)];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let v = vmis_noopt(index, VmisConfig::default()).unwrap();
        assert!(!v.config().early_stopping);
    }
}
