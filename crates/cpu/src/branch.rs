//! Branch prediction models.
//!
//! The paper assumes perfect branch prediction ("modern branch
//! predictors are already quite accurate, and we have no way of knowing
//! what prediction techniques will be prevalent in future processors")
//! and its correspondence protocol does not support speculative
//! broadcasts (§4.1). This module keeps that default but adds real
//! predictors so the assumption can be stress-tested: a mispredicted
//! control transfer redirects fetch only after the branch resolves,
//! throttling the run-ahead that datathreading depends on. No wrong
//! path is issued, so the correspondence protocol's no-speculation
//! requirement still holds.

use crate::Cycle;

/// Which fetch-redirection model the core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchModel {
    /// The paper's assumption: every control transfer is predicted
    /// perfectly; fetch never stalls on branches.
    #[default]
    Perfect,
    /// Static backward-taken/forward-not-taken with a fixed redirect
    /// penalty.
    Static {
        /// Extra cycles after resolution before fetch resumes.
        penalty: Cycle,
    },
    /// Bimodal two-bit saturating counters indexed by PC, plus a
    /// last-target BTB for indirect jumps.
    TwoBit {
        /// log2 of the counter-table size.
        table_bits: u32,
        /// Extra cycles after resolution before fetch resumes.
        penalty: Cycle,
    },
}

impl BranchModel {
    /// The redirect penalty (0 for perfect prediction).
    pub fn penalty(self) -> Cycle {
        match self {
            BranchModel::Perfect => 0,
            BranchModel::Static { penalty } | BranchModel::TwoBit { penalty, .. } => penalty,
        }
    }
}

/// Predictor state for one core.
#[derive(Debug, Clone)]
pub struct Predictor {
    model: BranchModel,
    /// Two-bit saturating counters (TwoBit model).
    counters: Vec<u8>,
    /// Last-target BTB for indirect jumps (pc -> predicted target).
    /// `BTreeMap` so the structure is order-deterministic (d1): the
    /// predictor feeds fetch redirects, which feed simulated state.
    btb: std::collections::BTreeMap<u64, u64>,
    branches: u64,
    mispredicts: u64,
}

impl Predictor {
    /// Builds a predictor for `model`.
    pub fn new(model: BranchModel) -> Self {
        let table = match model {
            BranchModel::TwoBit { table_bits, .. } => vec![1u8; 1 << table_bits],
            _ => Vec::new(),
        };
        Predictor {
            model,
            counters: table,
            btb: std::collections::BTreeMap::new(),
            branches: 0,
            mispredicts: 0,
        }
    }

    /// The model in use.
    pub fn model(&self) -> BranchModel {
        self.model
    }

    /// Conditional branches and indirect jumps seen.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Prediction accuracy in `[0, 1]` (1.0 if no branches yet).
    pub fn accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 3) as usize) & (self.counters.len() - 1)
    }

    /// Processes a **conditional branch** at `pc` whose architected
    /// outcome is `taken` toward `target`; returns `true` if the
    /// prediction was correct. Updates all predictor state.
    pub fn predict_conditional(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        self.branches += 1;
        let correct = match self.model {
            BranchModel::Perfect => true,
            BranchModel::Static { .. } => {
                // Backward-taken, forward-not-taken.
                let predict_taken = target < pc;
                predict_taken == taken
            }
            BranchModel::TwoBit { .. } => {
                let idx = self.index(pc);
                let predict_taken = self.counters[idx] >= 2;
                let ctr = &mut self.counters[idx];
                if taken {
                    *ctr = (*ctr + 1).min(3);
                } else {
                    *ctr = ctr.saturating_sub(1);
                }
                predict_taken == taken
            }
        };
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }

    /// Processes an **indirect jump** (`jalr`) at `pc` to `target`;
    /// returns `true` if the BTB predicted the right target. Direct
    /// jumps (`jal`) never mispredict.
    pub fn predict_indirect(&mut self, pc: u64, target: u64) -> bool {
        if self.model == BranchModel::Perfect {
            return true;
        }
        self.branches += 1;
        let correct = self.btb.insert(pc, target) == Some(target);
        if !correct {
            self.mispredicts += 1;
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_never_mispredicts() {
        let mut p = Predictor::new(BranchModel::Perfect);
        for i in 0..100 {
            assert!(p.predict_conditional(0x1000, i % 3 == 0, 0x900));
            assert!(p.predict_indirect(0x2000, 0x100 * i));
        }
        assert_eq!(p.mispredicts(), 0);
        assert_eq!(p.accuracy(), 1.0);
    }

    #[test]
    fn static_model_is_btfn() {
        let mut p = Predictor::new(BranchModel::Static { penalty: 8 });
        // Backward taken: correct.
        assert!(p.predict_conditional(0x1000, true, 0x800));
        // Backward not-taken: wrong.
        assert!(!p.predict_conditional(0x1000, false, 0x800));
        // Forward not-taken: correct.
        assert!(p.predict_conditional(0x1000, false, 0x2000));
        assert_eq!(p.branches(), 3);
        assert_eq!(p.mispredicts(), 1);
    }

    #[test]
    fn two_bit_learns_a_loop() {
        let mut p = Predictor::new(BranchModel::TwoBit { table_bits: 10, penalty: 8 });
        // A loop branch taken 50 times then falling through: the
        // counters should converge after at most two takens.
        let mut wrong = 0;
        for i in 0..50 {
            if !p.predict_conditional(0x1000, true, 0x800) {
                wrong += 1;
            }
            let _ = i;
        }
        assert!(wrong <= 1, "counter failed to learn ({wrong} wrong)");
        assert!(!p.predict_conditional(0x1000, false, 0x800), "exit mispredicts");
        assert!(p.accuracy() > 0.9);
    }

    #[test]
    fn btb_learns_stable_indirect_targets() {
        let mut p = Predictor::new(BranchModel::TwoBit { table_bits: 8, penalty: 8 });
        assert!(!p.predict_indirect(0x1000, 0x4000), "cold BTB misses");
        assert!(p.predict_indirect(0x1000, 0x4000), "stable target hits");
        assert!(!p.predict_indirect(0x1000, 0x5000), "changed target misses");
    }

    #[test]
    fn penalties() {
        assert_eq!(BranchModel::Perfect.penalty(), 0);
        assert_eq!(BranchModel::Static { penalty: 5 }.penalty(), 5);
        assert_eq!(BranchModel::TwoBit { table_bits: 4, penalty: 7 }.penalty(), 7);
    }
}
