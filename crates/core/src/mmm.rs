//! The synchronous-ESP Massive Memory Machine (Figure 1).
//!
//! DataScalar descends from the MMM (Garcia-Molina et al., early
//! 1980s): minicomputers in lock-step on a broadcast bus, each owning a
//! fraction of memory. The **lead processor** streams the operands it
//! owns, one per bus cycle; when the program touches an operand the
//! lead does not own, a **lead change** stalls all processors until the
//! new lead catches up. The model here regenerates Figure 1's timeline
//! and exposes the per-reference receive times and the datathread
//! structure (maximal runs of same-owner references).

/// A word in the MMM's reference string: which machine owns it.
pub type Owner = usize;

/// Timeline of one synchronous-ESP execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmmTimeline {
    /// Owners of the reference string, as given.
    pub owners: Vec<Owner>,
    /// Cycle at which every processor receives each word.
    pub receive_at: Vec<u64>,
    /// Number of lead changes.
    pub lead_changes: u64,
    /// Lengths of the maximal same-owner runs (the MMM's single active
    /// datathread at a time).
    pub runs: Vec<u64>,
}

impl MmmTimeline {
    /// Total cycles until the last word is received.
    pub fn total_cycles(&self) -> u64 {
        self.receive_at.last().copied().map_or(0, |t| t + 1)
    }

    /// Mean run length (the MMM analogue of mean datathread length).
    pub fn mean_run(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.runs.iter().sum::<u64>() as f64 / self.runs.len() as f64
        }
    }

    /// Renders the Figure 1 style timeline: one row per machine, one
    /// column per cycle, `wN` where machine's broadcast of word N is
    /// received.
    pub fn render(&self) -> String {
        let machines = self.owners.iter().copied().max().map_or(0, |m| m + 1);
        let cycles = self.total_cycles();
        let mut grid = vec![vec!["  .".to_string(); cycles as usize]; machines];
        for (i, (&o, &t)) in self.owners.iter().zip(&self.receive_at).enumerate() {
            grid[o][t as usize] = format!("w{:<2}", i + 1);
        }
        let mut out = String::new();
        out.push_str("machine/cycle ");
        for c in 0..cycles {
            out.push_str(&format!("{c:>3} "));
        }
        out.push('\n');
        for (m, row) in grid.iter().enumerate() {
            out.push_str(&format!("machine {m:<5} "));
            for cell in row {
                out.push_str(&format!("{cell:>3} "));
            }
            out.push('\n');
        }
        out
    }
}

/// Simulates synchronous ESP over a reference string.
///
/// `owners[i]` is the machine owning word `i`. While the lead does not
/// change, one word is broadcast (and received everywhere) per cycle;
/// each lead change inserts `lead_change_penalty` stall cycles — the
/// time for the new lead processor to catch up to the head of the
/// reference stream before its first broadcast.
///
/// # Examples
///
/// ```
/// // Figure 1: words w5..w7 on machine 2, all others on machine 1
/// // (0-indexed here: machine 1 and 0).
/// let owners = [0, 0, 0, 0, 1, 1, 1, 0, 0];
/// let t = ds_core::mmm::simulate(&owners, 2);
/// assert_eq!(t.lead_changes, 2);
/// assert_eq!(t.runs, vec![4, 3, 2]);
/// ```
pub fn simulate(owners: &[Owner], lead_change_penalty: u64) -> MmmTimeline {
    let mut receive_at = Vec::with_capacity(owners.len());
    let mut lead_changes = 0;
    let mut runs = Vec::new();
    let mut clock: u64 = 0;
    #[expect(clippy::expect_used, reason = "the first word (i == 0) pushes the first run")]
    for (i, &o) in owners.iter().enumerate() {
        if i == 0 {
            runs.push(1);
        } else if owners[i - 1] == o {
            *runs.last_mut().expect("non-empty") += 1;
            clock += 1;
        } else {
            lead_changes += 1;
            runs.push(1);
            clock += 1 + lead_change_penalty;
        }
        receive_at.push(clock);
    }
    MmmTimeline { owners: owners.to_vec(), receive_at, lead_changes, runs }
}

/// The Figure 1 reference string: nine words, w5–w7 owned by machine 1,
/// the rest by machine 0 (paper numbering: machines 2 and 1).
pub fn figure1_owners() -> Vec<Owner> {
    vec![0, 0, 0, 0, 1, 1, 1, 0, 0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_owner_is_fully_pipelined() {
        let t = simulate(&[0; 10], 2);
        assert_eq!(t.lead_changes, 0);
        assert_eq!(t.total_cycles(), 10);
        assert_eq!(t.runs, vec![10]);
        assert_eq!(t.mean_run(), 10.0);
    }

    #[test]
    fn every_reference_alternates() {
        let t = simulate(&[0, 1, 0, 1], 2);
        assert_eq!(t.lead_changes, 3);
        // 1 + 3*(1+2) = 10 cycles total.
        assert_eq!(t.total_cycles(), 10);
        assert_eq!(t.mean_run(), 1.0);
    }

    #[test]
    fn figure1_timeline_shape() {
        let t = simulate(&figure1_owners(), 2);
        assert_eq!(t.lead_changes, 2);
        assert_eq!(t.runs, vec![4, 3, 2]);
        // Receive times strictly increase.
        assert!(t.receive_at.windows(2).all(|w| w[1] > w[0]));
        // Lead changes cost more than pipelined words.
        assert_eq!(t.receive_at[4] - t.receive_at[3], 3);
        assert_eq!(t.receive_at[5] - t.receive_at[4], 1);
    }

    #[test]
    fn render_contains_all_words() {
        let t = simulate(&figure1_owners(), 2);
        let s = t.render();
        for i in 1..=9 {
            assert!(s.contains(&format!("w{i}")), "missing w{i} in render");
        }
        assert!(s.contains("machine 0"));
        assert!(s.contains("machine 1"));
    }

    #[test]
    fn empty_reference_string() {
        let t = simulate(&[], 2);
        assert_eq!(t.total_cycles(), 0);
        assert_eq!(t.mean_run(), 0.0);
    }

    #[test]
    fn zero_penalty_degenerates_to_pipeline() {
        let t = simulate(&[0, 1, 0, 1], 0);
        assert_eq!(t.total_cycles(), 4);
        assert_eq!(t.lead_changes, 3);
    }
}
