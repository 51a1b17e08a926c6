//! Table 1: off-chip traffic reduction from ESP.
//!
//! The paper simulates a 64 KiB, two-way set-associative,
//! write-allocate, write-back L1 data cache, measures the aggregate
//! miss traffic, and computes the fraction that remains once
//! write-backs and requests are eliminated (§3.1). Two measures:
//! fraction of **bytes** eliminated and fraction of **transactions**
//! eliminated (a request/response pair counts as two transactions, so
//! the transaction reduction is always at least 50%).

use crate::stream::{for_each_ref, RefKind};
use ds_asm::Program;
use ds_mem::{AccessKind, Cache, CacheConfig, CacheOutcome};

/// Trace-experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// The simulated data cache (the paper's §3.1 geometry by default).
    pub cache: CacheConfig,
    /// Bytes of address/command header per message.
    pub header_bytes: u64,
    /// Cap on executed instructions.
    pub max_insts: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig { cache: CacheConfig::spec95_trace(), header_bytes: 8, max_insts: u64::MAX }
    }
}

/// Traffic accounting for one benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Read/write misses that fetched a line (requests + responses in
    /// the traditional protocol; broadcasts under ESP).
    pub fills: u64,
    /// Dirty-line write-backs (traditional only; ESP drops them).
    pub writebacks: u64,
    /// Line size used.
    pub line_bytes: u64,
    /// Header size used.
    pub header_bytes: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Loads + stores observed.
    pub data_refs: u64,
}

impl TrafficReport {
    /// Total traditional off-chip bytes: request + response per fill,
    /// plus a full message per write-back.
    pub fn traditional_bytes(&self) -> u64 {
        let fill = self.header_bytes + (self.header_bytes + self.line_bytes);
        let wb = self.header_bytes + self.line_bytes;
        self.fills * fill + self.writebacks * wb
    }

    /// Total ESP off-chip bytes: one broadcast per fill, nothing else.
    pub fn esp_bytes(&self) -> u64 {
        self.fills * (self.header_bytes + self.line_bytes)
    }

    /// Traditional transaction count (request/response pairs count as
    /// two).
    pub fn traditional_transactions(&self) -> u64 {
        self.fills * 2 + self.writebacks
    }

    /// ESP transaction count.
    pub fn esp_transactions(&self) -> u64 {
        self.fills
    }

    /// Fraction of bytes ESP eliminates (Table 1 row 1).
    pub fn bytes_eliminated(&self) -> f64 {
        frac_removed(self.esp_bytes(), self.traditional_bytes())
    }

    /// Fraction of transactions ESP eliminates (Table 1 row 2).
    pub fn transactions_eliminated(&self) -> f64 {
        frac_removed(self.esp_transactions(), self.traditional_transactions())
    }
}

fn frac_removed(remaining: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        1.0 - remaining as f64 / total as f64
    }
}

/// Runs the Table 1 measurement for one program.
pub fn measure_traffic(program: &Program, config: &TrafficConfig) -> TrafficReport {
    let mut cache = Cache::new(config.cache);
    let mut report = TrafficReport {
        line_bytes: config.cache.line_bytes,
        header_bytes: config.header_bytes,
        ..Default::default()
    };
    report.instructions = for_each_ref(program, config.max_insts, |e| {
        let kind = match e.kind {
            RefKind::InstFetch => return, // text traffic excluded (§3.1 uses a data cache)
            RefKind::Load => AccessKind::Read,
            RefKind::Store => AccessKind::Write,
        };
        report.data_refs += 1;
        match cache.access(e.addr, kind) {
            CacheOutcome::Hit => {}
            CacheOutcome::Miss { allocated, victim } => {
                if allocated {
                    report.fills += 1;
                }
                if let Some(v) = victim {
                    if v.dirty {
                        report.writebacks += 1;
                    }
                }
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_asm::assemble;

    #[test]
    fn read_only_sweep_has_no_writebacks() {
        let prog = assemble(
            r#"
            .data
            arr: .space 262144
            .text
            main: li t0, 4096
                  la t1, arr
            loop: ld t2, 0(t1)
                  addi t1, t1, 64
                  addi t0, t0, -1
                  bnez t0, loop
                  halt
            "#,
        )
        .unwrap();
        let r = measure_traffic(&prog, &TrafficConfig::default());
        assert_eq!(r.writebacks, 0);
        assert!(r.fills >= 4096, "each 64-byte stride misses a 32B line");
        // Clean misses: eliminated bytes = request / (request + response).
        let expect = 8.0 / 48.0;
        assert!((r.bytes_eliminated() - expect).abs() < 0.01);
        assert!((r.transactions_eliminated() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn write_sweep_adds_writeback_savings() {
        let prog = assemble(
            r#"
            .data
            arr: .space 262144
            .text
            main: li t0, 4096
                  la t1, arr
            loop: sd t0, 0(t1)
                  addi t1, t1, 64
                  addi t0, t0, -1
                  bnez t0, loop
                  halt
            "#,
        )
        .unwrap();
        let r = measure_traffic(&prog, &TrafficConfig::default());
        assert!(r.writebacks > 3000, "dirty lines must be written back");
        assert!(r.bytes_eliminated() > 0.4, "writes double the savings");
        assert!(r.transactions_eliminated() > 0.5);
    }

    #[test]
    fn cache_hits_produce_no_traffic() {
        let prog = assemble(
            r#"
            .data
            x: .word 0
            .text
            main: li t0, 10000
                  la t1, x
            loop: ld t2, 0(t1)
                  sd t2, 0(t1)
                  addi t0, t0, -1
                  bnez t0, loop
                  halt
            "#,
        )
        .unwrap();
        let r = measure_traffic(&prog, &TrafficConfig::default());
        assert_eq!(r.fills, 1, "one compulsory miss");
        assert_eq!(r.writebacks, 0, "line never evicted");
        assert_eq!(r.data_refs, 20000);
    }

    #[test]
    fn transaction_elimination_is_at_least_half() {
        // Structural property from the paper: "because no requests are
        // sent, the transaction reduction will always be at least 50%".
        let r = TrafficReport {
            fills: 100,
            writebacks: 33,
            line_bytes: 32,
            header_bytes: 8,
            instructions: 1,
            data_refs: 1,
        };
        assert!(r.transactions_eliminated() >= 0.5);
    }
}
