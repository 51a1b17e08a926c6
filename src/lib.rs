//! # datascalar
//!
//! A from-scratch Rust reproduction of **DataScalar Architectures**
//! (Burger, Kaxiras & Goodman, ISCA 1997): redundant Single-Program,
//! Single-Data execution across processor/memory nodes, with ESP
//! broadcasts, broadcast status holding registers, commit update
//! buffers, and the cache-correspondence protocol — plus the
//! traditional and perfect-cache comparison systems and the trace
//! experiments of the paper's evaluation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `ds-isa` | the DS-1 instruction set |
//! | [`asm`] | `ds-asm` | assembler, program images, program builder |
//! | [`cpu`] | `ds-cpu` | functional core, trace source, OOO core |
//! | [`mem`] | `ds-mem` | memory images, caches, page tables, DRAM timing |
//! | [`net`] | `ds-net` | the global broadcast bus |
//! | [`core_model`] | `ds-core` | DataScalar / traditional / perfect systems |
//! | [`trace`] | `ds-trace` | Table 1/2 trace experiments |
//! | [`lang`] | `ds-lang` | DSC, a small C-like language compiling to DS-1 |
//! | [`workloads`] | `ds-workloads` | fifteen SPEC95-analog kernels |
//! | [`stats`] | `ds-stats` | means, histograms, table rendering |
//! | [`obs`] | `ds-obs` | event probes, derived metrics, Perfetto export |
//!
//! # Quickstart
//!
//! ```
//! use datascalar::{assemble, DsConfig, DsSystem};
//!
//! let program = assemble(
//!     ".data\nxs: .word 1, 2, 3, 4\n.text\n
//!      main: la t0, xs\n ld t1, 8(t0)\n halt\n",
//! ).unwrap();
//! let mut system = DsSystem::new(DsConfig::with_nodes(2), &program);
//! let result = system.run().unwrap();
//! assert!(result.committed > 0);
//! ```

pub use ds_asm as asm;
pub use ds_core as core_model;
pub use ds_cpu as cpu;
pub use ds_isa as isa;
pub use ds_lang as lang;
pub use ds_mem as mem;
pub use ds_net as net;
pub use ds_obs as obs;
pub use ds_stats as stats;
pub use ds_trace as trace;
pub use ds_workloads as workloads;

// The types almost every user needs, at the crate root.
pub use ds_asm::{assemble, ProgBuilder, Program};
pub use ds_core::{
    DsConfig, DsSystem, PerfectSystem, RunResult, TraditionalConfig, TraditionalSystem,
};
pub use ds_lang::compile;
pub use ds_workloads::{by_name, Scale, Workload};
