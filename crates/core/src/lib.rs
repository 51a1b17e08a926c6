//! The DataScalar execution model (Burger, Kaxiras & Goodman, ISCA
//! 1997), plus the comparison systems the paper evaluates against.
//!
//! # The model
//!
//! A DataScalar machine runs one program **redundantly** on `N`
//! processor/memory (IRAM) nodes — Single-Program, Single-Data (SPSD).
//! Physical memory is partitioned: *communicated* pages live at exactly
//! one owner, *replicated* pages at every node. Under **ESP**:
//!
//! * a load whose address is local completes from local memory; if the
//!   page is communicated, the owner **broadcasts** the line to all
//!   peers — nobody ever *requests* anything;
//! * a load whose address is remote waits in a **BSHR** (Broadcast
//!   Status Holding Register) until the owner's broadcast arrives;
//! * stores complete at the owner only; writes never cross the
//!   interconnect.
//!
//! Because each node's out-of-order core runs ahead on operands it
//! owns, chains of dependent local accesses (*datathreads*) incur one
//! serialized off-chip crossing instead of two per operand.
//!
//! # Cache correspondence
//!
//! Dynamic replication (caching broadcast data) requires every node to
//! keep *identical* L1 contents in commit order, or sends and waits
//! would not pair up. Following §4.1 of the paper, each node updates
//! its cache tags only at **commit** through a commit update buffer
//! ([`cub::Dcub`]); the issue-time hit/miss is recorded and compared at
//! commit. A **false hit** (hit at issue, miss in commit order) is
//! repaired by a *reparative broadcast* from the owner and a *BSHR
//! squash* at non-owners; **false misses** coalesce in the DCUB so each
//! line-residency episode generates exactly one miss.
//!
//! # What's here
//!
//! * [`DsSystem`] — the DataScalar machine ([`DsConfig`] ×
//!   [`ds_asm::Program`] → [`RunResult`]);
//! * [`TraditionalSystem`] — the paper's comparator: one CPU with
//!   `1/N` of memory on-chip and the rest behind the same bus with a
//!   request/response protocol;
//! * [`PerfectSystem`] — the perfect-data-cache upper bound;
//! * [`mmm`] — the synchronous-ESP Massive Memory Machine the model
//!   descends from (Figure 1);
//! * [`datathread`] — the serialized off-chip-crossing model of
//!   Figure 3.

#[cfg(feature = "audit")]
pub mod audit;
pub mod bshr;
pub mod config;
pub mod cub;
pub mod datathread;
pub mod hybrid;
pub mod linemap;
pub mod mmm;
mod engine;
mod node;
mod pending;
pub mod perfect;
mod stats;
mod system;
pub mod traditional;
pub mod watchdog;

pub use config::DsConfig;
pub use node::Node;
pub use perfect::PerfectSystem;
pub use stats::{NodeStats, RunResult};
pub use system::DsSystem;
pub use traditional::{TraditionalConfig, TraditionalSystem};
pub use watchdog::{DeadlockReport, ForwardProgress, NodeDeadlockState};

/// A simulation cycle count.
pub type Cycle = u64;
