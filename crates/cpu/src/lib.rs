//! Processor models for the DataScalar reproduction.
//!
//! Three layers, mirroring SimpleScalar's structure (the paper's
//! simulation substrate, §3.1/§4.2):
//!
//! * [`FuncCore`] — a functional (architectural) interpreter of the
//!   DS-1 ISA. It defines the reference semantics every timing model
//!   must agree with.
//! * [`TraceSource`] — a demand-driven committed-instruction stream
//!   produced by a `FuncCore`. DataScalar nodes all execute the *same*
//!   program on the *same* data (SPSD), and the paper's simulations
//!   assume perfect branch prediction, so all nodes fetch the identical
//!   architected path; the trace source materialises that path once and
//!   lets each node consume it at its own pace (the skew between
//!   cursors *is* datathreading). The functional core writes each
//!   record once, into the trace's window, and each node's fetch copies
//!   it once, through [`InstFeed::copy_record`], on its way into the
//!   node's RUU.
//! * [`OooCore`] — the out-of-order timing core: 8-wide fetch/issue/
//!   commit, a 256-entry Register Update Unit, a load/store queue with
//!   store-to-load forwarding, per-class functional units, and
//!   in-order commit. Memory timing is delegated to a [`MemSystem`]
//!   implementation — the DataScalar node, the traditional IRAM system
//!   and the perfect-cache model each provide one.

mod branch;
mod exec;
mod ooo;
mod trace;

pub use branch::{BranchModel, Predictor};
pub use exec::{ExecError, ExecRecord, FuncCore};
pub use ooo::{
    CoreStall, FuPool, LoadResponse, MemSystem, OooConfig, OooCore, OooStats, RuuSnapshot, RuuTag,
};
pub use trace::{InstFeed, TraceSource};

/// A simulation cycle count.
pub type Cycle = u64;
