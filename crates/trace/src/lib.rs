//! Trace-driven experiments: the paper's §3 methodology.
//!
//! Before the timing simulations, the paper measures two things with
//! functional (trace) cache simulation:
//!
//! * **Table 1** — how much off-chip traffic ESP eliminates, by running
//!   the benchmarks through a 64 KiB two-way write-allocate write-back
//!   L1 and removing request and write traffic from the miss stream
//!   ([`traffic`]);
//! * **Table 2** — approximate datathread lengths on a four-node
//!   machine, after replicating the most heavily accessed pages and
//!   distributing the rest round-robin ([`datathread`], with page
//!   access profiles from [`profile`]).
//!
//! [`stream`] drives a functional core and surfaces every memory
//! reference (instruction fetches, loads, stores) to the analyses.

pub mod datathread;
pub mod profile;
pub mod result_comm;
pub mod stream;
pub mod traffic;

pub use datathread::{measure_datathreads, DatathreadConfig, DatathreadReport};
pub use profile::{select_hot_pages, select_top_pages, PageProfile};
pub use result_comm::{measure_result_comm, ResultCommConfig, ResultCommReport};
pub use stream::{for_each_ref, RefEvent, RefKind};
pub use traffic::{measure_traffic, TrafficConfig, TrafficReport};
