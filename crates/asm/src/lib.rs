//! The DS-1 assembler and program toolchain.
//!
//! The paper ran unmodified SPEC95 binaries through SimpleScalar's
//! compiler toolchain; our from-scratch equivalent is this crate:
//!
//! * [`Program`] — a linked, loadable image (text + data segments,
//!   entry point, symbols, layout) that every simulator in the
//!   workspace consumes;
//! * [`assemble`] — a two-pass textual assembler with labels,
//!   data directives, and the usual pseudo-instructions (`li`, `la`,
//!   `j`, `call`, `ret`, ...);
//! * [`ProgBuilder`] — a programmatic builder with the same
//!   expansions, used by the synthetic SPEC95-stand-in workloads.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! .text
//! main:   li   t0, 5
//!         li   t1, 0
//! loop:   add  t1, t1, t0
//!         addi t0, t0, -1
//!         bnez t0, loop
//!         halt
//! "#;
//! let prog = ds_asm::assemble(src).unwrap();
//! assert_eq!(prog.entry, prog.text_base);
//! ```

mod builder;
mod error;
mod parser;
mod program;

pub use builder::{DataRef, Label, ProgBuilder};
pub use error::AsmError;
pub use parser::assemble;
pub use program::{
    Program, DEFAULT_DATA_BASE, DEFAULT_STACK_BYTES, DEFAULT_STACK_TOP, DEFAULT_TEXT_BASE,
};
