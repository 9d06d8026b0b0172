//! # mtsim-asm
//!
//! Program container and structured program-builder DSL for the `mtsim`
//! machine.
//!
//! The paper's applications were C programs compiled at `-O2` for the MIPS
//! R3000; its post-processor then rewrote the object code. Here the
//! applications are written against [`ProgramBuilder`], a structured builder
//! (scoped variables, expressions, `if`/`while`/counted loops) whose code
//! generator emits "naturally scheduled" code: each shared load appears
//! immediately before its first use, the way an optimizing compiler without
//! multithreading knowledge would schedule it. The grouping pass in
//! `mtsim-opt` then plays the role of the paper's post-processor.
//!
//! ## Example
//!
//! ```
//! use mtsim_asm::ProgramBuilder;
//!
//! // sum = a[0] + a[1] for a shared array at address 100
//! let mut b = ProgramBuilder::new("sum2");
//! let a = b.const_i(100);
//! let x = b.load_shared(a.clone());
//! let y = b.load_shared(a + 1);
//! let sum = b.def_i("sum", x + y);
//! let out = b.const_i(200);
//! b.store_shared(out, sum.get());
//! let prog = b.finish();
//! assert!(prog.len() > 0);
//! ```

mod builder;
mod expr;
mod layout;
mod program;

pub use builder::{FVar, IVar, ProgramBuilder};
pub use expr::{Addr, Cond, FExpr, IExpr};
pub use layout::{LocalFrame, SharedLayout};
pub use program::Program;
