//! # mtsim-lang
//!
//! A small C-flavored kernel language that compiles to the `mtsim`
//! machine — playing the role of the paper's application language: "This
//! grouping is facilitated by the introduction of an explicit context
//! switch instruction and **compiler** optimization techniques." The
//! frontend produces compiler-natural code through `mtsim-asm`'s builder;
//! the `mtsim-opt` grouping pass then optimizes it like any other program.
//!
//! ## The language
//!
//! ```text
//! // Global declarations: shared memory, synchronization objects.
//! shared int   items[1000];
//! shared int   bins[16];
//! shared float total;
//! lock    total_lock;
//! barrier phase;                  // participants = the build's nthreads
//!
//! fn main() {
//!     int i = tid;
//!     while (i < 1000) {
//!         int v = items[i];
//!         faa(bins[v & 15], 1);   // fetch-and-add statement
//!         i = i + nthreads;
//!     }
//!     barrier(phase);
//!     if (tid == 0) {
//!         float s = 0.0;
//!         for (int k = 0; k < 16; k = k + 1) {
//!             s = s + float(bins[k]);
//!         }
//!         acquire(total_lock);
//!         total = total + s;
//!         release(total_lock);
//!     }
//! }
//! ```
//!
//! Types are `int` (i64) and `float` (f64) with **no implicit
//! conversions** (`float(e)` / `int(e)` convert). `local float buf[64];`
//! declares per-thread arrays. Builtins: `tid`, `nthreads`, `faa(lv, e)`
//! (expression or statement), `sqrt`, `min`, `max`, `barrier(name)`,
//! `acquire(name)`/`release(name)`.
//!
//! ## Example
//!
//! ```
//! let src = "shared int out; fn main() { faa(out, tid + 1); }";
//! let unit = mtsim_lang::compile("hello", src, 4).unwrap();
//! assert!(unit.program.len() > 0);
//! assert_eq!(unit.layout.base("out"), Some(0));
//! ```

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use codegen::CompiledUnit;

/// A source-located compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles `source` into a program image for `nthreads` threads.
///
/// Shared declarations are laid out in declaration order from address 0
/// (inspect [`CompiledUnit::layout`]); barriers are sized to `nthreads`.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or type error with its source
/// position.
pub fn compile(name: &str, source: &str, nthreads: usize) -> Result<CompiledUnit, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    codegen::generate(name, &unit, nthreads as i64)
}
