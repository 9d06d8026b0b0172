//! # mtsim-opt
//!
//! The paper's compiler post-processor (§5.1): basic-block discovery,
//! intra-block dependency analysis, **grouping of shared loads**, and
//! insertion of the explicit context-switch instruction after each group.
//!
//! > "we wrote a post-processor which finds the basic blocks in an object
//! > file, does dependency analysis within the basic blocks, and then
//! > reorganizes the instructions so as to group shared loads together. It
//! > then inserts a single context switch instruction after each group of
//! > independent shared loads."
//!
//! The analysis is intra-block and uses the paper's pessimistic aliasing
//! assumption (footnote 1): *every shared store might conflict with every
//! shared load*. Local memory operations are treated with the same
//! pessimism among themselves. Register dependencies distinguish plain
//! ordering from **completion** dependencies: an instruction that reads (or
//! overwrites) the destination of a still-pending shared load can only be
//! placed after a `Switch`, which is what forces groups to close.
//!
//! ## Example
//!
//! ```
//! use mtsim_asm::ProgramBuilder;
//! use mtsim_opt::group_shared_loads;
//!
//! let mut b = ProgramBuilder::new("avg");
//! let x = b.load_shared_f(b.const_i(10));
//! let y = b.load_shared_f(b.const_i(11));
//! let avg = b.def_f("avg", (x + y) * 0.5);
//! b.store_shared_f(b.const_i(12), avg.get());
//! let original = b.finish();
//!
//! let grouped = group_shared_loads(&original);
//! // Both loads now sit in one group guarded by a single switch.
//! assert_eq!(grouped.stats.switches_inserted, 1);
//! assert_eq!(grouped.stats.grouped_loads, 2);
//! ```

mod blocks;
mod dag;
mod pass;

pub use blocks::basic_blocks;
pub use pass::{group_shared_loads, GroupStats, GroupingResult};

/// Whether a program is reorganized before it runs: the sweep's `opt`
/// axis, `mtsim run --opt-level` and `mtsim opt --level` pin one of these
/// instead of the model-aware default (grouped iff the model switches
/// explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No reorganization at all: the compiler-natural program.
    None,
    /// The paper's intra-block pass (§5.1): [`group_shared_loads`].
    Intra,
}

impl OptLevel {
    /// Every level, in increasing aggressiveness.
    pub const ALL: [OptLevel; 2] = [OptLevel::None, OptLevel::Intra];

    /// Stable lowercase name (flag value / column value).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Intra => "intra",
        }
    }

    /// Parses a [`name`](OptLevel::name) back into a level.
    pub fn from_name(s: &str) -> Option<OptLevel> {
        OptLevel::ALL.into_iter().find(|l| l.name() == s)
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in OptLevel::ALL {
            assert_eq!(OptLevel::from_name(l.name()), Some(l));
            assert_eq!(format!("{l}"), l.name());
        }
        for gone in ["inter", "inter-pipeline", "bogus"] {
            assert_eq!(OptLevel::from_name(gone), None);
        }
    }
}
