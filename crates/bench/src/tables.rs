//! Full text reports for the paper's tables, as strings.
//!
//! Each function renders exactly what the corresponding `tableN` binary
//! prints — header, table body, and the paper-comparison footer — so the
//! binaries stay thin printers and the reports can be golden-tested
//! (`tests/golden_reports.rs` at the workspace root snapshots the `Tiny`
//! renders).

use crate::experiments;
use crate::report::{level, mt_table_text, pct, run_length_text, TextTable};
use mtsim_apps::Scale;
use mtsim_core::SwitchModel;

/// `header\n\n` + `body` + `\nfooter\n` — the shape every table binary
/// has always printed.
fn wrap(header: String, body: String, footer: &str) -> String {
    format!("{header}\n\n{body}\n{footer}\n")
}

/// Table 2: run-length distributions, switch-on-load.
pub fn table2_text(scale: Scale) -> String {
    let rows = experiments::run_length_table(scale, SwitchModel::SwitchOnLoad);
    let runs = rows.iter().map(|r| r.hist.count().to_string()).collect();
    wrap(
        format!("Table 2: run-lengths between context switches, switch-on-load (scale {scale:?})"),
        run_length_text(&rows, ("runs", runs)),
        "(paper: sor 39% ones + 39% twos; blkmat exceptionally long mean; locus/mp3d short)",
    )
}

/// Table 3: multithreading level per efficiency target, switch-on-load.
pub fn table3_text(scale: Scale, jobs: Option<usize>) -> String {
    let rows = experiments::mt_table(scale, SwitchModel::SwitchOnLoad, jobs);
    wrap(
        format!("Table 3: switch-on-load — multithreading needed per efficiency (scale {scale:?})"),
        mt_table_text(&rows, None),
        "(paper: sieve reaches 90% at T=11; sor and ugray plateau near 60%)",
    )
}

/// Table 4: run-lengths after grouping, explicit-switch.
pub fn table4_text(scale: Scale) -> String {
    let rows = experiments::run_length_table(scale, SwitchModel::ExplicitSwitch);
    let grouping = rows.iter().map(|r| format!("{:.2}", r.grouping)).collect();
    wrap(
        format!("Table 4: run-lengths after grouping, explicit-switch (scale {scale:?})"),
        run_length_text(&rows, ("grouping", grouping)),
        "(paper: sor and water benefit most; short runs eliminated; locus barely grouped at 1.05)",
    )
}

/// Table 5: explicit-switch levels plus the reorganization penalty.
pub fn table5_text(scale: Scale, jobs: Option<usize>) -> String {
    let penalties = experiments::reorganization_penalty(scale);
    let rows = experiments::mt_table(scale, SwitchModel::ExplicitSwitch, jobs);
    let cells = rows
        .iter()
        .map(|row| {
            let pen = penalties.iter().find(|(a, _)| *a == row.app).map(|&(_, p)| p).unwrap_or(0.0);
            format!("{:+.1}%", pen * 100.0)
        })
        .collect();
    wrap(
        format!(
            "Table 5: explicit-switch — multithreading needed per efficiency (scale {scale:?})"
        ),
        mt_table_text(&rows, Some(("penalty", cells))),
        "(paper: all apps except locus reach 70%+ with T<=14; penalty a few percent)",
    )
}

/// Table 6 (§5.2): inter-block grouping estimate.
pub fn table6_text(scale: Scale) -> String {
    let mut t = TextTable::new([
        "app",
        "1-line hits",
        "grouping",
        "revised",
        "50%",
        "60%",
        "70%",
        "80%",
        "90%",
    ]);
    for row in experiments::table6(scale) {
        t.row(
            [
                row.app.name().to_string(),
                pct(row.one_line_hit_rate),
                format!("{:.2}", row.grouping_before),
                format!("{:.2}", row.grouping_after),
            ]
            .into_iter()
            .chain(row.needed.iter().map(|&n| level(n))),
        );
    }
    wrap(
        format!("Table 6: inter-block grouping estimate, explicit-switch (scale {scale:?})"),
        t.render(),
        "(paper: ugray 42% hits, grouping 1.3 -> 1.9; locus 84% hits, 1.05 -> 6.6)",
    )
}

/// §6.1 table: bandwidth demand and cache hit rates.
pub fn table7_text(scale: Scale) -> String {
    let mut t =
        TextTable::new(["app", "uncached b/c", "hit rate", "cached b/c", "inval msgs/kcycle"]);
    for row in experiments::table7(scale) {
        t.row([
            row.app.name().to_string(),
            format!("{:.2}", row.uncached_bits_per_cycle),
            pct(row.hit_rate),
            format!("{:.2}", row.cached_bits_per_cycle),
            format!("{:.2}", row.invalidations_per_kcycle),
        ]);
    }
    wrap(
        format!(
            "Section 6.1: bandwidth demand (bits/cycle/processor) and hit rates (scale {scale:?})"
        ),
        t.render(),
        "(paper: >90% hits and <4.0 bits/cycle for every app except mp3d)",
    )
}

/// Table 8: conditional-switch multithreading levels.
pub fn table8_text(scale: Scale, jobs: Option<usize>) -> String {
    let rows = experiments::mt_table(scale, SwitchModel::ConditionalSwitch, jobs);
    wrap(
        format!(
            "Table 8: conditional-switch — multithreading needed per efficiency (scale {scale:?})"
        ),
        mt_table_text(&rows, None),
        "(paper: 80%+ efficiency with 6 or fewer threads for the cache-friendly apps)",
    )
}

/// Optimizer gains: the paper's intra-block grouping, measured, against
/// the §5.2 one-line-cache estimate of inter-block grouping.
pub fn opt_gains_text(scale: Scale) -> String {
    opt_gains_render(&experiments::opt_gains(scale), scale)
}

/// Renders pre-computed [`experiments::OptGainRow`]s (the `opt_gains`
/// binary reuses the rows for `BENCH_opt.json`).
pub fn opt_gains_render(rows: &[experiments::OptGainRow], scale: Scale) -> String {
    let mut t = TextTable::new(["app", "cycles", "dyn grouping", "static mean", "estimate"]);
    for row in rows {
        t.row([
            row.app.name().to_string(),
            row.cycles.to_string(),
            format!("{:.2}", row.dyn_grouping),
            format!("{:.2}", row.group_mean),
            format!("{:.2}", row.estimated_factor),
        ]);
    }
    wrap(
        format!(
            "Optimizer gains: intra-block grouping vs the §5.2 estimate, explicit-switch (scale {scale:?})"
        ),
        t.render(),
        "(the estimate is an upper bound on inter-block grouping; DESIGN.md §21 records \
why the passes that chased it were deleted)",
    )
}

/// Model frontier: renders [`experiments::model_frontier`]'s rows for
/// every switch model on the trace-replay workload (the `model_frontier`
/// binary reuses the rows for `BENCH_models.json`).
pub fn model_frontier_render(rows: &[experiments::ModelFrontierRow], scale: Scale) -> String {
    let levels = experiments::frontier_levels(scale);
    let mut t = TextTable::new(
        std::iter::once("model".to_string()).chain(levels.iter().map(|t| format!("t={t}"))),
    );
    for row in rows {
        t.row(
            std::iter::once(row.model.name().to_string())
                .chain(row.efficiencies.iter().map(|&e| pct(e))),
        );
    }
    wrap(
        format!(
            "Model frontier: replay workload on every switch model, {} procs, \
             200-cycle round trips (scale {scale:?})",
            rows.first().map(|r| r.procs).unwrap_or(0)
        ),
        t.render(),
        "(smt meets or beats switch-on-use-miss at every level; it can top 100% \
         because a width-4 processor retires up to four instructions per cycle \
         against the single-issue serial baseline)",
    )
}
