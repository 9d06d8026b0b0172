//! Typed parsing for the structured CLI flags (latency distributions and
//! network configuration).
//!
//! Historically each parser called `bad_usage` directly, so every flag
//! invented its own failure wording and testing the messages meant
//! spawning the binary. These parsers return a [`FlagError`] instead; the
//! single exit point in `main.rs` maps any of them to stderr plus exit
//! code 2, and the messages are unit-testable in-process.

use mtsim_core::SwitchModel;
use mtsim_mem::{LatencyDist, NetworkConfig, Topology};
use mtsim_opt::OptLevel;
use mtsim_sweep::OptChoice;

/// A malformed flag value: which flag, what was given, what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// Flag name without the leading dashes.
    pub flag: &'static str,
    /// The offending value as typed.
    pub value: String,
    /// What the flag accepts.
    pub expected: &'static str,
}

impl FlagError {
    fn new(flag: &'static str, value: &str, expected: &'static str) -> FlagError {
        FlagError { flag, value: value.to_string(), expected }
    }
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad value '{}' for --{} (want {})", self.value, self.flag, self.expected)
    }
}

impl std::error::Error for FlagError {}

const DIST_EXPECTED: &str = "constant, uniform:LO:HI, or geometric:MIN:MEAN";

const JOBS_EXPECTED: &str = "a worker count >= 1";
const JOBS_ENV_EXPECTED: &str = "a worker count >= 1 (from the MTSIM_JOBS environment variable)";

/// Parses an explicit `--jobs N` value.
pub fn parse_jobs(value: &str) -> Result<usize, FlagError> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| FlagError::new("jobs", value, JOBS_EXPECTED))
}

/// Reads the `MTSIM_JOBS` environment default for `--jobs`. Unset or
/// blank means "no preference"; anything else must be a valid count —
/// a typo in the environment used to be silently ignored (the pool fell
/// back to the core count), which hid misconfigured CI jobs.
pub fn jobs_from_env() -> Result<Option<usize>, FlagError> {
    match std::env::var("MTSIM_JOBS") {
        Err(_) => Ok(None),
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => match v.trim().parse::<usize>().ok().filter(|&n| n >= 1) {
            Some(n) => Ok(Some(n)),
            None => Err(FlagError::new("jobs", &v, JOBS_ENV_EXPECTED)),
        },
    }
}

/// Resolves the worker count: explicit `--jobs` beats `MTSIM_JOBS`;
/// `None` defers to the pool's core-count default.
pub fn resolve_jobs(flag: Option<&str>) -> Result<Option<usize>, FlagError> {
    match flag {
        Some(v) => parse_jobs(v).map(Some),
        None => jobs_from_env(),
    }
}

const MODEL_EXPECTED: &str = "a model name from `mtsim models`, optionally smt:<width>";

/// Parses `--model`: a plain model name, or `smt:<width>` to pin the SMT
/// issue width (`smt` alone uses the default width). Only `smt` takes a
/// width suffix — the single-issue models have no lanes to configure.
pub fn parse_model_spec(value: &str) -> Result<(SwitchModel, Option<usize>), FlagError> {
    if let Some(w) = value.strip_prefix("smt:") {
        let width = w
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| FlagError::new("model", value, "smt:<width> with width >= 1"))?;
        return Ok((SwitchModel::Smt, Some(width)));
    }
    SwitchModel::from_name(value)
        .map(|m| (m, None))
        .ok_or_else(|| FlagError::new("model", value, MODEL_EXPECTED))
}

/// Parses `mtsim run --opt-level`: `auto` (the model-aware legacy
/// selection) or a pinned [`OptLevel`] name.
pub fn parse_opt_choice(value: &str) -> Result<OptChoice, FlagError> {
    OptChoice::from_name(value)
        .ok_or_else(|| FlagError::new("opt-level", value, "auto, none, or intra"))
}

/// Parses `mtsim opt --level`: a pinned [`OptLevel`] name (`auto` makes
/// no sense when the optimizer itself is the command).
pub fn parse_opt_level(value: &str) -> Result<OptLevel, FlagError> {
    OptLevel::from_name(value).ok_or_else(|| FlagError::new("level", value, "none or intra"))
}

/// Parses `constant`, `uniform:LO:HI`, or `geometric:MIN:MEAN`.
pub fn parse_latency_dist(spec: &str) -> Result<LatencyDist, FlagError> {
    let err = || FlagError::new("latency-dist", spec, DIST_EXPECTED);
    let num = |v: &str| v.parse::<u64>().map_err(|_| err());
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["constant"] => Ok(LatencyDist::Constant),
        ["uniform", lo, hi] => Ok(LatencyDist::Uniform { lo: num(lo)?, hi: num(hi)? }),
        ["geometric", min, mean] => {
            let mean: f64 = mean.parse().map_err(|_| err())?;
            if !mean.is_finite() || mean < 0.0 {
                return Err(FlagError::new("latency-dist", spec, "a finite geometric mean >= 0"));
            }
            Ok(LatencyDist::Geometric { min: num(min)?, p: 1.0 / (mean + 1.0) })
        }
        _ => Err(err()),
    }
}

/// Parses a `--net` topology name.
pub fn parse_topology(s: &str) -> Result<Topology, FlagError> {
    Topology::from_name(s)
        .ok_or_else(|| FlagError::new("net", s, "constant, crossbar, mesh, or butterfly"))
}

/// Builds the network configuration from `--net NAME`, `--link-bw BITS`,
/// and the `--combining` boolean.
pub fn net_config(
    net: Option<&str>,
    link_bw: Option<&str>,
    combining: bool,
) -> Result<NetworkConfig, FlagError> {
    let mut cfg = NetworkConfig::constant();
    if let Some(name) = net {
        cfg.topology = parse_topology(name)?;
    }
    if let Some(bw) = link_bw {
        cfg.link_bw = bw
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| FlagError::new("link-bw", bw, "a bandwidth >= 1 bits/cycle"))?;
    }
    cfg.combining = combining;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dist_accepts_the_documented_forms() {
        assert_eq!(parse_latency_dist("constant"), Ok(LatencyDist::Constant));
        assert_eq!(
            parse_latency_dist("uniform:100:300"),
            Ok(LatencyDist::Uniform { lo: 100, hi: 300 })
        );
        assert!(matches!(
            parse_latency_dist("geometric:150:50"),
            Ok(LatencyDist::Geometric { min: 150, .. })
        ));
    }

    #[test]
    fn malformed_latency_dist_names_the_flag_and_the_grammar() {
        let e = parse_latency_dist("uniform:abc:2").unwrap_err();
        assert_eq!(e.flag, "latency-dist");
        let msg = e.to_string();
        assert!(msg.contains("'uniform:abc:2'"), "{msg}");
        assert!(msg.contains("--latency-dist"), "{msg}");
        assert!(msg.contains("uniform:LO:HI"), "{msg}");

        let e = parse_latency_dist("gaussian:1:2").unwrap_err();
        assert!(e.to_string().contains("geometric:MIN:MEAN"));
    }

    #[test]
    fn negative_geometric_mean_is_rejected_with_its_own_message() {
        let e = parse_latency_dist("geometric:100:-3").unwrap_err();
        assert!(e.to_string().contains("mean >= 0"), "{e}");
        assert!(parse_latency_dist("geometric:100:NaN").is_err());
    }

    #[test]
    fn topology_parses_all_names_and_rejects_garbage() {
        for t in Topology::ALL {
            assert_eq!(parse_topology(t.name()), Ok(t));
        }
        let e = parse_topology("torus").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("--net") && msg.contains("'torus'"), "{msg}");
        assert!(msg.contains("crossbar, mesh, or butterfly"), "{msg}");
    }

    #[test]
    fn net_config_combines_the_three_flags() {
        let cfg = net_config(Some("mesh"), Some("32"), true).unwrap();
        assert_eq!(cfg.topology, Topology::Mesh);
        assert_eq!(cfg.link_bw, 32);
        assert!(cfg.combining);
        assert_eq!(net_config(None, None, false).unwrap(), NetworkConfig::constant());
    }

    #[test]
    fn zero_or_garbage_link_bw_is_one_typed_error() {
        for bad in ["0", "-4", "fast"] {
            let e = net_config(None, Some(bad), false).unwrap_err();
            assert_eq!(e.flag, "link-bw");
            assert!(e.to_string().contains(">= 1"), "{e}");
        }
    }

    #[test]
    fn opt_level_flags_round_trip_and_reject_garbage() {
        assert_eq!(parse_opt_choice("auto"), Ok(OptChoice::Auto));
        for l in OptLevel::ALL {
            assert_eq!(parse_opt_choice(l.name()), Ok(OptChoice::Level(l)));
            assert_eq!(parse_opt_level(l.name()), Ok(l));
        }
        let e = parse_opt_choice("O3").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("bad value 'O3' for --opt-level"), "{msg}");
        assert!(msg.contains("auto, none, or intra"), "{msg}");
        // Removed level names must be rejected, never mapped to a survivor.
        for gone in ["inter", "inter-pipeline"] {
            assert!(parse_opt_choice(gone).is_err(), "{gone}");
            assert!(parse_opt_level(gone).is_err(), "{gone}");
        }
        // The subcommand's --level takes no "auto".
        assert!(parse_opt_level("auto").is_err());
        let e = parse_opt_level("speed").unwrap_err();
        assert!(e.to_string().contains("for --level"), "{e}");
    }

    #[test]
    fn model_spec_parses_names_and_the_smt_width_suffix() {
        for m in SwitchModel::ALL {
            assert_eq!(parse_model_spec(m.name()), Ok((m, None)));
        }
        assert_eq!(parse_model_spec("smt:8"), Ok((SwitchModel::Smt, Some(8))));
        assert_eq!(parse_model_spec("smt:1"), Ok((SwitchModel::Smt, Some(1))));
        for bad in ["smt:0", "smt:-2", "smt:wide", "smt:"] {
            let e = parse_model_spec(bad).unwrap_err();
            assert_eq!(e.flag, "model");
            assert!(e.to_string().contains("width >= 1"), "{e}");
        }
        let e = parse_model_spec("hyperthread").unwrap_err();
        assert!(e.to_string().contains("smt:<width>"), "{e}");
        // A width suffix on a single-issue model is just an unknown name.
        assert!(parse_model_spec("switch-on-load:2").is_err());
    }

    #[test]
    fn jobs_rejects_zero_and_garbage_with_a_typed_error() {
        assert_eq!(parse_jobs("4"), Ok(4));
        for bad in ["0", "-2", "many", "1.5", ""] {
            let e = parse_jobs(bad).unwrap_err();
            assert_eq!(e.flag, "jobs");
            assert!(e.to_string().contains(">= 1"), "{e}");
        }
    }

    #[test]
    fn explicit_jobs_beats_the_environment() {
        // resolve_jobs must not consult MTSIM_JOBS when a flag is given,
        // so a bogus env value is irrelevant here (and this test cannot
        // set the variable: the test harness is multi-threaded).
        assert_eq!(resolve_jobs(Some("3")), Ok(Some(3)));
        assert!(resolve_jobs(Some("zero")).is_err());
    }
}
