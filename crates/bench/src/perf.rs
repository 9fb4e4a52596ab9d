//! Tracked-baseline plumbing for the `*_bench` binaries.
//!
//! Every performance-sensitive bench writes its headline numbers to a
//! `BENCH_<name>.json` file at the repository root (or to `--out PATH`), in
//! the same canonical JSON form the golden accuracy baselines use
//! ([`taf_testkit::json`]): field order is emission order and floats print in
//! shortest round-trip form, so an unchanged measurement produces an
//! unchanged file. CI re-runs the benches in `--quick` mode and
//! `scripts/bench_gate.sh` writes fresh runs to temporary files and compares
//! them against the committed ones, failing the build on a large regression.

use std::path::{Path, PathBuf};
use taf_testkit::json::Json;

/// The workspace root, resolved at compile time relative to this crate.
/// Benches may be invoked from any working directory (CI runs them from the
/// checkout root, developers from wherever), so paths must not depend on cwd.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`). `None` off Linux or if the field is missing; benches
/// report it as JSON `null` rather than guessing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `peak_rss_kb` as a JSON value (`null` when unavailable).
pub fn peak_rss_json() -> Json {
    match peak_rss_kb() {
        Some(kb) => Json::Num(kb as f64),
        None => Json::Null,
    }
}

/// A bench's command line: `--quick`, `--out PATH`, and the remaining
/// positional arguments in order.
#[derive(Debug, Default, PartialEq)]
pub struct BenchArgs {
    /// `--quick`: the short profile CI runs.
    pub quick: bool,
    /// Where to write the JSON instead of the tracked `BENCH_<name>.json`.
    pub out: Option<PathBuf>,
    /// The non-option arguments, in order.
    pub positional: Vec<String>,
}

impl BenchArgs {
    /// Parses this process's arguments (see [`BenchArgs::parse`]).
    pub fn from_env() -> Self {
        BenchArgs::parse(std::env::args().skip(1))
    }

    /// Parses `args` (without the program name). Panics on `--out` without a
    /// path or on an unknown `--flag`: a bench run with a mistyped option
    /// must not quietly write the tracked baseline.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--out" => parsed.out = Some(args.next().expect("--out needs a path").into()),
                flag if flag.starts_with("--") => panic!("unknown option {flag}"),
                _ => parsed.positional.push(arg),
            }
        }
        parsed
    }

    /// The `i`-th positional argument parsed as `T`, or `default` when absent.
    pub fn positional_or<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.positional
            .get(i)
            .map_or(default, |v| v.parse().unwrap_or_else(|_| panic!("bad argument {v:?}")))
    }
}

/// Writes `value` to `out`, or to `BENCH_<name>.json` at the repository root
/// when `out` is `None`, and returns the path. Panics on I/O failure — a
/// bench that cannot record its result has failed.
pub fn write_bench_json(name: &str, value: &Json, out: Option<&Path>) -> PathBuf {
    let path =
        out.map_or_else(|| repo_root().join(format!("BENCH_{name}.json")), Path::to_path_buf);
    std::fs::write(&path, value.to_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Milliseconds with microsecond resolution — coarse enough to keep the JSON
/// short, fine enough for millisecond-scale solves.
pub fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_is_a_workspace() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 100, "a running test binary uses more than 100 kB, got {kb}");
        }
    }

    #[test]
    fn bench_args_split_flags_out_and_positionals() {
        let args = |v: &[&str]| BenchArgs::parse(v.iter().map(|s| s.to_string()));
        let a = args(&["--quick", "4", "--out", "/tmp/x.json", "50"]);
        assert!(a.quick);
        assert_eq!(a.out, Some(PathBuf::from("/tmp/x.json")));
        assert_eq!(a.positional, vec!["4", "50"]);
        assert_eq!(a.positional_or(1, 0usize), 50);
        assert_eq!(a.positional_or(2, 256usize), 256);
        assert_eq!(args(&[]), BenchArgs::default());
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn bench_args_reject_unknown_flags() {
        BenchArgs::parse(["--qiuck".to_string()]);
    }

    #[test]
    fn round_ms_keeps_microseconds() {
        assert_eq!(round_ms(1.2345678), 1.235);
        assert_eq!(round_ms(0.0), 0.0);
    }
}
