//! End-to-end benchmark of the html-violations workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload scan_corpus --seed 4740657 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it replays the same inputs through
//! each layer with spans and prints every per-layer metric. The line before
//! the result is the run's provenance. The process exits non-zero when any
//! output differs from its expected answer.

mod adversarial;
mod calibrate;
mod provenance;
mod serve;
mod sha256;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use workload::{Config, Outcome, Workload, DEFAULT_SEED, HELD_OUT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hv-e2ebench --workload <scan_corpus|scan_warc> [--seed N] \
                     [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: Workload::ScanCorpus, seed: DEFAULT_SEED, seconds: 40.0, trace: false };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("seconds {value} out of (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Scratch space under the current directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

fn provenance_line(args: &Args, cfg: &Config, out: &Outcome) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("default_seed", DEFAULT_SEED.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("seconds", json_num(args.seconds)),
        ("scale", json_num(cfg.scale)),
        ("threads", cfg.threads.to_string()),
        ("connections", cfg.threads.to_string()),
        ("nproc", provenance::nproc().to_string()),
        ("git_rev", json_str(&provenance::git_rev())),
        ("source_sha256", json_str(&provenance::source_digest(Path::new(".")))),
        ("rustc", json_str(&provenance::rustc_version())),
        ("profile", json_str(provenance::profile())),
    ];
    fields.extend(out.facts.iter().map(|(k, v)| (*k, json_str(v))));
    fields.push((
        "mismatches",
        format!("[{}]", out.mismatches.iter().map(|m| json_str(m)).collect::<Vec<_>>().join(", ")),
    ));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = Config::standard();
    let root = PathBuf::from(".e2ebench");
    let work = WorkDir(root.join(format!("{}-{}", args.workload.name(), std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("creating {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced::run(&cfg, args.workload, args.seed, &work.0)
    } else {
        workload::run(&cfg, args.workload, args.seed, args.seconds, &work.0)
    };
    drop(work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, _) in out.metrics.clone() {
        out.check(value.is_finite(), || format!("{name} measured {value}"));
    }
    for m in &out.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    println!("{}", provenance_line(&args, &cfg, &out));
    println!("{}", result_line(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a =
            args(&["--workload", "scan_warc", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload, Workload::ScanWarc);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args(&["--workload", "scan_corpus"]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "scan_corpus", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "scan_corpus", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "scan_corpus", "--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = Outcome {
            metrics: vec![("setup_s", 0.5, "s"), ("check_p99_ms", f64::INFINITY, "ms")],
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_line(&out);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4, "{line}");
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.5));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
