//! What a result was measured on: source revision, compiler, cores, build
//! profile, plus the process's peak resident memory.

use crate::sha256::Sha256;
use std::path::{Path, PathBuf};
use std::process::Command;

/// First line of a command's standard output, or why there is none.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(o) if o.status.success() => {
            String::from_utf8_lossy(&o.stdout).lines().next().unwrap_or_default().trim().to_owned()
        }
        Ok(o) => format!("unavailable ({program} exited with {})", o.status),
        Err(e) => format!("unavailable ({program}: {e})"),
    }
}

pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// SHA-256 over the path and bytes of every source file the benchmark is
/// built from, in path order: the revision, where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in
        ["Cargo.toml", "Cargo.lock", "crates", "vendor", "e2ebench/Cargo.toml", "e2ebench/src"]
    {
        collect(&root.join(top), &mut files);
    }
    if files.is_empty() {
        return "unavailable (no sources found)".to_owned();
    }
    files.sort();
    let mut h = Sha256::default();
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else { continue };
        h.update(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        h.update(&[0]);
        h.update(&bytes);
    }
    h.hex()
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else { return };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        collect(&p, out);
    }
}

/// Start a fresh peak-memory window (Linux `clear_refs`); elsewhere the
/// peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_sees_a_large_allocation() {
        reset_peak_rss();
        let before = peak_rss_mib();
        assert!(before > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mib() >= before + 60.0);
    }
}
