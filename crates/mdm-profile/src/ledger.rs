//! The run ledger: one JSONL line per bench/instrumented invocation.
//!
//! The flight recorder ([`crate::events`]) documents one run in depth;
//! the ledger documents *every* run in one line, so performance and
//! accuracy can be compared **across** runs, commits, and machines.
//! Each line is a [`RunSummary`] carrying the environment stamp
//! ([`EnvStamp`]: git SHA, hostname, nproc) next to the measurement, so
//! a regression in `results/ledger.jsonl` is attributable — "slower
//! because the code changed" is distinguishable from "slower because
//! CI moved to a different machine".
//!
//! Appends are crash-safe: one `O_APPEND` write of one complete line,
//! so concurrent writers (a bench matrix, parallel CI jobs) interleave
//! whole records rather than shearing each other's bytes. The reader
//! ([`read_ledger`]) is tolerant: corrupt or foreign lines are counted
//! and skipped, never fatal — a ledger survives its own history.

use crate::json::Value;
use crate::summary::RunSummary;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Where the run came from: git SHA, hostname, and core count.
///
/// Thread count is deliberately *not* detected here — the profiling
/// crate has no dependency on the thread-pool backend, so the caller
/// (who knows the effective worker count) stamps it on the summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvStamp {
    /// Full commit SHA of the working tree's HEAD (`"unknown"` when
    /// undetectable, e.g. outside a git checkout).
    pub git_sha: String,
    /// Machine hostname (`"unknown"` when undetectable).
    pub hostname: String,
    /// Hardware parallelism (`nproc`); 0 when undetectable.
    pub nproc: u64,
}

impl EnvStamp {
    /// Detect the environment. `repo_root` is where `.git` lives; the
    /// `MDM_GIT_SHA` environment variable overrides detection (useful
    /// for CI runners that export the SHA but build from a tarball).
    pub fn detect(repo_root: &Path) -> Self {
        EnvStamp {
            git_sha: std::env::var("MDM_GIT_SHA")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .map(|s| s.trim().to_string())
                .or_else(|| git_head_sha(repo_root))
                .unwrap_or_else(|| "unknown".into()),
            hostname: hostname().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// Resolve HEAD to a commit SHA by reading `.git` directly — no `git`
/// subprocess, so this works in minimal containers.
fn git_head_sha(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return looks_like_sha(head).then(|| head.to_string());
    };
    let refname = refname.trim();
    if let Ok(sha) = fs::read_to_string(git.join(refname)) {
        let sha = sha.trim();
        if looks_like_sha(sha) {
            return Some(sha.to_string());
        }
    }
    // Loose ref absent: the ref may only exist packed.
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name.trim() == refname && looks_like_sha(sha)).then(|| sha.to_string())
    })
}

fn looks_like_sha(s: &str) -> bool {
    s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())
}

fn hostname() -> Option<String> {
    ["/proc/sys/kernel/hostname", "/etc/hostname"]
        .iter()
        .find_map(|p| fs::read_to_string(p).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
}

/// Append one summary to the ledger at `path`, creating the file (and
/// its parent directory) on first use.
///
/// Crash-safety comes from the shape of the write: the whole line —
/// summary plus newline — goes down in a single `write_all` on an
/// `O_APPEND` descriptor. A crash mid-run loses at most this one line,
/// and concurrent appenders interleave whole lines.
pub fn append_record(path: &Path, summary: &RunSummary) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut line = summary.to_json().to_compact();
    line.push('\n');
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Parse ledger text: returns the readable summaries in file order plus
/// the number of lines that were skipped as corrupt or foreign.
pub fn parse_ledger(text: &str) -> (Vec<RunSummary>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Value::parse(line)
            .ok()
            .and_then(|v| RunSummary::from_json(&v).ok())
        {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

/// Read and parse the ledger file at `path`. A missing file is an
/// empty ledger, not an error.
pub fn read_ledger(path: &Path) -> io::Result<(Vec<RunSummary>, usize)> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(parse_ledger(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Vec::new(), 0)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample_record(label: &str, s_per_step: f64) -> RunSummary {
        RunSummary {
            tool: "profile_step".into(),
            label: label.into(),
            n_particles: 4096,
            steps: 10,
            seconds_per_step: s_per_step,
            ..RunSummary::default()
        }
    }

    /// A unique temp path per call — tests run concurrently.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mdm_ledger_{tag}_{}_{seq}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn minimal_and_foreign_lines_are_tolerated() {
        // A minimal row (older writer): only the required keys.
        let text = concat!(
            "{\"type\":\"run\",\"tool\":\"bench_compare\",\"label\":\"nacl-512\",",
            "\"wall_seconds_per_step\":0.07}\n",
            "this line is not json at all\n",
            "{\"type\":\"step\",\"step\":3}\n",
            "\n",
        );
        let (records, skipped) = parse_ledger(text);
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 2, "garbage and foreign lines skip, blanks don't count");
        let r = &records[0];
        assert_eq!(r.label, "nacl-512");
        assert_eq!(r.env.git_sha, "unknown");
        assert_eq!(r.threads, 0);
        assert!(r.phases.is_empty() && r.gflops.is_empty());
        assert_eq!(r.bus_dropped_events, 0);
        assert_eq!(r.critical_path, None);
        assert!(r.raw_tflops.is_none());
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("roundtrip");
        append_record(&path, &sample_record("nacl-512", 0.071)).unwrap();
        append_record(&path, &sample_record("nacl-4096", 0.886)).unwrap();
        let (records, skipped) = read_ledger(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "nacl-512");
        assert_eq!(records[1].label, "nacl-4096");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_ledger_reads_empty() {
        let (records, skipped) = read_ledger(&temp_path("missing")).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn concurrent_appenders_interleave_whole_lines() {
        let path = temp_path("concurrent");
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = path.clone();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let record = sample_record(&format!("w{w}-r{i}"), 0.1);
                        append_record(&path, &record).unwrap();
                    }
                });
            }
        });
        let (records, skipped) = read_ledger(&path).unwrap();
        assert_eq!(skipped, 0, "no sheared lines under concurrent append");
        assert_eq!(records.len(), WRITERS * PER_WRITER);
        // Every writer's every record arrived exactly once.
        let mut labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WRITERS * PER_WRITER);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn env_stamp_detects_this_repo() {
        // The test binary runs from the workspace; walk up until `.git`
        // is found so the assertion holds from any crate dir.
        let mut root = std::env::current_dir().unwrap();
        while !root.join(".git").exists() {
            assert!(root.pop(), "no .git above the test cwd");
        }
        let env = EnvStamp::detect(&root);
        assert!(
            looks_like_sha(&env.git_sha),
            "expected a hex sha, got {:?}",
            env.git_sha
        );
        assert!(!env.hostname.is_empty());
        assert!(env.nproc >= 1);
    }

    #[test]
    fn env_stamp_outside_a_repo_is_unknown() {
        // Only meaningful when the override is unset (it is in CI/dev).
        if std::env::var("MDM_GIT_SHA").is_ok() {
            return;
        }
        let env = EnvStamp::detect(&std::env::temp_dir());
        assert_eq!(env.git_sha, "unknown");
    }
}
