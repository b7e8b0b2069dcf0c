//! The `exp record` / `exp replay` / `exp trace-stats` pipeline.
//!
//! `record` captures a workload's exact op stream (warm-up region plus
//! measured region, i.e. 2 × the scale's instruction budget) into the
//! binary trace format of the [`trace`] crate. `replay` rebuilds the same
//! machine from the trace header and executes the recorded stream through
//! the streaming [`TraceReader`]; because the machine build is
//! seed-independent and the stream is byte-exact, the replayed
//! [`RunResult`] is bit-identical to the live run the trace was recorded
//! from. `trace-stats` summarizes a trace without simulating it.

use std::path::Path;

use simx::runner::{build_machine_from_source, run, simulate_workload_with, Protection, RunResult};
use trace::{record_to_file, TraceReader, TraceStats};
use workloads::profiles::by_name;
use workloads::tracegen::TraceGenerator;
use workloads::WorkloadProfile;

/// DRAM capacity used by both live and replayed runs (matches
/// [`simx::runner::simulate_workload`]).
const DRAM_GB: u64 = 4;

/// Records `2 × instructions` ops of `profile_name` into `path`.
///
/// Returns a one-line summary (path, op count, file size).
pub fn record(
    profile_name: &str,
    instructions: u64,
    seed: u64,
    path: &Path,
) -> Result<String, String> {
    let profile = lookup(profile_name)?;
    let op_count = 2 * instructions; // warm-up region + measured region
    let ops = TraceGenerator::new(profile, seed);
    record_to_file(path, profile.name, seed, op_count, ops)
        .map_err(|e| format!("recording failed: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "recorded {op_count} ops of {} (seed {seed:#x}) to {} ({:.2} MB, {:.2} bits/op)\n",
        profile.name,
        path.display(),
        bytes as f64 / (1 << 20) as f64,
        8.0 * bytes as f64 / op_count as f64,
    ))
}

/// Replays the trace at `path` under `protection`.
///
/// The first half of the stream warms caches and TLB (unmeasured), the
/// second half is the measured region — mirroring
/// [`simx::runner::simulate_workload`], so the result is bit-identical to
/// the live run with the same profile, seed, and protection.
pub fn replay(path: &Path, protection: Protection) -> Result<RunResult, String> {
    let mut checker = TraceReader::open(path).map_err(|e| format!("cannot open trace: {e}"))?;
    let header = checker.header().clone();
    let profile = lookup(&header.profile)?;
    if header.op_count == 0 || header.op_count % 2 != 0 {
        return Err(format!(
            "trace holds {} ops; expected an even, non-zero count (warm-up + measured)",
            header.op_count
        ));
    }
    // Validate the full stream before simulating: inside the run the op
    // source can only panic on a decode error, so corruption and
    // truncation must be rejected here, as ordinary errors.
    for op in &mut checker {
        op.map_err(|e| format!("invalid trace: {e}"))?;
    }
    drop(checker);
    let reader = TraceReader::open(path).map_err(|e| format!("cannot open trace: {e}"))?;
    let half = header.op_count / 2;
    let mut machine = build_machine_from_source(reader, profile, protection, DRAM_GB);
    let _ = run(&mut machine, half); // warm-up, discarded
    Ok(run(&mut machine, half))
}

/// Replays `path` and also performs the equivalent live run, returning
/// `(replayed, live)` — the pair the determinism tests compare.
pub fn replay_vs_live(
    path: &Path,
    protection: Protection,
) -> Result<(RunResult, RunResult), String> {
    let reader = TraceReader::open(path).map_err(|e| format!("cannot open trace: {e}"))?;
    let header = reader.header().clone();
    drop(reader);
    let replayed = replay(path, protection)?;
    let profile = lookup(&header.profile)?;
    let live = simulate_workload_with(profile, protection, header.op_count / 2, header.seed);
    Ok((replayed, live))
}

/// Renders a [`RunResult`] as the replay report.
#[must_use]
pub fn render_result(source: &str, r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("replayed {source}\n"));
    out.push_str(&format!("  instructions     {:>12}\n", r.instructions));
    out.push_str(&format!("  cycles           {:>12}\n", r.cycles));
    out.push_str(&format!("  IPC              {:>12.4}\n", r.ipc()));
    out.push_str(&format!("  LLC MPKI         {:>12.3}\n", r.mpki));
    out.push_str(&format!("  page walks       {:>12}\n", r.walks));
    out.push_str(&format!("  MAC computations {:>12}\n", r.mac_computations));
    out.push_str(&format!("  integrity faults {:>12}\n", r.integrity_faults));
    out
}

/// Renders the `trace-stats` report for the trace at `path`.
pub fn render_stats(path: &Path) -> Result<String, String> {
    let mut reader = TraceReader::open(path).map_err(|e| format!("cannot open trace: {e}"))?;
    let header = reader.header().clone();
    let hot_end = by_name(&header.profile)
        .map(|p: WorkloadProfile| TraceGenerator::HEAP_BASE + p.hot_pages * 4096);
    let s =
        TraceStats::collect(&mut reader, hot_end).map_err(|e| format!("unreadable trace: {e}"))?;
    let pct = |n: u64| 100.0 * n as f64 / s.ops.max(1) as f64;
    let mut out = String::new();
    out.push_str(&format!(
        "trace {} (format v{})\n",
        path.display(),
        header.version
    ));
    out.push_str(&format!("  profile        {}\n", header.profile));
    out.push_str(&format!("  seed           {:#x}\n", header.seed));
    out.push_str(&format!("  ops            {}\n", s.ops));
    out.push_str(&format!(
        "  op mix         {:.1}% compute / {:.1}% load / {:.1}% store\n",
        pct(s.computes),
        pct(s.loads),
        pct(s.stores)
    ));
    out.push_str(&format!(
        "  footprint      {} pages ({:.2} MB touched)\n",
        s.unique_pages,
        s.footprint_bytes() as f64 / (1 << 20) as f64
    ));
    if hot_end.is_some() {
        let mem = s.mem_ops().max(1);
        out.push_str(&format!(
            "  hot/cold split {:.1}% hot / {:.1}% cold of {} memory ops\n",
            100.0 * s.hot_accesses as f64 / mem as f64,
            100.0 * s.cold_accesses as f64 / mem as f64,
            s.mem_ops()
        ));
    } else {
        out.push_str("  hot/cold split unavailable (unknown profile)\n");
    }
    Ok(out)
}

fn lookup(name: &str) -> Result<WorkloadProfile, String> {
    by_name(name).ok_or_else(|| format!("unknown workload profile: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptguard::PtGuardConfig;

    #[test]
    fn record_replay_is_bit_identical_to_live() {
        let dir = std::env::temp_dir().join("ptguard-rr-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("xz.pttrace");
        record("xz", 20_000, 0xabc, &path).unwrap();
        for protection in [
            Protection::None,
            Protection::PtGuard(PtGuardConfig::default()),
        ] {
            let (replayed, live) = replay_vs_live(&path, protection).unwrap();
            assert_eq!(replayed.cycles, live.cycles);
            assert_eq!(replayed.walks, live.walks);
            assert_eq!(replayed.mac_computations, live.mac_computations);
            assert!((replayed.mpki - live.mpki).abs() == 0.0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_truncated_trace_is_a_plain_error_not_a_panic() {
        let dir = std::env::temp_dir().join("ptguard-rr-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.pttrace");
        record("mcf", 5_000, 9, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = replay(&path, Protection::None).unwrap_err();
        assert!(err.contains("invalid trace"), "{err}");

        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        let err = replay(&path, Protection::None).unwrap_err();
        assert!(err.contains("invalid trace"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_profile_is_a_plain_error() {
        let err = record("no-such-workload", 100, 1, Path::new("/dev/null")).unwrap_err();
        assert!(err.contains("unknown workload profile"));
    }

    #[test]
    fn stats_report_mentions_the_profile() {
        let dir = std::env::temp_dir().join("ptguard-rr-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.pttrace");
        record("mcf", 5_000, 7, &path).unwrap();
        let report = render_stats(&path).unwrap();
        assert!(report.contains("profile        mcf"));
        assert!(report.contains("ops            10000"));
        std::fs::remove_file(&path).ok();
    }
}
