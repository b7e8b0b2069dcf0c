//! End-to-end orchestration over real artefacts: byte-identical output for
//! any worker count, warm-cache runs executing nothing, multi-seed sweep
//! determinism, and an `exp` that refuses an unknown artefact first.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use experiments::orchestrate::{plan_artefacts, plan_sweep};
use experiments::Scale;
use orchestrator::{run_dag, DiskCache, RunOptions, RunReport};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "ptguard-expo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Fast artefacts exercised by these tests (stochastic + static).
fn subset() -> Vec<String> {
    ["table1", "priorwork", "coverage"]
        .iter()
        .map(ToString::to_string)
        .collect()
}

fn stdout_of(report: &RunReport) -> String {
    report
        .outputs
        .iter()
        .map(|o| o.as_ref().expect("job succeeded").rendered.clone())
        .collect()
}

#[test]
fn stdout_is_byte_identical_across_worker_counts() {
    let serial = run_dag(
        plan_artefacts(&subset(), Scale::Trial, 0, 1).unwrap().specs,
        RunOptions {
            jobs: 1,
            ..RunOptions::default()
        },
    );
    assert!(serial.error.is_none());
    let parallel = run_dag(
        plan_artefacts(&subset(), Scale::Trial, 0, 1).unwrap().specs,
        RunOptions {
            jobs: 4,
            ..RunOptions::default()
        },
    );
    assert!(parallel.error.is_none());
    assert_eq!(stdout_of(&serial), stdout_of(&parallel));
}

#[test]
fn warm_cache_rerun_executes_nothing_and_matches() {
    let tmp = TempDir::new("warm");
    let cache = DiskCache::open(&tmp.0).unwrap();
    let opts = |jobs| RunOptions {
        label: "warm".to_string(),
        jobs,
        cache: Some(cache.clone()),
        run_dir: None,
    };

    let cold = run_dag(
        plan_artefacts(&subset(), Scale::Trial, 0, 1).unwrap().specs,
        opts(2),
    );
    assert!(cold.error.is_none());
    assert_eq!(cold.executed, 3);

    let warm = run_dag(
        plan_artefacts(&subset(), Scale::Trial, 0, 1).unwrap().specs,
        opts(4),
    );
    assert!(warm.error.is_none());
    assert_eq!(warm.executed, 0, "warm run must be served from cache");
    assert_eq!(warm.cache_hits, 3);
    assert_eq!(stdout_of(&cold), stdout_of(&warm));
}

#[test]
fn sweep_aggregate_is_deterministic_and_jobs_independent() {
    let names = vec!["priorwork".to_string(), "coverage".to_string()];
    let seeds = [1u64, 2, 3];
    let serial = run_dag(
        plan_sweep(&names, Scale::Trial, &seeds, 1).unwrap().specs,
        RunOptions {
            jobs: 1,
            ..RunOptions::default()
        },
    );
    assert!(serial.error.is_none());
    let parallel = run_dag(
        plan_sweep(&names, Scale::Trial, &seeds, 1).unwrap().specs,
        RunOptions {
            jobs: 4,
            ..RunOptions::default()
        },
    );
    assert!(parallel.error.is_none());

    // Same seed set => identical aggregated tables, whatever the pool size.
    assert_eq!(stdout_of(&serial), stdout_of(&parallel));

    // The aggregate rows genuinely reflect seed spread: the stochastic
    // monotonic-pointer rate must have non-zero stdev across seeds.
    let plan = plan_sweep(&names, Scale::Trial, &seeds, 1).unwrap();
    let agg_idx = plan.sections[0].job;
    let agg = serial.outputs[agg_idx].as_ref().unwrap();
    let sd = agg
        .metric_value("1 random flip.monotonic.stdev")
        .expect("aggregated stdev metric");
    assert!(sd > 0.0, "expected seed spread, stdev = {sd}");
    assert!(agg.rendered.contains("±"), "table renders mean ± stdev");
}

#[test]
fn exp_names_an_unknown_artefact_before_touching_the_disk() {
    let cases: [&[&str]; 3] = [&["nope"], &["nope", "extra"], &["sweep", "nope"]];
    for args in cases {
        let tmp = TempDir::new("unknown");
        let out = Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(args)
            .current_dir(&tmp.0)
            .output()
            .expect("exp runs");
        assert!(!out.status.success(), "exp {args:?} succeeded");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "exp: unknown artefact: nope\n",
            "exp {args:?}"
        );
        // No `.exp-cache/` (nor anything else) is created for a bad name.
        let left: Vec<_> = fs::read_dir(&tmp.0).expect("temp dir").collect();
        assert!(left.is_empty(), "exp {args:?} left {left:?} behind");
    }
}
