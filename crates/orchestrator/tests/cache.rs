//! Disk-cache behaviour: hit/miss, invalidation on key-material change,
//! corruption tolerance, and interrupted-run resume.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use orchestrator::hash::stable_key;
use orchestrator::{run_dag, DiskCache, JobOutput, JobSpec, RunOptions};

/// A unique temp dir per test, cleaned up on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "ptguard-orch-{tag}-{}-{:?}",
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

#[test]
fn store_then_load_roundtrips() {
    let tmp = TempDir::new("roundtrip");
    let cache = DiskCache::open(&tmp.0).unwrap();
    let out = JobOutput::rendered("hello ± world\n".to_string()).metric("x", 1.5);
    cache.store("abc123", &out).unwrap();
    assert_eq!(cache.load("abc123"), Some(out));
}

#[test]
fn missing_entry_is_a_miss() {
    let tmp = TempDir::new("miss");
    let cache = DiskCache::open(&tmp.0).unwrap();
    assert_eq!(cache.load("deadbeef"), None);
}

#[test]
fn changed_key_material_changes_the_key() {
    // The engine derives keys from key material; a fingerprint
    // change must produce a different key, i.e. a miss.
    let a = stable_key(&["artefact:fig6", "fingerprint:aaaa"]);
    let b = stable_key(&["artefact:fig6", "fingerprint:bbbb"]);
    assert_ne!(a, b);

    let tmp = TempDir::new("invalidate");
    let cache = DiskCache::open(&tmp.0).unwrap();
    cache
        .store(&a, &JobOutput::rendered("old".to_string()))
        .unwrap();
    assert!(cache.load(&a).is_some());
    assert_eq!(cache.load(&b), None, "new fingerprint must miss");
}

#[test]
fn corrupted_entries_fall_back_to_miss_without_panicking() {
    let tmp = TempDir::new("corrupt");
    let cache = DiskCache::open(&tmp.0).unwrap();
    let out = JobOutput::rendered("precious".to_string());
    cache.store("key1", &out).unwrap();

    for garbage in [
        "",                                                  // empty file
        "not json at all",                                   // syntax error
        "{\"v\":1}",                                         // schema drift
        "{\"v\":99,\"key\":\"key1\",\"crc\":0,\"body\":{}}", // wrong version
    ] {
        fs::write(cache.entry_path("key1"), garbage).unwrap();
        assert_eq!(cache.load("key1"), None, "garbage {garbage:?} must miss");
    }

    // Bit-rot inside an otherwise valid envelope: flip a byte of the body.
    cache.store("key1", &out).unwrap();
    let mut text = fs::read_to_string(cache.entry_path("key1")).unwrap();
    let i = text.find("precious").unwrap();
    text.replace_range(i..=i, "q");
    fs::write(cache.entry_path("key1"), text).unwrap();
    assert_eq!(cache.load("key1"), None, "crc mismatch must miss");
}

#[test]
fn a_deeply_nested_entry_is_a_miss_not_a_stack_overflow() {
    let tmp = TempDir::new("deep");
    let cache = DiskCache::open(&tmp.0).unwrap();
    fs::write(cache.entry_path("key1"), "[".repeat(1_000_000)).unwrap();
    assert_eq!(cache.load("key1"), None);
}

#[test]
fn engine_serves_warm_cache_without_executing() {
    let tmp = TempDir::new("warm");
    let cache = DiskCache::open(&tmp.0).unwrap();
    let executions = Arc::new(AtomicUsize::new(0));

    let make_specs = |counter: Arc<AtomicUsize>| {
        (0..5)
            .map(|i| {
                let counter = Arc::clone(&counter);
                JobSpec::new(format!("job{i}"), vec![format!("job:{i}")], move |_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(JobOutput::rendered(format!("out{i}")))
                })
            })
            .collect::<Vec<_>>()
    };

    let opts = || RunOptions {
        label: "warm-test".to_string(),
        jobs: 2,
        cache: Some(cache.clone()),
        run_dir: None,
    };

    let cold = run_dag(make_specs(Arc::clone(&executions)), opts());
    assert_eq!(cold.executed, 5);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(executions.load(Ordering::SeqCst), 5);

    let warm = run_dag(make_specs(Arc::clone(&executions)), opts());
    assert_eq!(warm.executed, 0, "warm run must not execute anything");
    assert_eq!(warm.cache_hits, 5);
    assert_eq!(executions.load(Ordering::SeqCst), 5, "closures never ran");
    for (a, b) in cold.outputs.iter().zip(&warm.outputs) {
        assert_eq!(a, b, "cached output must be byte-identical");
    }
}

#[test]
fn interrupted_run_resumes_with_only_missing_jobs() {
    // Simulate a killed run: the first attempt fails on job 2, leaving
    // jobs 0/1/3/4 cached (independent jobs keep running). The "resumed"
    // attempt re-executes only job 2.
    let tmp = TempDir::new("resume");
    let cache = DiskCache::open(&tmp.0).unwrap();
    let executions = Arc::new(AtomicUsize::new(0));

    let make_specs = |counter: Arc<AtomicUsize>, fail_job2: bool| {
        (0..5)
            .map(|i| {
                let counter = Arc::clone(&counter);
                JobSpec::new(format!("job{i}"), vec![format!("job:{i}")], move |_| {
                    if i == 2 && fail_job2 {
                        return Err("simulated crash".to_string());
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(JobOutput::rendered(format!("out{i}")))
                })
            })
            .collect::<Vec<_>>()
    };

    let opts = || RunOptions {
        label: "resume-test".to_string(),
        jobs: 2,
        cache: Some(cache.clone()),
        run_dir: None,
    };

    let first = run_dag(make_specs(Arc::clone(&executions), true), opts());
    assert!(first.error.is_some());
    assert_eq!(first.executed, 4, "independent jobs still complete");
    assert_eq!(executions.load(Ordering::SeqCst), 4);

    let resumed = run_dag(make_specs(Arc::clone(&executions), false), opts());
    assert!(resumed.error.is_none());
    assert_eq!(resumed.cache_hits, 4, "completed jobs come from cache");
    assert_eq!(resumed.executed, 1, "only the missing job re-executes");
    assert_eq!(executions.load(Ordering::SeqCst), 5);
}
