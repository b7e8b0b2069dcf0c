//! Engine behaviour: DAG dependencies, determinism across worker counts,
//! failure propagation, and the observability surface (events + manifest).

use std::fs;
use std::path::PathBuf;

use orchestrator::{run_dag, JobOutcome, JobOutput, JobSpec, RunOptions};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "ptguard-eng-{tag}-{}-{:?}",
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

/// A diamond DAG: two leaves, two mid jobs halving/doubling, one join.
fn diamond() -> Vec<JobSpec> {
    let leaf = |i: u64| {
        JobSpec::new(format!("leaf{i}"), vec![format!("leaf:{i}")], move |_| {
            Ok(JobOutput::rendered(String::new()).metric("v", i as f64))
        })
    };
    let combine = |name: &str, factor: f64| {
        JobSpec::new(
            name,
            vec![format!("combine:{factor}")],
            move |deps: &[JobOutput]| {
                let sum: f64 = deps.iter().filter_map(|d| d.metric_value("v")).sum();
                Ok(JobOutput::rendered(String::new()).metric("v", sum * factor))
            },
        )
    };
    vec![
        leaf(3),
        leaf(5),
        combine("double", 2.0).after(vec![0, 1]),
        combine("halve", 0.5).after(vec![0, 1]),
        JobSpec::new("join", vec!["join".to_string()], |deps: &[JobOutput]| {
            let total: f64 = deps.iter().filter_map(|d| d.metric_value("v")).sum();
            Ok(JobOutput::rendered(format!("total={total}\n")).metric("total", total))
        })
        .after(vec![2, 3]),
    ]
}

#[test]
fn dependencies_flow_through_the_dag() {
    let report = run_dag(diamond(), RunOptions::default());
    assert!(report.error.is_none());
    let join = report.outputs[4].as_ref().unwrap();
    // (3+5)*2 + (3+5)*0.5 = 20
    assert_eq!(join.metric_value("total"), Some(20.0));
    assert_eq!(join.rendered, "total=20\n");
}

#[test]
fn results_are_identical_for_any_worker_count() {
    let serial = run_dag(
        diamond(),
        RunOptions {
            jobs: 1,
            ..RunOptions::default()
        },
    );
    for jobs in [2, 4, 8] {
        let parallel = run_dag(
            diamond(),
            RunOptions {
                jobs,
                ..RunOptions::default()
            },
        );
        assert_eq!(serial.outputs, parallel.outputs, "jobs={jobs}");
    }
}

#[test]
fn non_topological_order_is_rejected() {
    let bad = vec![JobSpec::new("self-dep", vec!["x".to_string()], |_| {
        Ok(JobOutput::default())
    })
    .after(vec![0])];
    let report = run_dag(bad, RunOptions::default());
    let err = report.error.expect("must be rejected");
    assert!(err.contains("does not precede"), "{err}");
}

#[test]
fn failed_dependency_skips_dependents_but_not_siblings() {
    let specs = vec![
        JobSpec::new("boom", vec!["boom".to_string()], |_| {
            Err("kaput".to_string())
        }),
        JobSpec::new("dependent", vec!["dep".to_string()], |_| {
            Ok(JobOutput::rendered("never".to_string()))
        })
        .after(vec![0]),
        JobSpec::new("independent", vec!["ind".to_string()], |_| {
            Ok(JobOutput::rendered("fine".to_string()))
        }),
    ];
    let report = run_dag(specs, RunOptions::default());
    assert!(report.error.as_deref().unwrap().contains("kaput"));
    assert_eq!(report.jobs[0].outcome, JobOutcome::Failed);
    assert_eq!(report.jobs[1].outcome, JobOutcome::Skipped);
    assert_eq!(report.jobs[2].outcome, JobOutcome::Executed);
    assert!(report.outputs[1].is_none());
    assert_eq!(report.outputs[2].as_ref().unwrap().rendered, "fine");
}

#[test]
fn the_run_error_names_the_first_failing_job_for_any_worker_count() {
    for jobs in [1, 2, 4] {
        let specs = vec![
            JobSpec::new("slow", vec!["slow".to_string()], |_| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                Err("late".to_string())
            }),
            JobSpec::new("fast", vec!["fast".to_string()], |_| {
                Err("early".to_string())
            }),
        ];
        let report = run_dag(
            specs,
            RunOptions {
                jobs,
                ..RunOptions::default()
            },
        );
        assert_eq!(report.error.as_deref(), Some("slow: late"), "jobs={jobs}");
    }
}

#[test]
fn panicking_job_is_a_failure_not_an_abort() {
    let specs = vec![JobSpec::new("panics", vec!["p".to_string()], |_| {
        panic!("deliberate test panic")
    })];
    let report = run_dag(specs, RunOptions::default());
    let err = report.error.expect("panic becomes an error");
    assert!(err.contains("deliberate test panic"), "{err}");
}

#[test]
fn run_dir_gets_events_and_manifest() {
    let tmp = TempDir::new("events");
    let run_dir = tmp.0.join("run-1");
    let report = run_dag(
        diamond(),
        RunOptions {
            label: "events-test".to_string(),
            jobs: 2,
            cache: None,
            run_dir: Some(run_dir.clone()),
        },
    );
    assert!(report.error.is_none());

    let events = fs::read_to_string(run_dir.join("events.jsonl")).unwrap();
    let lines: Vec<&str> = events.lines().collect();
    assert!(lines[0].contains("\"event\":\"run_start\""), "{}", lines[0]);
    assert!(
        lines.last().unwrap().contains("\"event\":\"run_finish\""),
        "{}",
        lines.last().unwrap()
    );
    assert_eq!(
        lines.iter().filter(|l| l.contains("\"job_start\"")).count(),
        5
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"job_finish\""))
            .count(),
        5
    );

    let manifest = fs::read_to_string(run_dir.join("manifest.json")).unwrap();
    let v = orchestrator::json::Value::parse(&manifest).unwrap();
    assert_eq!(v.get("run").unwrap().as_str(), Some("events-test"));
    assert_eq!(v.get("executed").unwrap().as_u64(), Some(5));
    assert_eq!(v.get("job_list").unwrap().as_arr().unwrap().len(), 5);
}
