//! The open-loop service workload (`serve-open`).
//!
//! Each rung of the ladder starts a fresh in-process server with one batch
//! worker, connects once, and times set-up until the first answered
//! request. A sender thread then sleeps until each request's scheduled
//! time (seeded Poisson arrivals) and sends it; the main thread receives.
//! Latency counts from the *scheduled* send, so a stalled sender charges
//! its delay to the requests behind it, and how late the sender ran is
//! reported. A rung whose sender ran later than the fixed limit is
//! invalid, and its latencies are reported as -1. Percentiles are robust:
//! the rung is cut into windows of equal scheduled time, and each reported
//! percentile is the median of the windows' percentiles, so one host
//! hiccup moves one window, not the run.
//!
//! The gated end-to-end cost is process CPU time per answered request on
//! the light rung, where batches hold one request: every request pays the
//! whole wire, reader, coalescer, kernel and writer path. On the heavier
//! rungs the CPU per request falls as batches grow, and batch sizes follow
//! the host's momentary speed, so the ladder's total swings with the host.
//! On a small shared host the latency percentiles swing from run to run by
//! far more than any useful bound, so they are reported, not gated.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use pagetable::addr::PhysAddr;
use ptguard::PtGuardConfig;
use serve::core::{BatchCore, Engine, Job, JobKind};
use serve::corpus::{census_corpus, CorpusEntry};
use serve::load::{arrival_schedule, request_for};
use serve::proto::{read_response, send_request, Request, Response, MAX_BODY};
use serve::server::{Server, ServerConfig};
use workloads::pte_census::CensusConfig;

use crate::config::ServeParams;
use crate::isolated;
use crate::measure::{median, peak_rss_mb, percentile, process_cpu_ns, Outcome};

/// A reply that takes longer than this counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Id of the set-up request (outside every schedule's id range).
const SETUP_ID: u64 = u64::MAX;
/// Marks a timestamp that never happened.
const NEVER: u64 = u64::MAX;

fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(NEVER)
}

/// Sleeps until `due_ns` after `start` (no spinning).
fn sleep_until(start: Instant, due_ns: u64) {
    let now = since(start);
    if now < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// One request's life at the generator, in ns from the rung's start.
#[derive(Debug, Clone, Copy)]
struct Record {
    scheduled: u64,
    sent: u64,
    received: u64,
}

/// The measured outcome of one rung.
#[derive(Debug)]
struct Rung {
    rate: u64,
    /// Every request's timestamps; dropped after the statistics unless the
    /// run is traced, so the generator's own memory stays small.
    records: Vec<Record>,
    scheduled: usize,
    answered: usize,
    failed: u64,
    problems: Vec<String>,
    setup_s: f64,
    served: u64,
    batches: u64,
    /// Process CPU time over the rung, set-up and shutdown included.
    cpu_ns: f64,
}

/// Robust percentiles of one rung.
#[derive(Debug, Clone, Copy)]
struct RungStats {
    lat_p50_us: f64,
    lat_p99_us: f64,
    late_p50_us: f64,
    late_p99_us: f64,
    achieved_rps: f64,
    mean_batch: f64,
}

/// Median over windows of each window's `p`-th percentile of `value`.
fn windowed(
    records: &[Record],
    windows: usize,
    p: f64,
    value: impl Fn(&Record) -> Option<f64>,
) -> f64 {
    let span = records.last().map_or(1, |r| r.scheduled.max(1));
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for r in records {
        if let Some(v) = value(r) {
            let w = ((r.scheduled as u128 * windows as u128) / (u128::from(span) + 1)) as usize;
            per_window[w.min(windows - 1)].push(v);
        }
    }
    let marks: Vec<f64> = per_window
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, p))
        .collect();
    median(&marks)
}

impl Rung {
    fn stats(&self, windows: usize) -> RungStats {
        let latency =
            |r: &Record| (r.received != NEVER).then(|| (r.received - r.scheduled) as f64 / 1e3);
        let lateness =
            |r: &Record| (r.sent != NEVER).then(|| r.sent.saturating_sub(r.scheduled) as f64 / 1e3);
        let first = self.records.first().map_or(0, |r| r.scheduled);
        let last = self
            .records
            .iter()
            .filter(|r| r.received != NEVER)
            .map(|r| r.received)
            .max()
            .unwrap_or(first);
        RungStats {
            lat_p50_us: windowed(&self.records, windows, 50.0, latency),
            lat_p99_us: windowed(&self.records, windows, 99.0, latency),
            late_p50_us: windowed(&self.records, windows, 50.0, lateness),
            late_p99_us: windowed(&self.records, windows, 99.0, lateness),
            achieved_rps: self.answered as f64 * 1e9 / (last - first).max(1) as f64,
            mean_batch: self.served as f64 / self.batches.max(1) as f64,
        }
    }
}

/// The request kind at schedule index `i`, as the server should see it.
fn expect_embed(i: usize, embed_every: usize) -> bool {
    embed_every > 0 && i.is_multiple_of(embed_every)
}

/// Runs one rung: fresh server, one connection, `rate × seconds` requests.
fn run_rung(
    p: &ServeParams,
    rate: u64,
    seconds: f64,
    seed: u64,
    corpus: &[CorpusEntry],
) -> Result<Rung, String> {
    let n = ((rate as f64 * seconds).round() as usize).max(1);
    let schedule = arrival_schedule(rate, n, seed);
    let setup_start = Instant::now();
    let server = Server::start(
        "127.0.0.1:0",
        &ServerConfig {
            ptguard: PtGuardConfig::default(),
            workers: p.workers,
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let stream =
        TcpStream::connect(server.local_addr()).map_err(|e| format!("connection refused: {e}"))?;
    let io = |e: std::io::Error| format!("connection: {e}");
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = BufWriter::new(stream);
    let mut scratch = Vec::with_capacity(MAX_BODY);
    let mut rbuf = Vec::with_capacity(MAX_BODY);

    let probe = &corpus[0];
    send_request(
        &mut writer,
        &Request::Verify {
            id: SETUP_ID,
            addr: probe.addr.as_u64(),
            line: probe.protected,
        },
        &mut scratch,
    )
    .and_then(|()| writer.flush())
    .map_err(io)?;
    match read_response(&mut reader, &mut rbuf) {
        Ok(Some(Response::Verified {
            id: SETUP_ID,
            ok: true,
        })) => {}
        other => return Err(format!("set-up request answered with {other:?}")),
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut records: Vec<Record> = schedule
        .iter()
        .map(|&scheduled| Record {
            scheduled,
            sent: NEVER,
            received: NEVER,
        })
        .collect();
    let mut problems = Vec::new();
    let mut wrong = 0u64;
    let start = Instant::now();
    let (sent_at, mut writer) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent_at = vec![NEVER; n];
            let mut scratch = Vec::with_capacity(MAX_BODY);
            for (i, &due) in schedule.iter().enumerate() {
                sleep_until(start, due);
                let req = request_for(i, corpus, p.embed_every);
                if send_request(&mut writer, &req, &mut scratch)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                sent_at[i] = since(start);
            }
            (sent_at, writer)
        });
        for _ in 0..n {
            let resp = match read_response(&mut reader, &mut rbuf) {
                Ok(Some(r)) => r,
                Ok(None) | Err(_) => break, // closed or timed out: the rest are unanswered
            };
            let now = since(start);
            let (id, good) = match resp {
                Response::Verified { id, ok } => {
                    (id, ok && !expect_embed(id as usize, p.embed_every))
                }
                Response::Embedded { id, line } => (
                    id,
                    expect_embed(id as usize, p.embed_every)
                        && corpus
                            .get(id as usize % corpus.len())
                            .is_some_and(|e| e.protected == line),
                ),
                other => {
                    problems.push(format!("unexpected response {other:?}"));
                    continue;
                }
            };
            match records.get_mut(id as usize) {
                Some(r) if r.received == NEVER => {
                    r.received = now;
                    if !good {
                        wrong += 1;
                    }
                }
                Some(_) => problems.push(format!("request {id} answered twice")),
                None => problems.push(format!("answer to unknown request {id}")),
            }
        }
        sender.join().expect("sender thread")
    });
    for (r, &t) in records.iter_mut().zip(&sent_at) {
        r.sent = t;
    }
    let sent = sent_at.iter().filter(|&&t| t != NEVER).count() as u64;
    let answered = records.iter().filter(|r| r.received != NEVER).count() as u64;

    // Shut down in band; the ack's count must match what was sent.
    send_request(&mut writer, &Request::Shutdown, &mut scratch)
        .and_then(|()| writer.flush())
        .map_err(io)?;
    let (served, batches) = loop {
        match read_response(&mut reader, &mut rbuf) {
            Ok(Some(Response::ShutdownAck { served, batches })) => break (served, batches),
            Ok(Some(_)) => problems.push("response after the last request".into()),
            other => return Err(format!("shutdown not acknowledged: {other:?}")),
        }
    };
    let stats = server.join();
    if served != sent + 1 {
        problems.push(format!(
            "ShutdownAck.served {served} != {} requests sent",
            sent + 1
        ));
    }
    if stats.requests != served {
        problems.push(format!(
            "server counted {} requests, ack {served}",
            stats.requests
        ));
    }
    if wrong > 0 {
        problems.push(format!("{wrong} wrong answers (mismatch or wrong line)"));
    }
    if answered < n as u64 {
        problems.push(format!(
            "{} of {n} requests unanswered",
            n as u64 - answered
        ));
    }
    Ok(Rung {
        rate,
        failed: wrong + (n as u64 - answered),
        records,
        scheduled: n,
        answered: answered as usize,
        problems,
        setup_s,
        served,
        batches,
        cpu_ns: 0.0,
    })
}

fn corpus_for(p: &ServeParams, seed: u64) -> Vec<CorpusEntry> {
    let cfg = CensusConfig {
        processes: p.census_processes,
        lines_per_process: p.census_lines_per_process,
        seed: seed ^ 0xce5,
        ..CensusConfig::default()
    };
    let engine = Engine::new(&PtGuardConfig::default());
    census_corpus(
        &cfg,
        p.corpus_lines,
        &engine,
        &orchestrator::ThreadPool::new(1),
    )
}

/// The ladder's measurements.
struct Ladder {
    rungs: Vec<(Rung, RungStats)>,
}

impl Ladder {
    fn rung(&self, rate: u64) -> &(Rung, RungStats) {
        self.rungs
            .iter()
            .find(|(r, _)| r.rate == rate)
            .expect("light and heavy rates are ladder rungs")
    }

    fn cpu_ns(&self) -> f64 {
        self.rungs.iter().map(|(r, _)| r.cpu_ns).sum()
    }
}

fn valid(p: &ServeParams, s: &RungStats) -> bool {
    s.late_p99_us <= p.lateness_p99_limit_us
}

/// Whether a rung meets the latency limit and keeps up with its rate.
fn meets(p: &ServeParams, rate: u64, s: &RungStats) -> bool {
    valid(p, s)
        && s.lat_p99_us <= p.p99_limit_us
        && s.achieved_rps >= p.min_achieved_ratio * rate as f64
}

fn run_ladder(
    p: &ServeParams,
    seed: u64,
    seconds: f64,
    corpus: &[CorpusEntry],
    keep_records: bool,
    out: &mut Outcome,
) -> Option<Ladder> {
    let per_rung = seconds / p.ladder_rps.len() as f64;
    let mut rungs = Vec::new();
    eprintln!(
        "  {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9}  verdict",
        "rate",
        "achieved",
        "p50 us",
        "p99 us",
        "late p50",
        "late p99",
        "batch",
        "setup ms",
        "cpu us/rq"
    );
    for &rate in &p.ladder_rps {
        let cpu0 = process_cpu_ns();
        let mut rung = match run_rung(p, rate, per_rung, seed, corpus) {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!("rung {rate}: {e}"));
                out.attempted += ((rate as f64 * per_rung).round() as u64).max(1);
                out.failed += ((rate as f64 * per_rung).round() as u64).max(1);
                return None;
            }
        };
        rung.cpu_ns = process_cpu_ns() - cpu0;
        let s = rung.stats(p.windows_per_rung);
        eprintln!(
            "  {:>8} {:>9.0} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.3} {:>9.3} {:>9.2}  {}",
            rate,
            s.achieved_rps,
            s.lat_p50_us,
            s.lat_p99_us,
            s.late_p50_us,
            s.late_p99_us,
            s.mean_batch,
            rung.setup_s * 1e3,
            rung.cpu_ns / 1e3 / rung.answered.max(1) as f64,
            if !valid(p, &s) {
                "invalid (sender late)"
            } else if meets(p, rate, &s) {
                "meets limit"
            } else {
                "misses limit"
            }
        );
        out.attempted += rung.scheduled as u64;
        out.failed += rung.failed;
        out.problems
            .extend(rung.problems.iter().map(|m| format!("rung {rate}: {m}")));
        if !keep_records {
            rung.records = Vec::new();
        }
        rungs.push((rung, s));
    }
    Some(Ladder { rungs })
}

/// Reported in place of a latency measured on a rung whose sender ran
/// late: that number describes the generator, not the service.
const INVALID: f64 = -1.0;

/// The ladder's headline numbers: the light and heavy rungs' latencies
/// (or [`INVALID`]) and the highest rate that meets the limits.
fn headline(p: &ServeParams, ladder: &Ladder) -> [(&'static str, f64, &'static str); 5] {
    let latencies = |rate: u64| {
        let (_, s) = ladder.rung(rate);
        if valid(p, s) {
            (s.lat_p50_us, s.lat_p99_us)
        } else {
            (INVALID, INVALID)
        }
    };
    let (light_p50, light_p99) = latencies(p.light_rps);
    let (heavy_p50, heavy_p99) = latencies(p.heavy_rps);
    let max_rps = ladder
        .rungs
        .iter()
        .filter(|(r, s)| meets(p, r.rate, s))
        .map(|(_, s)| s.achieved_rps)
        .next_back()
        .unwrap_or(0.0);
    [
        ("serve.lat_p50_us.light", light_p50, "us"),
        ("serve.lat_p99_us.light", light_p99, "us"),
        ("serve.lat_p50_us.heavy", heavy_p50, "us"),
        ("serve.lat_p99_us.heavy", heavy_p99, "us"),
        ("serve.max_rps", max_rps, "1/s"),
    ]
}

/// The untraced run.
pub fn untraced(p: &ServeParams, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let corpus = corpus_for(p, seed);
    let Some(ladder) = run_ladder(p, seed, seconds, &corpus, false, &mut out) else {
        return out;
    };
    let setups: Vec<f64> = ladder.rungs.iter().map(|(r, _)| r.setup_s).collect();
    let (light, _) = ladder.rung(p.light_rps);
    out.set(
        "host_ns_per_op",
        light.cpu_ns / light.answered.max(1) as f64,
    );
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    for (name, value, unit) in headline(p, &ladder) {
        out.note(name, value, unit);
    }
    out.note(
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out
}

/// Replays the light rung's schedule into an in-process `BatchCore` (no
/// sockets): per-request latency from the scheduled submit to delivery.
fn core_replay(
    p: &ServeParams,
    seed: u64,
    seconds: f64,
    corpus: &[CorpusEntry],
    out: &mut Outcome,
) -> (f64, f64) {
    let rate = p.light_rps;
    let n = ((rate as f64 * seconds).round() as usize).max(1);
    let schedule = arrival_schedule(rate, n, seed);
    let core: BatchCore<usize> = BatchCore::new(&PtGuardConfig::default());
    let start = Instant::now();
    let (done, wrong) = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut done = vec![NEVER; n];
            let mut wrong = 0u64;
            core.worker_loop(|i: usize, resp| {
                done[i] = since(start);
                let good = match resp {
                    Response::Verified { ok, .. } => ok,
                    Response::Embedded { line, .. } => corpus[i % corpus.len()].protected == line,
                    _ => false,
                };
                if !good {
                    wrong += 1;
                }
            });
            (done, wrong)
        });
        for (i, &due) in schedule.iter().enumerate() {
            sleep_until(start, due);
            let job = match request_for(i, corpus, p.embed_every) {
                Request::Embed { id, addr, line } => Job {
                    kind: JobKind::Embed,
                    id,
                    addr: PhysAddr::new(addr),
                    line,
                },
                Request::Verify { id, addr, line } => Job {
                    kind: JobKind::Verify,
                    id,
                    addr: PhysAddr::new(addr),
                    line,
                },
                _ => unreachable!("the load mix is embeds and verifies"),
            };
            core.submit(job, i);
        }
        core.begin_drain();
        worker.join().expect("core worker")
    });
    out.check(wrong == 0 && done.iter().all(|&t| t != NEVER), || {
        format!("in-process replay: {wrong} wrong answers")
    });
    let records: Vec<Record> = schedule
        .iter()
        .zip(&done)
        .map(|(&scheduled, &received)| Record {
            scheduled,
            sent: scheduled,
            received,
        })
        .collect();
    let latency =
        |r: &Record| (r.received != NEVER).then(|| (r.received - r.scheduled) as f64 / 1e3);
    (
        windowed(&records, p.windows_per_rung, 50.0, latency),
        windowed(&records, p.windows_per_rung, 99.0, latency),
    )
}

fn write_records(ladder: &Ladder, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "rate\tid\tscheduled_ns\tsent_ns\treceived_ns")?;
    let cell = |t: u64| {
        if t == NEVER {
            "-".to_string()
        } else {
            t.to_string()
        }
    };
    for (rung, _) in &ladder.rungs {
        for (id, r) in rung.records.iter().enumerate() {
            writeln!(
                w,
                "{}\t{id}\t{}\t{}\t{}",
                rung.rate,
                r.scheduled,
                cell(r.sent),
                cell(r.received)
            )?;
        }
    }
    w.flush()
}

/// The traced run: the ladder with per-request generator spans written
/// out, the light rung replayed in process, and the isolated costs.
pub fn traced(p: &ServeParams, seed: u64, seconds: f64, span_file: &Path) -> Outcome {
    let mut out = Outcome::default();
    let corpus = corpus_for(p, seed);
    let Some(ladder) = run_ladder(p, seed, seconds, &corpus, true, &mut out) else {
        return out;
    };
    if let Err(e) = write_records(&ladder, span_file) {
        out.problems
            .push(format!("writing {}: {e}", span_file.display()));
    }
    let per_rung = seconds / p.ladder_rps.len() as f64;
    let (core_p50, core_p99) = core_replay(p, seed, per_rung, &corpus, &mut out);
    let costs = isolated::measure();
    let (light_rung, light) = ladder.rung(p.light_rps);
    let (heavy_rung, heavy) = ladder.rung(p.heavy_rps);
    for (name, value, _) in headline(p, &ladder) {
        out.set(name, value);
    }

    out.set("serve.load.lateness_us.p50", heavy.late_p50_us);
    out.set("serve.load.lateness_us.p99", heavy.late_p99_us);
    out.set(
        "serve.load.achieved_ratio.light",
        light.achieved_rps / p.light_rps as f64,
    );
    out.set(
        "serve.load.achieved_ratio.heavy",
        heavy.achieved_rps / p.heavy_rps as f64,
    );
    out.set("serve.core.batch.mean", heavy.mean_batch);
    out.set("serve.core.lat_us.p50", core_p50);
    out.set("serve.core.lat_us.p99", core_p99);
    out.set(
        "serve.wire.overhead_us.p50",
        if valid(p, light) {
            light.lat_p50_us - core_p50
        } else {
            INVALID
        },
    );
    costs.record(&mut out);
    // The generator keeps the same three timestamps per request whether
    // traced or not; tracing only writes them out after the ladder.
    out.set("tracing.overhead_pct", 0.0);

    // Cost table: the ladder's process CPU time against codec and kernel
    // work at the counted requests and batches.
    let requests: u64 = ladder.rungs.iter().map(|(r, _)| r.served).sum();
    let batches: u64 = ladder.rungs.iter().map(|(r, _)| r.batches).sum();
    let mean_batch = requests as f64 / batches.max(1) as f64;
    let rows = [
        (
            "serve.proto encode+decode (isolated)",
            requests as f64,
            costs.proto,
        ),
        (
            "serve.respond at mean batch (isolated)",
            batches as f64,
            costs.respond_at(mean_batch),
        ),
    ];
    let explained: f64 = rows.iter().map(|(_, n, c)| n * c).sum();
    let cpu_ns = ladder.cpu_ns();
    let residual = 100.0 * (cpu_ns - explained) / cpu_ns;
    out.set("profile.residual_pct", residual);
    eprintln!(
        "  cost table (measured: {:.1} ms process CPU over {requests} requests, mean batch {mean_batch:.3})",
        cpu_ns / 1e6
    );
    for (name, n, c) in rows {
        eprintln!(
            "    {name:<42} {n:>10.0} x {c:>9.1} ns = {:>9.3} ms ({:>5.1} %)",
            n * c / 1e6,
            100.0 * n * c / cpu_ns
        );
    }
    eprintln!("    unexplained (syscalls, wake-ups, generator): {residual:.1} %");
    eprintln!(
        "  light rung {} requests, heavy rung {} requests; in-process core p50 {core_p50:.1} us p99 {core_p99:.1} us",
        light_rung.scheduled,
        heavy_rung.scheduled
    );
    out
}
