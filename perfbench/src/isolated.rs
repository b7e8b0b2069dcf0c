//! Isolated per-call costs of the layers hidden inside the event pump and
//! the service worker, timed in the benchmark's own process after the run.
//!
//! Each cost is the median over rounds of a round's mean per-call time, on
//! inputs drawn from the census corpus the service replays, so the MAC
//! kernel sees realistic page-table lines.

use std::hint::black_box;
use std::time::Instant;

use pagetable::addr::PhysAddr;
use ptguard::{Line, PtGuardConfig, PtGuardEngine};
use sched::{EventKey, EventWheel};
use serve::core::{Coalescer, Engine, Job, JobKind};
use serve::corpus::{census_corpus, CorpusEntry};
use serve::proto::{Request, Response};
use workloads::pte_census::CensusConfig;
use workloads::tracegen::TraceGenerator;
use workloads::WorkloadProfile;

use crate::measure::{median, Outcome};

const ROUNDS: usize = 7;

/// Median over rounds of the mean ns per call of `f(i)`, `calls` per round.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..calls {
        f(i); // warm-up: caches, lazily grown buffers
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// The isolated costs, in ns per call.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// `PteMac::compute`, one line.
    pub mac: f64,
    /// `PteMac::compute_batch_into` per line, at batch sizes 1, 2, 4, 8.
    pub batch_per_line: [f64; 4],
    /// `PtGuardEngine::process_write` of a pattern-matching line.
    pub write: f64,
    /// `EventWheel::post` followed by `pop`.
    pub post_pop: f64,
    /// `Coalescer::respond` per call with 1 and 8 jobs.
    pub respond_b1: f64,
    pub respond_b8: f64,
    /// One request and one response, each encoded and decoded.
    pub proto: f64,
}

/// The batch sizes of [`Costs::batch_per_line`].
pub const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

impl Costs {
    /// Records the costs as per-layer metrics (every traced run has them).
    pub fn record(&self, out: &mut Outcome) {
        out.set("sched.post_pop.ns", self.post_pop);
        out.set("ptguard.mac.ns", self.mac);
        out.set("ptguard.mac.batch_ns_per_line.b2", self.batch_per_line[1]);
        out.set("ptguard.mac.batch_ns_per_line.b4", self.batch_per_line[2]);
        out.set("ptguard.mac.batch_ns_per_line.b8", self.batch_per_line[3]);
        out.set("ptguard.write.ns", self.write);
        out.set("serve.respond.ns.b1", self.respond_b1);
        out.set("serve.respond.ns.b8", self.respond_b8);
        out.set("serve.proto.ns", self.proto);
    }

    /// Per-line MAC cost at a mean batch of `b` lines, interpolated
    /// linearly between the measured batch sizes.
    pub fn mac_per_line_at(&self, b: f64) -> f64 {
        interpolate(&BATCH_SIZES.map(|s| s as f64), &self.batch_per_line, b)
    }

    /// `Coalescer::respond` cost per call at a mean batch of `b` jobs.
    pub fn respond_at(&self, b: f64) -> f64 {
        interpolate(&[1.0, 8.0], &[self.respond_b1, self.respond_b8], b)
    }
}

fn interpolate(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let x = x.clamp(xs[0], xs[xs.len() - 1]);
    for i in 1..xs.len() {
        if x <= xs[i] {
            let t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
            return ys[i - 1] + t * (ys[i] - ys[i - 1]);
        }
    }
    ys[ys.len() - 1]
}

fn sample_corpus(engine: &Engine) -> Vec<CorpusEntry> {
    let cfg = CensusConfig {
        processes: 8,
        lines_per_process: 16,
        ..CensusConfig::default()
    };
    census_corpus(&cfg, 128, engine, &orchestrator::ThreadPool::new(1))
}

/// Measures every isolated cost (about half a second).
pub fn measure() -> Costs {
    let ptg = PtGuardConfig::default();
    let engine = Engine::new(&ptg);
    let corpus = sample_corpus(&engine);
    let n = corpus.len();
    let items: Vec<(Line, PhysAddr)> = corpus.iter().map(|e| (e.raw, e.addr)).collect();

    let mac = per_call_ns(20_000, |i| {
        let (line, addr) = &items[i % n];
        black_box(engine.mac().compute(black_box(line), *addr));
    });

    let mut out = Vec::with_capacity(8);
    let batch_per_line = BATCH_SIZES.map(|size| {
        let calls = 20_000 / size;
        per_call_ns(calls, |i| {
            let start = (i * size) % (n - size);
            out.clear();
            engine
                .mac()
                .compute_batch_into(black_box(&items[start..start + size]), &mut out);
            black_box(&out);
        }) / size as f64
    });

    let mut guard = PtGuardEngine::new(ptg);
    let write = per_call_ns(20_000, |i| {
        let (line, addr) = items[i % n];
        black_box(guard.process_write(black_box(line), addr));
    });

    let mut wheel: EventWheel<u32> = EventWheel::new();
    let mut id = 0u64;
    let post_pop = per_call_ns(200_000, |i| {
        id += 1;
        // A drain arm lands tens of ns to a few µs ahead of the frontier.
        let ahead = 20_000 + (i as u128 * 7_919) % 2_000_000;
        wheel.post(
            EventKey {
                ps: wheel.now_ps() + ahead,
                channel: (i % 4) as u32,
                id,
            },
            i as u32,
        );
        black_box(wheel.pop());
    });

    let jobs: Vec<Job> = corpus
        .iter()
        .enumerate()
        .map(|(i, e)| Job {
            kind: if i % 8 == 0 {
                JobKind::Embed
            } else {
                JobKind::Verify
            },
            id: i as u64,
            addr: e.addr,
            line: if i % 8 == 0 { e.raw } else { e.protected },
        })
        .collect();
    let mut coalescer = Coalescer::new();
    let mut respond = |size: usize| {
        per_call_ns(20_000 / size, |i| {
            let start = (i * size) % (n - size);
            let mut sink = 0u64;
            coalescer.respond(&engine, black_box(&jobs[start..start + size]), |k, _| {
                sink ^= k as u64;
            });
            black_box(sink);
        })
    };
    let respond_b1 = respond(1);
    let respond_b8 = respond(8);

    let mut buf = Vec::with_capacity(serve::proto::MAX_BODY);
    let proto = per_call_ns(100_000, |i| {
        let e = &corpus[i % n];
        let req = Request::Verify {
            id: i as u64,
            addr: e.addr.as_u64(),
            line: e.protected,
        };
        buf.clear();
        req.encode(&mut buf);
        black_box(Request::decode(black_box(&buf)).ok());
        let resp = Response::Verified {
            id: i as u64,
            ok: true,
        };
        buf.clear();
        resp.encode(&mut buf);
        black_box(Response::decode(black_box(&buf)).ok());
    });

    Costs {
        mac,
        batch_per_line,
        write,
        post_pop,
        respond_b1,
        respond_b8,
        proto,
    }
}

/// `TraceGenerator::next_op` alone, for the simulator's cost table.
pub fn next_op_ns(profile: WorkloadProfile, seed: u64) -> f64 {
    let mut generator = TraceGenerator::new(profile, seed);
    per_call_ns(1_000_000, |_| {
        black_box(generator.next_op());
    })
}
