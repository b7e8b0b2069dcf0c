//! The TCP front end: accept loop, per-connection reader/writer threads,
//! and graceful in-band shutdown.
//!
//! Each connection gets a *reader* thread (decodes frames, submits jobs to
//! the shared [`BatchCore`]) and a *writer* thread (flushes responses from
//! the connection's outbox). Workers deliver responses by pushing into
//! the owning connection's outbox, so slow clients only back-pressure
//! themselves. The outbox queue holds [`Response`] values (`Copy` lines,
//! no heap), and its `VecDeque` retains capacity, so the steady-state
//! response path allocates nothing.
//!
//! ## Shutdown protocol (in-band)
//!
//! A client sends a `Shutdown` control frame. The receiving reader:
//!
//! 1. calls [`BatchCore::begin_drain`] — new submissions are rejected and
//!    the call blocks until every already-accepted job has been answered
//!    into its outbox (no request is silently dropped);
//! 2. enqueues a `ShutdownAck` carrying the final counters *behind* any
//!    of its own connection's pending responses, so the ack is always the
//!    last frame that client reads;
//! 3. stops the accept loop and half-closes (`Shutdown::Read`) every other
//!    connection, which lets their writers flush all remaining responses
//!    before the sockets close.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ptguard::PtGuardConfig;

use crate::core::{BatchCore, CoreStats, Job, JobKind};
use crate::proto::{read_frame, send_response, Request, Response};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The PT-Guard design point the MAC engine runs.
    pub ptguard: PtGuardConfig,
    /// Worker threads draining the batch core (minimum 1). One worker
    /// makes the response stream deterministic; more add throughput.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            ptguard: PtGuardConfig::default(),
            workers: default_workers(),
        }
    }
}

/// Default worker count: up to 4, bounded by available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4)
}

/// A connection's response queue. Workers push; the writer thread pops,
/// encodes, and flushes.
struct Outbox {
    queue: Mutex<std::collections::VecDeque<Response>>,
    cv: Condvar,
    /// Jobs submitted (or acks enqueued) whose responses the writer has
    /// not yet written. The writer exits once the reader is done and this
    /// reaches zero — i.e. every accepted request has been answered.
    outstanding: AtomicUsize,
    reader_done: AtomicBool,
}

impl Outbox {
    fn new() -> Self {
        Self {
            queue: Mutex::new(std::collections::VecDeque::new()),
            cv: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            reader_done: AtomicBool::new(false),
        }
    }

    fn push(&self, resp: Response) {
        self.queue.lock().expect("outbox lock").push_back(resp);
        self.cv.notify_one();
    }

    fn reader_finished(&self) {
        self.reader_done.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Blocks for the next response; `None` when the connection is done
    /// (reader finished and every accepted job answered and written).
    fn next(&self) -> Option<Response> {
        let mut q = self.queue.lock().expect("outbox lock");
        loop {
            if let Some(r) = q.pop_front() {
                return Some(r);
            }
            if self.reader_done.load(Ordering::SeqCst)
                && self.outstanding.load(Ordering::SeqCst) == 0
            {
                return None;
            }
            q = self.cv.wait(q).expect("outbox lock");
        }
    }
}

struct Shared {
    core: BatchCore<Arc<Outbox>>,
    stop: AtomicBool,
    /// Read-half clones of every live connection, for the shutdown
    /// half-close sweep.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    final_stats: Mutex<Option<CoreStats>>,
    addr: SocketAddr,
}

/// A running `ptguard-serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop plus `cfg.workers` batch workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(addr: impl ToSocketAddrs, cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: BatchCore::new(&cfg.ptguard),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            final_stats: Mutex::new(None),
            addr: local,
        });

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    shared.core.worker_loop(|outbox: Arc<Outbox>, resp| {
                        outbox.push(resp);
                    });
                })
            })
            .collect();

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server {
            shared,
            accept_thread,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until a client-initiated shutdown completes, then joins all
    /// threads and returns the final service counters.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    #[must_use]
    pub fn join(self) -> CoreStats {
        self.accept_thread.join().expect("accept thread");
        loop {
            let handle = self.shared.conn_threads.lock().expect("threads lock").pop();
            match handle {
                Some(h) => h.join().expect("connection thread"),
                None => break,
            }
        }
        for w in self.workers {
            w.join().expect("worker thread");
        }
        self.shared
            .final_stats
            .lock()
            .expect("stats lock")
            .take()
            .unwrap_or_else(|| self.shared.core.stats_snapshot())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection lands here
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(read_clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(read_clone);
        }
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || handle_connection(stream, &shared_conn));
        shared
            .conn_threads
            .lock()
            .expect("threads lock")
            .push(handle);
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let outbox = Arc::new(Outbox::new());
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::spawn(move || writer_loop(writer_stream, &outbox))
    };
    reader_loop(stream, &outbox, shared);
    outbox.reader_finished();
    let _ = writer.join();
}

/// Decodes frames and feeds the batch core until EOF, a protocol error, or
/// shutdown. Malformed input (bad CRC, oversized length, truncation,
/// unknown opcode) terminates only this connection.
fn reader_loop(stream: TcpStream, outbox: &Arc<Outbox>, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::with_capacity(crate::proto::MAX_BODY);
    loop {
        match read_frame(&mut reader, &mut buf) {
            Ok(true) => {}
            Ok(false) | Err(_) => return, // clean EOF or per-connection abort
        }
        let Ok(req) = Request::decode(&buf) else {
            return;
        };
        match req {
            Request::Shutdown => {
                let stats = shared.core.begin_drain();
                outbox.outstanding.fetch_add(1, Ordering::SeqCst);
                outbox.push(Response::ShutdownAck {
                    served: stats.requests,
                    batches: stats.batches,
                });
                *shared.final_stats.lock().expect("stats lock") = Some(stats);
                begin_global_close(shared);
                return;
            }
            Request::Embed { id, addr, line } => {
                if !submit(shared, outbox, JobKind::Embed, id, addr, line) {
                    return;
                }
            }
            Request::Verify { id, addr, line } => {
                if !submit(shared, outbox, JobKind::Verify, id, addr, line) {
                    return;
                }
            }
            Request::Correct { id, addr, line } => {
                if !submit(shared, outbox, JobKind::Correct, id, addr, line) {
                    return;
                }
            }
        }
    }
}

fn submit(
    shared: &Shared,
    outbox: &Arc<Outbox>,
    kind: JobKind,
    id: u64,
    addr: u64,
    line: ptguard::Line,
) -> bool {
    outbox.outstanding.fetch_add(1, Ordering::SeqCst);
    let accepted = shared.core.submit(
        Job {
            kind,
            id,
            addr: pagetable::addr::PhysAddr::new(addr),
            line,
        },
        Arc::clone(outbox),
    );
    if !accepted {
        // Draining: roll the count back and close this connection.
        outbox.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
    accepted
}

/// Stops the accept loop and half-closes every connection's read side so
/// readers see EOF while writers still flush their pending responses.
fn begin_global_close(shared: &Arc<Shared>) {
    shared.stop.store(true, Ordering::SeqCst);
    // Unblock the accept() call.
    let _ = TcpStream::connect(shared.addr);
    for conn in shared.conns.lock().expect("conns lock").drain(..) {
        let _ = conn.shutdown(SockShutdown::Read);
    }
}

fn writer_loop(stream: TcpStream, outbox: &Outbox) {
    let mut writer = BufWriter::new(&stream);
    let mut scratch = Vec::with_capacity(crate::proto::MAX_BODY);
    while let Some(resp) = outbox.next() {
        if send_response(&mut writer, &resp, &mut scratch).is_err() {
            break; // client gone; responses are droppable now
        }
        outbox.outstanding.fetch_sub(1, Ordering::SeqCst);
        // Flush whenever no further response is immediately queued.
        if outbox.queue.lock().expect("outbox lock").is_empty() && writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
    let _ = stream.shutdown(SockShutdown::Both);
}
