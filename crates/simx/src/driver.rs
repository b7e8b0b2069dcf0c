//! The windowed in-order driver shared by the single-core and multi-core
//! runners.
//!
//! Both runners execute the same issue/retire discipline against the
//! pipelined [`MemorySystem`]: each instruction advances the front-end
//! clock by a fixed `tick`, each memory op is issued into the pipeline,
//! and when the in-flight window is full the oldest op retires, folding
//! `t_issue + latency × scale` into the in-order retire horizon. They
//! differ only in units — the single-core runner ticks one cycle and keeps
//! the whole latency (`tick = 1`, `scale = 1`); the multi-core runner runs
//! in milli-cycles and keeps the unhidden fraction of each stall
//! (`tick = 1000`, `scale = EXPOSED_MILLIS`). Extracting the loop here keeps
//! the two from drifting apart; the identity tests
//! (`tests/pipeline_identity.rs`, `tests/controller_cycles.rs`) pin the
//! extraction bit-for-bit.
//!
//! Issue goes through [`MemorySystem::pipe_issue_event`], and the window
//! semantics are those of DESIGN.md §9:
//!
//! * a hit resolves at issue: it takes no slot, and stalls the front end
//!   for its latency (the clock moves to `max(finish_prev, issue +
//!   latency)`);
//! * a miss holds a slot until it retires: [`MemorySystem::pipe_wait`]
//!   runs the event pump, which jumps virtual time to the next DRAM
//!   completion; misses retire in order,
//!   `finish = max(finish_prev, issue + latency)`.
//!
//! At `mlp = 1` this is the paper's blocking sum, checked op for op
//! against the reference core `oracle::refmachine`
//! (`tests/pipeline_identity.rs`).

use std::collections::VecDeque;

use memsys::system::IssueOutcome;
use memsys::MemorySystem;
use pagetable::addr::VirtAddr;

/// The shared issue/retire window over a pipelined [`MemorySystem`].
#[derive(Debug)]
pub(crate) struct WindowedDriver {
    /// In-flight op cap ([`memsys::MemSysConfig::mlp`], clamped to ≥ 1).
    window: usize,
    /// Front-end clock advance per instruction (1 cycle or 1000 mc).
    tick: u64,
    /// Latency multiplier at retire (1, or the unhidden `EXPOSED_MILLIS`).
    scale: u64,
    /// Front-end clock (instruction issue), in `tick` units.
    clock: u64,
    /// In-order retire horizon: the max of every retired op's finish time.
    finish_prev: u64,
    /// `(op id, issue time)` of in-flight ops, oldest first.
    inflight: VecDeque<(u64, u64)>,
}

impl WindowedDriver {
    pub(crate) fn new(window: usize, tick: u64, scale: u64) -> Self {
        Self {
            window: window.max(1),
            tick,
            scale,
            clock: 0,
            finish_prev: 0,
            inflight: VecDeque::new(),
        }
    }

    /// Advances the front-end clock by one instruction.
    pub(crate) fn tick_instruction(&mut self) {
        self.clock += self.tick;
    }

    /// Issues one memory op; blocks (retiring oldest-first) while the
    /// window is full. Synchronous completions fold into the clock at
    /// issue and never enter the window.
    pub(crate) fn mem_op(&mut self, sys: &mut MemorySystem, va: VirtAddr, write: bool) {
        match sys.pipe_issue_event(va, write) {
            IssueOutcome::Done(out) => {
                debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
                // A hit takes no slot but stalls the front end for its
                // latency: the fold moves the clock to its finish.
                self.fold(self.clock, out.cycles());
            }
            IssueOutcome::Pending(id) => self.track(sys, id),
        }
    }

    /// Retires every in-flight op (end of a measured region or phase).
    pub(crate) fn drain(&mut self, sys: &mut MemorySystem) {
        while !self.inflight.is_empty() {
            self.retire_one(sys);
        }
    }

    /// Resets both clocks for a fresh measured region (the in-flight
    /// window must already be drained).
    pub(crate) fn reset_clocks(&mut self) {
        debug_assert!(self.inflight.is_empty(), "reset with ops in flight");
        self.clock = 0;
        self.finish_prev = 0;
    }

    /// The run's cycle count so far, in `tick` units.
    pub(crate) fn clock(&self) -> u64 {
        self.clock.max(self.finish_prev)
    }

    fn track(&mut self, sys: &mut MemorySystem, id: u64) {
        self.inflight.push_back((id, self.clock));
        while self.inflight.len() >= self.window {
            self.retire_one(sys);
        }
    }

    fn retire_one(&mut self, sys: &mut MemorySystem) {
        let (id, t_issue) = self
            .inflight
            .pop_front()
            .expect("retire needs an op in flight");
        let out = sys.pipe_wait(id);
        debug_assert!(out.is_ok(), "unexpected fault: {out:?}");
        self.fold(t_issue, out.cycles());
    }

    /// Folds one finished op into the in-order retire horizon. At a
    /// window of 1 this reproduces the blocking `+=` chain exactly:
    /// `finish_prev <= t_issue` always holds, so the max is the sum.
    fn fold(&mut self, t_issue: u64, cycles: u64) {
        let finish = (t_issue + cycles * self.scale).max(self.finish_prev);
        self.finish_prev = finish;
        self.clock = self.clock.max(finish);
    }
}
