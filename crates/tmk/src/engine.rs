//! Resumable host state for the event-driven engine — tasks, not
//! threads — and the one memory surface region bodies are written
//! against.
//!
//! The thread-backed simulation in [`crate::system`] parks each host's
//! protocol position in an OS stack: an application thread blocked in a
//! barrier *is* the state "arrived at barrier". That representation
//! costs two threads per simulated host and tops sweeps out near 32
//! hosts. This module provides the alternative the scale sweeps run
//! on: each host's position between communication points is an explicit
//! enum ([`HostState`]), each parallel-region body is a resumable state
//! machine ([`RegionTask`]) stepped by a scheduler, and shared memory
//! is a flat word store ([`SimMemory`]) with phase-buffered writes.
//! Parking a host is then a data move, not a stack switch — the
//! typestate idiom (xv6's `CPUState`): invalid protocol positions are
//! unrepresentable, and *which* communication point a host is parked at
//! is pattern-matchable by the engine.
//!
//! ## One kernel source
//!
//! A region body is written once, as a [`RegionTask`] generic over
//! [`WordMem`] — the word-addressed memory both engines expose. The
//! task engine boxes it over a [`TaskCtx`]; the thread engine runs the
//! same value over a `TmkCtx` through a blocking adaptor
//! (`nowmp_omp::OmpCtx::run_task`) that turns [`Step::Barrier`] into a
//! DSM barrier. Dispatch on the thread engine is static, so the DSM
//! sees exactly the accesses, in exactly the order, of a hand-written
//! region closure.
//!
//! ## Memory model
//!
//! Lazy release consistency says writes become visible at the next
//! synchronization. The task engine takes that literally:
//! [`TaskCtx`] reads hit the pre-phase [`SimMemory`] snapshot; writes
//! buffer into the step's [`StepOutcome`]; the engine applies all
//! buffers in pid order at the barrier / region end. One rule follows
//! for kernels: **within one phase, never read a location after
//! writing it** — read-your-own-write needs the next phase. (The
//! paper kernels are phase-structured exactly this way.)
//!
//! The engine that drives these types — scheduling, virtual time,
//! adaptation — lives in `nowmp_core::engine`; the paper kernels' region
//! bodies live beside their serial references in `nowmp_apps`.

use std::collections::BTreeSet;

use crate::types::{Addr, PageId, Pid};

/// What a [`RegionTask`] does after one step: the only three ways a
/// host can leave the CPU between communication points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More compute before the next synchronization — resume me in the
    /// next wave without waiting for anyone.
    Again,
    /// Arrived at a barrier: park until every live rank arrives, then
    /// resume (buffered writes of the whole team apply first).
    Barrier,
    /// Region body complete for this rank (an implicit barrier ends
    /// the region).
    Done,
}

/// Name of the OpenMP runtime's reduction scratch array. Both engines
/// publish it first, so registries — and checkpoint bytes — match.
pub const RED_ARRAY: &str = "__omp_red";
/// Name of the OpenMP runtime's dynamic-schedule counter.
pub const DYN_COUNTER: &str = "__omp_dyn";
/// Largest team the reduction scratch provides for.
pub const MAX_TEAM: usize = 64;

/// The word-addressed shared memory a region body programs against:
/// the rank's identity, word and bulk access, and compute charging.
/// `TaskCtx` (task engine) and `TmkCtx` (thread engine) both implement
/// it, so one [`RegionTask`] body runs on either.
///
/// The bulk methods default to word loops; an implementation with a
/// cheaper page-chunked path (the DSM's one fault check per page)
/// overrides them. Either way the same words are touched in the same
/// order.
pub trait WordMem {
    /// This rank.
    fn pid(&self) -> Pid;
    /// Team size at this fork.
    fn nprocs(&self) -> usize;
    /// Read the word at `addr`.
    fn read_u64(&mut self, addr: Addr) -> u64;
    /// Write the word at `addr`.
    fn write_u64(&mut self, addr: Addr, v: u64);
    /// Charge `iters` worksharing iterations of the region's modeled
    /// compute cost.
    fn charge_compute(&mut self, iters: u64);

    /// Read an `f64` (bit-stored, like the typed shared arrays).
    #[inline]
    fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an `f64` (bit-stored).
    #[inline]
    fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Read `dst.len()` words starting at `addr`.
    fn read_words(&mut self, addr: Addr, dst: &mut [u64]) {
        for (a, d) in (addr..).zip(dst) {
            *d = self.read_u64(a);
        }
    }

    /// Write `src` starting at `addr`.
    fn write_words(&mut self, addr: Addr, src: &[u64]) {
        for (a, v) in (addr..).zip(src) {
            self.write_u64(a, *v);
        }
    }

    /// Read `dst.len()` `f64`s starting at `addr`.
    fn read_f64s(&mut self, addr: Addr, dst: &mut [f64]) {
        for (a, d) in (addr..).zip(dst) {
            *d = self.read_f64(a);
        }
    }

    /// Write the `f64`s of `src` starting at `addr`.
    fn write_f64s(&mut self, addr: Addr, src: &[f64]) {
        for (a, v) in (addr..).zip(src) {
            self.write_f64(a, *v);
        }
    }
}

/// One rank's resumable execution of one parallel-region body, over
/// any [`WordMem`].
///
/// A `RegionTask` is the unwound form of a region function: instead of
/// blocking in `barrier()`, it returns [`Step::Barrier`] and keeps its
/// loop position in fields. The task engine calls [`RegionTask::step`]
/// once per scheduling wave with a fresh [`TaskCtx`]; all side effects
/// flow through the memory (buffered writes, compute charges, page
/// touches). The thread engine steps the same value over a `TmkCtx`,
/// blocking in a real barrier wherever the task returns
/// [`Step::Barrier`].
pub trait RegionTask<M: WordMem>: Send {
    /// Run until the next communication point (or a voluntary yield).
    fn step(&mut self, mem: &mut M) -> Step;
}

/// A region task as the task engine holds it: boxed, and steppable
/// over a [`TaskCtx`] of any lifetime.
pub type BoxedTask = Box<dyn for<'a> RegionTask<TaskCtx<'a>>>;

/// A host's protocol position between communication points — the
/// resumable replacement for a parked thread stack.
///
/// Transitions (driven by the engine):
///
/// ```text
///   Idle ── fork ──▶ Running ──[Step::Barrier]──▶ BarrierWait
///                      ▲  │                            │
///                      │  └─[Step::Again]              │ all ranks
///                      └────── barrier release ◀───────┘ arrived
///   Running ──[Step::Done]──▶ Done ── join (all ranks) ──▶ Idle
/// ```
pub enum HostState {
    /// Between regions: no task installed (the fork hasn't reached
    /// this rank, or the join already collected it).
    Idle,
    /// Executing region code: the task is runnable and will be stepped
    /// in the next wave.
    Running(BoxedTask),
    /// Arrived at an in-region barrier; holds the task to resume once
    /// every live rank arrives.
    BarrierWait(BoxedTask),
    /// Region body finished; waiting for the implicit end-of-region
    /// barrier (the join).
    Done,
}

impl HostState {
    /// Is this rank holding up the current wave (still runnable)?
    pub fn is_running(&self) -> bool {
        matches!(self, HostState::Running(_))
    }

    /// Has this rank reached a communication point (barrier or done)?
    pub fn is_parked(&self) -> bool {
        matches!(self, HostState::BarrierWait(_) | HostState::Done)
    }
}

impl std::fmt::Debug for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HostState::Idle => "Idle",
            HostState::Running(_) => "Running",
            HostState::BarrierWait(_) => "BarrierWait",
            HostState::Done => "Done",
        })
    }
}

/// Everything one [`RegionTask::step`] did, for the engine to merge
/// deterministically: buffered writes (applied in pid order at the
/// next sync), pages touched (fault accounting against the rank's
/// valid set), and compute charged (worksharing iterations).
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Word writes in program order; visible to others after the next
    /// synchronization, per LRC.
    pub writes: Vec<(Addr, u64)>,
    /// Pages read or written this step (set, not multiset: TreadMarks
    /// faults once per page per interval).
    pub touched: BTreeSet<PageId>,
    /// Worksharing iterations charged (converted to virtual time by
    /// the engine's cost model, like `charge_compute`).
    pub compute_iters: u64,
}

/// The flat shared-memory image the task engine simulates against.
///
/// The thread engine replicates pages per process and reconciles them
/// with twins and diffs; parity is judged on *final content and event
/// order*, not on the reconciliation mechanics, so the task engine
/// keeps one authoritative copy. Word-addressed like the real
/// [`crate::shm::Allocator`] address space (same `Addr` values, same
/// page geometry), zero-initialized like fresh DSM pages.
#[derive(Debug)]
pub struct SimMemory {
    words: Vec<u64>,
    /// Slots (8-byte words) per page — `DsmConfig::slots_per_page`.
    spp: usize,
}

impl SimMemory {
    /// An empty store with `spp`-word pages.
    pub fn new(spp: usize) -> SimMemory {
        assert!(spp > 0, "pages must hold at least one word");
        SimMemory {
            words: Vec::new(),
            spp,
        }
    }

    /// Words per page.
    pub fn slots_per_page(&self) -> usize {
        self.spp
    }

    /// Grow (zero-filled) so addresses below `slots` are in range —
    /// call after each allocation, mirroring `Allocator::alloc`.
    pub fn ensure_slots(&mut self, slots: Addr) {
        let want = (slots as usize).div_ceil(self.spp) * self.spp;
        if want > self.words.len() {
            self.words.resize(want, 0);
        }
    }

    /// Load the word at `addr` (zero if never written, like a fresh
    /// DSM page).
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// Store directly (master-sequential phases and write-buffer
    /// application; region code goes through [`TaskCtx::write_u64`]).
    #[inline]
    pub fn store(&mut self, addr: Addr, word: u64) {
        if self.words.len() <= addr as usize {
            self.ensure_slots(addr + 1);
        }
        self.words[addr as usize] = word;
    }

    /// Apply one rank's buffered writes in program order.
    pub fn apply_writes(&mut self, writes: &[(Addr, u64)]) {
        for &(addr, word) in writes {
            self.store(addr, word);
        }
    }

    /// Page containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: Addr) -> PageId {
        (addr as usize / self.spp) as PageId
    }

    /// Number of pages backing the grown store.
    pub fn num_pages(&self) -> usize {
        self.words.len() / self.spp
    }

    /// The `spp` words of `page` (zero-filled if beyond the store) —
    /// checkpoint image extraction.
    pub fn page_words(&self, page: PageId) -> Vec<u64> {
        let start = page as usize * self.spp;
        (start..start + self.spp)
            .map(|i| self.words.get(i).copied().unwrap_or(0))
            .collect()
    }
}

/// The task engine's [`WordMem`] for one step: the rank's identity in
/// the team, read access to the pre-phase memory snapshot, and the
/// outcome accumulators. The same access surface as the thread
/// engine's `TmkCtx`, minus the fault path — faults are derived from
/// [`StepOutcome::touched`] by the engine.
pub struct TaskCtx<'a> {
    pid: Pid,
    nprocs: usize,
    mem: &'a SimMemory,
    out: &'a mut StepOutcome,
}

impl<'a> TaskCtx<'a> {
    /// Build a step context for `pid` of `nprocs` over the pre-phase
    /// snapshot `mem`, accumulating into `out`.
    pub fn new(pid: Pid, nprocs: usize, mem: &'a SimMemory, out: &'a mut StepOutcome) -> Self {
        TaskCtx {
            pid,
            nprocs,
            mem,
            out,
        }
    }

    #[inline]
    fn touch(&mut self, addr: Addr) {
        self.out.touched.insert(self.mem.page_of(addr));
    }
}

impl WordMem for TaskCtx<'_> {
    fn pid(&self) -> Pid {
        self.pid
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Read a word from the pre-phase snapshot (buffered writes of the
    /// current phase — own or others' — are *not* visible).
    #[inline]
    fn read_u64(&mut self, addr: Addr) -> u64 {
        self.touch(addr);
        self.mem.load(addr)
    }

    /// Buffer a word write; visible after the next synchronization.
    #[inline]
    fn write_u64(&mut self, addr: Addr, v: u64) {
        self.touch(addr);
        self.out.writes.push((addr, v));
    }

    /// Charge virtual compute, converted to time by the engine's cost
    /// model at the merge.
    fn charge_compute(&mut self, iters: u64) {
        self.out.compute_iters += iters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts to 3 with a barrier between increments.
    struct Counter {
        base: Addr,
        round: u32,
    }

    impl<M: WordMem> RegionTask<M> for Counter {
        fn step(&mut self, ctx: &mut M) -> Step {
            let addr = self.base + ctx.pid() as Addr;
            let v = ctx.read_u64(addr);
            ctx.write_u64(addr, v + 1);
            ctx.charge_compute(1);
            self.round += 1;
            if self.round < 3 {
                Step::Barrier
            } else {
                Step::Done
            }
        }
    }

    #[test]
    fn writes_are_buffered_until_applied() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut task = Counter { base: 0, round: 0 };
        let mut out = StepOutcome::default();
        let step = task.step(&mut TaskCtx::new(0, 1, &mem, &mut out));
        assert_eq!(step, Step::Barrier);
        // Pre-sync: the store is untouched; the write sits in the log.
        assert_eq!(mem.load(0), 0);
        assert_eq!(out.writes, vec![(0, 1)]);
        assert_eq!(out.touched.iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(out.compute_iters, 1);
        mem.apply_writes(&out.writes);
        assert_eq!(mem.load(0), 1);
    }

    #[test]
    fn task_resumes_across_barriers_as_data() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut state = HostState::Running(Box::new(Counter { base: 0, round: 0 }));
        let mut waves = 0;
        loop {
            let HostState::Running(mut task) = state else {
                break;
            };
            let mut out = StepOutcome::default();
            let step = task.step(&mut TaskCtx::new(0, 1, &mem, &mut out));
            mem.apply_writes(&out.writes);
            waves += 1;
            state = match step {
                Step::Again | Step::Barrier => {
                    // Single-rank team: the barrier releases instantly.
                    HostState::Running(task)
                }
                Step::Done => HostState::Done,
            };
        }
        assert!(state.is_parked());
        assert_eq!(waves, 3);
        assert_eq!(mem.load(0), 3, "one increment per wave, each visible");
    }

    #[test]
    fn sim_memory_page_geometry() {
        let mut mem = SimMemory::new(512);
        assert_eq!(mem.num_pages(), 0);
        mem.ensure_slots(513); // two pages
        assert_eq!(mem.num_pages(), 2);
        assert_eq!(mem.page_of(511), 0);
        assert_eq!(mem.page_of(512), 1);
        mem.store(512, 7);
        assert_eq!(mem.page_words(1)[0], 7);
        assert_eq!(mem.page_words(1).len(), 512);
        // Pages beyond the store read as zeros.
        assert_eq!(mem.page_words(9), vec![0u64; 512]);
        assert_eq!(mem.load(99_999), 0);
    }

    #[test]
    fn f64_reads_writes_roundtrip_bits() {
        let mut mem = SimMemory::new(8);
        mem.ensure_slots(8);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(2, 4, &mem, &mut out);
        assert_eq!(ctx.pid(), 2);
        assert_eq!(ctx.nprocs(), 4);
        ctx.write_f64(3, -0.25);
        mem.apply_writes(&out.writes);
        let mut out = StepOutcome::default();
        let mut ctx = TaskCtx::new(2, 4, &mem, &mut out);
        assert_eq!(ctx.read_f64(3), -0.25);
    }
}
