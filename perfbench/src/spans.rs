//! Clocks, and wall-clock spans recorded around calls into the simulator's
//! public API.
//!
//! Nothing here reaches inside the simulator: [`Timed`] wraps a
//! [`TranslationMechanism`] and [`TimedStream`] wraps a [`TraceStream`], so
//! the spans sit exactly at the layer boundaries the public API exposes.
//! Spans are summed into fixed counters as they close — memory stays O(1)
//! however long a run is. With tracing off both wrappers still count
//! (pages, records, calls) so the output checks run identically; only the
//! per-call clock reads are skipped.
//!
//! Two clocks. Per-call spans read the wall clock ([`Instant`]), which
//! costs nanoseconds. Everything an end-to-end metric is made of — timed
//! runs, steps, set-up samples — reads the CPU clock ([`cpu_ns`]): the
//! time the measuring thread (or process) actually ran. On a shared host a
//! thread that waits for a core, in its own VM or in the hypervisor
//! (steal time, which Linux leaves out of task time), accrues wall time
//! but no CPU time, so the CPU clock measures the simulator rather than
//! the other tenants. A CPU clock read is a system call, so it is only
//! read around blocks of microseconds or more.
//!
//! CPU time still runs slow when other tenants load the memory system the
//! host shares out (its last-level cache and memory bandwidth): on a
//! shared 2-vCPU Xeon VM the same `serve` pass ran 5 M to 8 M lookups per
//! CPU second from one five-second stretch to the next. [`host_speed`]
//! measures that: it times a fixed burst of random memory traffic and
//! arithmetic, which slows when the simulator does (see `README.md` for
//! the figures), so end-to-end times are scaled by it.

use std::time::Instant;
use utlb_core::obs::Probe;
use utlb_core::{
    CacheStats, LookupBatch, OutcomeBuf, PageOutcome, TranslationMechanism, TranslationStats,
};
use utlb_mem::{Host, ProcessId, VirtPage};
use utlb_nic::Board;
use utlb_trace::{fill_chunk, TraceRecord, TraceStream};

/// Which CPU clock [`cpu_ns`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpu {
    /// The calling thread's CPU time.
    Thread,
    /// The CPU time of every thread of the process, summed.
    Process,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    extern "C" {
        pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
}

/// Nanoseconds of CPU time on `clock` since an arbitrary origin. Off Linux
/// it falls back to wall time since first use.
pub fn cpu_ns(clock: Cpu) -> u64 {
    #[cfg(target_os = "linux")]
    {
        let id = match clock {
            Cpu::Thread => sys::CLOCK_THREAD_CPUTIME_ID,
            Cpu::Process => sys::CLOCK_PROCESS_CPUTIME_ID,
        };
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; the call only writes it.
        let status = unsafe { sys::clock_gettime(id, &mut ts) };
        assert_eq!(status, 0, "clock_gettime({id}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = clock;
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Words of the [`host_speed`] probe's table: 2 MiB, more than a core's L2
/// cache, so the probe reaches the shared cache as the simulator does.
const PROBE_WORDS: usize = 1 << 18;
/// Random read-modify-writes of one probe.
const PROBE_MEM_ITERS: u32 = 100_000;
/// Rounds of register-only arithmetic of one probe: about 40% of its time
/// on an unloaded host. Memory traffic alone slows more than the
/// simulator does when the shared cache is contended, arithmetic alone
/// less.
const PROBE_ALU_ITERS: u32 = 130_000;
/// Thread CPU time of one probe on the reference host, ns: about the
/// fastest the probe ran on a shared 2-vCPU Xeon VM.
const PROBE_NOMINAL_NS: f64 = 800_000.0;

thread_local! {
    static PROBE: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// How fast this host runs a fixed mix of random memory traffic and
/// arithmetic right now, relative to the reference host: the reference probe time over this probe's thread CPU
/// time (1.0 on the reference host, 0.5 at half its speed). A time
/// multiplied by it is the time the reference host would have taken.
pub fn host_speed() -> f64 {
    PROBE.with(|table| {
        let mut table = table.borrow_mut();
        if table.is_empty() {
            *table = (0..PROBE_WORDS as u64).collect();
        }
        let mask = (PROBE_WORDS - 1) as u64;
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        let start = cpu_ns(Cpu::Thread);
        for _ in 0..PROBE_MEM_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            acc = acc.wrapping_add(table[i]);
            table[i] = acc ^ x;
        }
        for _ in 0..PROBE_ALU_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(x);
        }
        let took = cpu_ns(Cpu::Thread).saturating_sub(start).max(1);
        std::hint::black_box(acc);
        PROBE_NOMINAL_NS / took as f64
    })
}

/// Both clocks started at one moment: what a timed operation took in wall
/// time and in CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
    clock: Cpu,
}

impl Stopwatch {
    /// Starts both clocks; `clock` names the CPU clock.
    pub fn start(clock: Cpu) -> Self {
        Stopwatch {
            cpu: cpu_ns(clock),
            wall: Instant::now(),
            clock,
        }
    }

    /// `(wall ns, cpu ns)` since [`Stopwatch::start`].
    pub fn read(&self) -> (u64, u64) {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, cpu_ns(self.clock).saturating_sub(self.cpu))
    }
}

/// Runs `f`, adding its wall time to `ns` when `on`.
fn span<T>(on: bool, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// Thread CPU time per fixed block of work: one sample every `every` units.
#[derive(Debug)]
pub struct StepClock {
    every: u64,
    pending: u64,
    last: u64,
    /// Closed steps, in milliseconds of thread CPU time.
    pub samples_ms: Vec<f64>,
}

impl StepClock {
    /// A clock that closes a step every `every` units (0 = never).
    pub fn new(every: u64) -> Self {
        StepClock {
            every,
            pending: 0,
            last: cpu_ns(Cpu::Thread),
            samples_ms: Vec::new(),
        }
    }

    /// Starts the first step now; call right before the timed operation.
    pub fn start(&mut self) {
        self.pending = 0;
        self.last = cpu_ns(Cpu::Thread);
    }

    /// Counts `units` of work, closing every step they complete. A final
    /// partial step is never recorded.
    #[inline]
    pub fn tick(&mut self, units: u64) {
        if self.every == 0 {
            return;
        }
        self.pending += units;
        if self.pending >= self.every {
            let now = cpu_ns(Cpu::Thread);
            self.samples_ms.push(now.saturating_sub(self.last) as f64 / 1e6);
            self.last = now;
            self.pending %= self.every;
        }
    }
}

/// What a [`Timed`] engine saw: call counts always, host nanoseconds only
/// when tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCalls {
    /// `lookup_run_into` calls — one per trace record or served request.
    pub lookup_calls: u64,
    /// Pages those calls translated.
    pub pages: u64,
    /// Host time inside `lookup_run_into`.
    pub lookup_ns: u64,
    /// `register_process` calls, refused ones included.
    pub register_calls: u64,
    /// Host time inside `register_process`.
    pub register_ns: u64,
    /// `unregister_process` calls.
    pub unregister_calls: u64,
    /// Host time inside `unregister_process`.
    pub unregister_ns: u64,
    /// Pages still pinned right after a process was unregistered.
    pub leaked_pins: u64,
}

impl EngineCalls {
    /// Host time spent inside the engine, all calls.
    pub fn engine_ns(&self) -> u64 {
        self.lookup_ns + self.register_ns + self.unregister_ns
    }
}

/// A mechanism wrapper that counts (and, when tracing, times) every call
/// the replay loop or the front end makes into the engine. Outcomes,
/// statistics and clock charges are the inner engine's, untouched.
pub struct Timed {
    inner: Box<dyn TranslationMechanism>,
    trace: bool,
    /// Counters and spans so far.
    pub calls: EngineCalls,
    /// Steps of served requests (live front ends only).
    pub steps: StepClock,
}

impl Timed {
    /// Wraps `inner`; `step_requests` > 0 closes a step every that many
    /// `lookup_run_into` calls.
    pub fn new(inner: Box<dyn TranslationMechanism>, trace: bool, step_requests: u64) -> Self {
        Timed {
            inner,
            trace,
            calls: EngineCalls::default(),
            steps: StepClock::new(step_requests),
        }
    }
}

impl TranslationMechanism for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kernel_pins(&self) -> bool {
        self.inner.kernel_pins()
    }

    fn register_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> utlb_core::Result<()> {
        let inner = &mut self.inner;
        let r = span(self.trace, &mut self.calls.register_ns, || {
            inner.register_process(host, board, pid)
        });
        self.calls.register_calls += 1;
        r
    }

    fn unregister_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> utlb_core::Result<()> {
        let inner = &mut self.inner;
        let r = span(self.trace, &mut self.calls.unregister_ns, || {
            inner.unregister_process(host, board, pid)
        });
        self.calls.unregister_calls += 1;
        self.calls.leaked_pins += host.driver().pins().pinned_pages(pid);
        r
    }

    fn lookup_run(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        start: VirtPage,
        npages: u64,
    ) -> utlb_core::Result<Vec<PageOutcome>> {
        let mut out = OutcomeBuf::new();
        self.lookup_run_into(host, board, LookupBatch::new(pid, start, npages), &mut out)?;
        Ok(out.as_slice().to_vec())
    }

    fn lookup_run_into(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        batch: LookupBatch,
        out: &mut OutcomeBuf,
    ) -> utlb_core::Result<()> {
        let inner = &mut self.inner;
        let r = span(self.trace, &mut self.calls.lookup_ns, || {
            inner.lookup_run_into(host, board, batch, out)
        });
        self.calls.lookup_calls += 1;
        self.calls.pages += batch.npages;
        self.steps.tick(1);
        r
    }

    fn stats(&self, pid: ProcessId) -> utlb_core::Result<TranslationStats> {
        self.inner.stats(pid)
    }

    fn aggregate_stats(&self) -> TranslationStats {
        self.inner.aggregate_stats()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn set_probe(&mut self, probe: Box<dyn Probe>) -> Option<Box<dyn Probe>> {
        self.inner.set_probe(probe)
    }

    fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.inner.take_probe()
    }
}

/// Records pulled from the wrapped generator per refill. Timing one refill
/// instead of one record keeps the clock reads to one pair per block.
const GEN_BLOCK: usize = 1024;

/// A stream wrapper that pulls the generator in blocks of [`GEN_BLOCK`]
/// records (timed when tracing) and closes a step every fixed number of
/// records handed to the replay loop (always).
pub struct TimedStream<S> {
    inner: S,
    trace: bool,
    buf: Vec<TraceRecord>,
    pos: usize,
    /// Records handed out.
    pub records: u64,
    /// Host time inside the wrapped generator.
    pub gen_ns: u64,
    /// Steps of `step_records` records.
    pub steps: StepClock,
}

impl<S: TraceStream> TimedStream<S> {
    /// Wraps `inner`, closing a step every `step_records` records.
    pub fn new(inner: S, trace: bool, step_records: u64) -> Self {
        TimedStream {
            inner,
            trace,
            buf: Vec::with_capacity(GEN_BLOCK),
            pos: 0,
            records: 0,
            gen_ns: 0,
            steps: StepClock::new(step_records),
        }
    }
}

impl<S: TraceStream> TraceStream for TimedStream<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            let (inner, buf) = (&mut self.inner, &mut self.buf);
            span(self.trace, &mut self.gen_ns, || {
                fill_chunk(inner, buf, GEN_BLOCK)
            });
            self.pos = 0;
        }
        let r = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        self.records += 1;
        self.steps.tick(1);
        Some(r)
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining() + (self.buf.len() - self.pos) as u64
    }

    fn workload(&self) -> &str {
        self.inner.workload()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn process_ids(&self) -> Vec<ProcessId> {
        self.inner.process_ids()
    }
}
