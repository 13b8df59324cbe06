//! Serving over UDP loopback under rule churn: `Server` in front of the
//! workload's `ClassifierHandle`, an open-loop Poisson load thread pinned
//! off the reader's CPU, and a churn thread applying modify transactions
//! and retraining beside it.
//!
//! Load shape: at most two load threads and one client socket. The load
//! thread follows a precomputed schedule and drains responses without
//! blocking between sends, sending again any request a dropped datagram
//! left unanswered; latency runs from each request's *scheduled* send, so a
//! late generator or a drop shows up as latency (and as `gen.late_*`,
//! `gen.resent.*`) instead of measuring itself. The churn thread shares the reader's CPU at
//! nice 19: the generator's CPU stays its own, and a waking reader preempts
//! the control plane rather than queueing behind a 2 ms copy-on-write apply.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nm_common::frame::{decode_response, encode_request};
use nm_common::{Classifier, LatencyHistogram, MatchResult, Rule, SplitMix64, UpdateBatch};
use nm_tuplemerge::TupleMerge;
use nuevomatch::system::runtime::topology::pin_current_thread;
use nuevomatch::{
    ClassifierHandle, NmSnapshot, PinnedPlane, ServeConfig, ServePlane, ServeStats, Server,
    Topology, Transport,
};

use crate::gate::{ResponseGate, Tally};
use crate::inproc::quantile;
use crate::record;

pub type Handle = ClassifierHandle<TupleMerge>;

/// Modify transactions per second and operations per transaction.
const APPLIES_PER_S: f64 = 50.0;
const OPS_PER_APPLY: usize = 16;
/// Seconds between retrains.
const RETRAIN_PERIOD_S: f64 = 2.0;
/// How long the load thread waits for stragglers after its last send, and
/// after each answer it then receives.
const DRAIN: Duration = Duration::from_millis(200);
/// A request unanswered this long after its last send is sent again: well
/// above the wire p99 of a quiet point (1–4 ms), so a resend almost always
/// replaces a dropped datagram rather than a slow answer.
const RESEND_AFTER_NS: u64 = 10_000_000;
/// Wire latency is also kept per window of this many ns of schedule (see
/// [`Wire::quiet`]).
const WINDOW_NS: u64 = 100_000_000;
/// Closed-loop requests before a point's schedule starts.
const WARM_UP_PROBES: u64 = 20;
/// Response ids above this one answer warm-up probes.
const PROBE_IDS: u64 = u64::MAX - WARM_UP_PROBES;
/// Windows with fewer samples (the tail end of a point) are not counted.
const WINDOW_MIN_SAMPLES: u64 = 100;

/// The keys served and the verdict each must get.
pub struct ServeInputs<'a> {
    pub keys: &'a [u64],
    pub stride: usize,
    pub expected: &'a [Option<MatchResult>],
}

/// One open-loop rate point.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub label: &'static str,
    pub rate: f64,
    pub secs: f64,
    /// Serve through [`TracedPlane`] instead of the handle itself.
    pub traced: bool,
}

/// Counters the traced plane keeps (relaxed: statistics only).
#[derive(Default)]
pub struct PlaneCounters {
    pub pins: AtomicU64,
    pub pin_ns: AtomicU64,
    pub flushes: AtomicU64,
    pub classify_ns: AtomicU64,
}

/// A `ServePlane` that times the server's calls into the handle: one pin
/// and one `classify_batch` per flushed micro-batch.
pub struct TracedPlane {
    handle: Handle,
    counters: Arc<PlaneCounters>,
}

/// One pinned generation of a [`TracedPlane`].
pub struct TracedPin {
    snap: Arc<NmSnapshot<TupleMerge>>,
    counters: Arc<PlaneCounters>,
}

impl ServePlane for TracedPlane {
    type Pin = TracedPin;

    fn pin(&self) -> TracedPin {
        let t = Instant::now();
        let snap = self.handle.snapshot();
        let ns = t.elapsed().as_nanos() as u64;
        self.counters.pins.fetch_add(1, Relaxed);
        self.counters.pin_ns.fetch_add(ns, Relaxed);
        TracedPin { snap, counters: self.counters.clone() }
    }
}

impl PinnedPlane for TracedPin {
    fn generation(&self) -> u64 {
        self.snap.generation()
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        let t = Instant::now();
        Classifier::classify_batch(&*self.snap, keys, stride, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.counters.flushes.fetch_add(1, Relaxed);
        self.counters.classify_ns.fetch_add(ns, Relaxed);
    }
}

/// Wire latency from each request's scheduled send, for the whole point
/// and per window of schedule.
pub struct Wire {
    pub all: LatencyHistogram,
    windows: Vec<LatencyHistogram>,
}

impl Wire {
    fn new(secs: f64) -> Self {
        let n = (secs * 1e9 / WINDOW_NS as f64).ceil().max(1.0) as usize;
        Self {
            all: LatencyHistogram::new(),
            windows: (0..n).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    fn record(&mut self, scheduled: u64, ns: u64) {
        self.all.record(ns);
        let w = ((scheduled / WINDOW_NS) as usize).min(self.windows.len() - 1);
        self.windows[w].record(ns);
    }

    /// The quiet-window `q`-quantile, ns: the 10th percentile, over the
    /// full windows, of each window's `q`-quantile. Host interference
    /// (steal and co-tenants on a shared machine take 10–25% of CPU time in
    /// bursts) only ever adds latency, so the quieter windows are the
    /// steady estimate of what the program itself costs; the whole-point
    /// figures stay in the run record and the per-layer metrics.
    pub fn quiet(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|h| h.count() >= WINDOW_MIN_SAMPLES)
            .map(|h| h.percentile(q))
            .collect();
        if per.is_empty() {
            self.all.percentile(q)
        } else {
            quantile(&per, 0.1)
        }
    }

    /// Windows that counted towards [`Wire::quiet`].
    pub fn full_windows(&self) -> usize {
        self.windows.iter().filter(|h| h.count() >= WINDOW_MIN_SAMPLES).count()
    }
}

/// What the load thread saw.
struct Driven {
    tally: Tally,
    sent: u64,
    resent: u64,
    answered: u64,
    duplicates: u64,
    wire: Wire,
    late: LatencyHistogram,
    pinned: bool,
}

/// What one rate point measured.
pub struct PhaseResult {
    pub phase: Phase,
    pub tally: Tally,
    /// Scheduled requests the socket took on their first send.
    pub sent: u64,
    /// Sends of requests still unanswered after [`RESEND_AFTER_NS`].
    pub resent: u64,
    /// Requests answered at least once.
    pub answered: u64,
    /// Second answers to resent requests (checked like the first).
    pub duplicates: u64,
    pub wire: Wire,
    /// Actual minus scheduled send time, ns.
    pub late: LatencyHistogram,
    /// The server's own statistics for this point (fresh server per point).
    pub stats: ServeStats,
    /// `(pins, pin ns, flushes, classify ns)` when traced.
    pub plane: Option<(u64, u64, u64, u64)>,
    pub load_pinned: bool,
    pub reader_pinned: bool,
}

/// What the churn thread measured over all points.
#[derive(Default)]
pub struct ChurnResult {
    pub apply_us: Vec<f64>,
    pub retrain_ms: Vec<f64>,
    pub retrains: u64,
    pub partial_retrains: u64,
    pub publishes: u64,
    /// Whether the churn thread took its CPU pin and its nice value.
    pub pinned: bool,
    pub niced: bool,
}

/// Drops the calling thread to nice 19 (Linux nice values are per thread).
fn lowest_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        // SAFETY: PRIO_PROCESS (0) with who = 0 names the calling thread;
        // the call takes no pointers and only changes its nice value.
        unsafe { setpriority(0, 0, 19) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// The reader's CPU and the load thread's CPU. The server pins reader `i`
/// to the `i`-th CPU of the discovered topology, so the load thread takes
/// the next one.
fn cpus() -> (Option<usize>, Option<usize>) {
    let topo = Topology::discover();
    let all: Vec<usize> = topo.nodes().iter().flat_map(|n| n.cpus.iter().copied()).collect();
    if all.len() < 2 {
        return (None, None);
    }
    (Some(all[0]), Some(all[1]))
}

/// Poisson arrival offsets (ns) at `rate` per second for `secs`.
fn schedule(rate: f64, secs: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    let mut t = 0.0f64;
    while t < secs {
        out.push((t * 1e9) as u64);
        t += -(1.0 - rng.f64()).ln() / rate;
    }
    out
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Closed-loop probes before the schedule starts, so the reader thread is
/// running and the path is warm when the first scheduled request goes out.
/// Probe ids lie above [`PROBE_IDS`]; their answers are not checked, and one
/// that arrives after its probe timed out is skipped.
fn warm_up(sock: &UdpSocket, key: &[u64]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    let mut buf = [0u8; 512];
    sock.set_read_timeout(Some(Duration::from_millis(100)))?;
    for i in 0..WARM_UP_PROBES {
        frame.clear();
        encode_request(&mut frame, u64::MAX - i, key);
        sock.send(&frame)?;
        loop {
            match sock.recv(&mut buf) {
                Ok(len) if matches!(decode_response(&buf[..len]), Ok(Some((f, _))) if f.id == u64::MAX - i) => {
                    break
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// The load thread's socket and bookkeeping. UDP may drop a request (the
/// reader's socket buffer fills while its CPU is taken away), so a request
/// still unanswered [`RESEND_AFTER_NS`] after its last send goes out again,
/// oldest first and paced at the offered rate. Its latency still runs from
/// its first scheduled send, so a drop shows up as latency.
struct Client<'a> {
    sock: UdpSocket,
    inputs: &'a ServeInputs<'a>,
    sched: &'a [u64],
    t0: Instant,
    gate: ResponseGate<'a>,
    wire: Wire,
    buf: Vec<u8>,
    frame: Vec<u8>,
    /// `(id, last send ns)` of requests not known to be answered, in send
    /// order.
    in_flight: VecDeque<(usize, u64)>,
    resent: u64,
    /// No resend before this time (ns).
    next_resend: u64,
    resend_gap: u64,
}

impl Client<'_> {
    /// Sends request `id`; false when the socket buffer was full (the
    /// request then waits for its resend like a dropped one).
    fn send(&mut self, id: usize) -> std::io::Result<bool> {
        let stride = self.inputs.stride;
        let k = id % (self.inputs.keys.len() / stride);
        self.frame.clear();
        encode_request(&mut self.frame, id as u64, &self.inputs.keys[k * stride..(k + 1) * stride]);
        let sent = match self.sock.send(&self.frame) {
            Ok(_) => true,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => return Err(e),
        };
        self.in_flight.push_back((id, since(self.t0)));
        Ok(sent)
    }

    /// Reads whatever one non-blocking receive returns; false when nothing
    /// was waiting.
    fn drain_once(&mut self) -> std::io::Result<bool> {
        let len = match self.sock.recv(&mut self.buf) {
            Ok(len) => len,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(e),
        };
        let now = since(self.t0);
        let mut off = 0;
        while off < len {
            match decode_response(&self.buf[off..len]) {
                Ok(Some((frame, used))) => {
                    off += used;
                    if frame.id > PROBE_IDS {
                        continue;
                    }
                    if let Some(&at) = self.sched.get(frame.id as usize) {
                        if !self.gate.is_answered(frame.id as usize) {
                            self.wire.record(at, now.saturating_sub(at).max(1));
                        }
                    }
                    self.gate.check(&frame);
                }
                _ => {
                    self.gate.tally.wrong += 1; // a malformed response is a wrong answer
                    break;
                }
            }
        }
        Ok(true)
    }

    /// Sends the oldest unanswered request again if it is overdue and the
    /// pacing allows; returns whether it did.
    fn resend_due(&mut self) -> std::io::Result<bool> {
        while let Some(&(id, _)) = self.in_flight.front() {
            if !self.gate.is_answered(id) {
                break;
            }
            self.in_flight.pop_front();
        }
        let now = since(self.t0);
        match self.in_flight.front() {
            Some(&(id, at)) if now >= at + RESEND_AFTER_NS && now >= self.next_resend => {
                self.in_flight.pop_front();
                self.gate.mark_resent(id);
                self.resent += 1;
                self.next_resend = now + self.resend_gap;
                self.send(id)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Drains and resends once; false when neither had anything to do.
    fn poll(&mut self) -> std::io::Result<bool> {
        let received = self.drain_once()?;
        Ok(self.resend_due()? || received)
    }
}

/// The load thread: send on schedule, drain and resend between sends, then
/// wait for stragglers.
fn drive(
    addr: SocketAddr,
    inputs: &ServeInputs,
    sched: &[u64],
    phase: Phase,
    load_cpu: Option<usize>,
) -> std::io::Result<Driven> {
    let pinned = load_cpu.is_some_and(pin_current_thread);
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    sock.connect(addr)?;
    warm_up(&sock, &inputs.keys[..inputs.stride])?;
    sock.set_nonblocking(true)?;
    let mut c = Client {
        sock,
        inputs,
        sched,
        t0: Instant::now(),
        gate: ResponseGate::new(inputs.expected, sched.len()),
        wire: Wire::new(phase.secs),
        buf: vec![0u8; 64 * 1024],
        frame: Vec::with_capacity(16 + inputs.stride * 8),
        in_flight: VecDeque::new(),
        resent: 0,
        next_resend: 0,
        resend_gap: (1e9 / phase.rate) as u64,
    };
    let mut late = LatencyHistogram::new();
    let mut sent = 0u64;
    for (i, &at) in sched.iter().enumerate() {
        while since(c.t0) < at {
            if !c.poll()? {
                std::hint::spin_loop();
            }
        }
        late.record(since(c.t0) - at);
        if c.send(i)? {
            sent += 1;
        }
    }
    let mut last = Instant::now();
    while c.gate.answered() < sched.len() as u64 && last.elapsed() < DRAIN {
        if c.drain_once()? {
            last = Instant::now();
        } else if !c.resend_due()? {
            std::thread::yield_now();
        }
    }
    let (answered, duplicates) = (c.gate.answered(), c.gate.duplicates);
    Ok(Driven {
        tally: c.gate.finish(),
        sent,
        resent: c.resent,
        answered,
        duplicates,
        wire: c.wire,
        late,
        pinned,
    })
}

/// Serves `plane` for one rate point on a fresh server.
fn run_phase<P: ServePlane>(
    plane: P,
    inputs: &ServeInputs,
    phase: Phase,
    seed: u64,
) -> Result<PhaseResult, String> {
    let (reader_cpu, load_cpu) = cpus();
    let cfg = ServeConfig {
        transport: Transport::Udp,
        stride: inputs.stride,
        udp_readers: 1,
        pin: true,
        validate_every: 0,
        ..ServeConfig::default()
    };
    let before = record::thread_affinities();
    let server = Server::start(plane, &cfg).map_err(|e| format!("server start: {e}"))?;
    let addr = server.udp_addr().ok_or("server has no UDP address")?;
    let sched = schedule(phase.rate, phase.secs, seed);
    let driven =
        std::thread::scope(|s| s.spawn(|| drive(addr, inputs, &sched, phase, load_cpu)).join());
    let reader_pinned = reader_cpu.is_some_and(|cpu| record::new_thread_pinned_to(&before, cpu));
    let stats = server.shutdown();
    let d = driven
        .map_err(|_| "load thread panicked".to_string())?
        .map_err(|e| format!("load thread: {e}"))?;
    Ok(PhaseResult {
        phase,
        tally: d.tally,
        sent: d.sent,
        resent: d.resent,
        answered: d.answered,
        duplicates: d.duplicates,
        wire: d.wire,
        late: d.late,
        stats,
        plane: None,
        load_pinned: d.pinned,
        reader_pinned,
    })
}

/// The churn thread: 16-op modify transactions at 50/s and a retrain every
/// 2 s until `stop`. Each modify re-inserts a rule with its own box and
/// priority, so every key's expected verdict holds across generations.
fn churn(
    handle: &Handle,
    rules: &[Rule],
    seed: u64,
    stop: &AtomicBool,
) -> Result<ChurnResult, String> {
    // The control plane shares the reader's CPU at the lowest priority, so
    // the generator's CPU stays clean and a waking reader preempts it.
    let mut out = ChurnResult {
        pinned: cpus().0.is_some_and(pin_current_thread),
        niced: lowest_priority(),
        ..ChurnResult::default()
    };
    let mut rng = SplitMix64::new(seed ^ (0xc4u64 << 56));
    let (retrains0, partial0, gen0) =
        (handle.retrains_completed(), handle.partial_retrains_completed(), handle.generation());
    let t0 = Instant::now();
    let period = Duration::from_secs_f64(1.0 / APPLIES_PER_S);
    let retrain_every = (RETRAIN_PERIOD_S * APPLIES_PER_S) as u64;
    let mut tick = 0u64;
    while !stop.load(Relaxed) {
        tick += 1;
        let due = t0 + period * tick as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut batch = UpdateBatch::new();
        for _ in 0..OPS_PER_APPLY {
            batch = batch.modify(rules[rng.below(rules.len() as u64) as usize].clone());
        }
        let t = Instant::now();
        handle.apply(&batch);
        out.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        if tick.is_multiple_of(retrain_every) {
            let t = Instant::now();
            handle.retrain().map_err(|e| format!("retrain: {e}"))?;
            out.retrain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if out.retrain_ms.is_empty() {
        // A point shorter than one retrain period still measures one.
        let t = Instant::now();
        handle.retrain().map_err(|e| format!("retrain: {e}"))?;
        out.retrain_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.retrains = handle.retrains_completed() - retrains0;
    out.partial_retrains = handle.partial_retrains_completed() - partial0;
    out.publishes = handle.generation() - gen0;
    Ok(out)
}

/// Runs every phase in order on fresh servers over `handle`, with the churn
/// thread running across all of them.
pub fn run(
    handle: &Handle,
    rules: &[Rule],
    inputs: &ServeInputs,
    phases: &[Phase],
    seed: u64,
) -> Result<(Vec<PhaseResult>, ChurnResult), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let churner = s.spawn(|| churn(handle, rules, seed, &stop));
        let mut results = Vec::with_capacity(phases.len());
        let mut err = None;
        for (i, &phase) in phases.iter().enumerate() {
            let seed = seed ^ (0x5e4e_0000 + i as u64);
            let r = if phase.traced {
                let counters = Arc::new(PlaneCounters::default());
                let plane = TracedPlane { handle: handle.clone(), counters: counters.clone() };
                run_phase(plane, inputs, phase, seed).map(|mut r| {
                    r.plane = Some((
                        counters.pins.load(Relaxed),
                        counters.pin_ns.load(Relaxed),
                        counters.flushes.load(Relaxed),
                        counters.classify_ns.load(Relaxed),
                    ));
                    r
                })
            } else {
                run_phase(handle.clone(), inputs, phase, seed)
            };
            match r {
                Ok(r) => results.push(r),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        stop.store(true, Relaxed);
        let churned = churner.join().map_err(|_| "churn thread panicked".to_string())?;
        match err {
            Some(e) => Err(e),
            None => Ok((results, churned?)),
        }
    })
}
