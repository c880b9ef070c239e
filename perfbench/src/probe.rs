//! From-outside probes: a counting allocator, bench-owned spans with self
//! time, a timing future adapter around op issue, and a timing
//! [`Backplane`] wrapper. None of them reach into the program: they time
//! and count the benchmark's own calls into each layer's public API.

use frame::Frame;
use multiedge::backplane::{Backplane, BpRx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::task::{Context, Poll};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// System allocator that counts allocations and tracks live/peak bytes.
/// The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        grew(layout.size() as u64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        grew(layout.size() as u64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        let old = layout.size() as u64;
        if new_size as u64 >= old {
            grew(new_size as u64 - old);
        } else {
            LIVE.fetch_sub(old - new_size as u64, Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnap {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn alloc_snap() -> AllocSnap {
    AllocSnap {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// Restart peak tracking from the current live heap; returns that heap,
/// the baseline [`peak_above`] subtracts.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live heap since the last [`reset_peak`], above `baseline`: the
/// heap the program itself held at its peak, without the benchmark's own
/// sample buffers.
pub fn peak_above(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}

// ---------------------------------------------------------------------
// Bench-owned spans
// ---------------------------------------------------------------------

/// Spans kept in memory before the rest are only summed.
const SPAN_KEEP: usize = 50_000;

/// One recorded span: a timed call into a layer.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the kept log (`u32::MAX`: none or
    /// not kept).
    parent: u32,
    /// Per-op identifier shared by every span of one op (`u64::MAX`: none).
    op: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    idx: u32,
}

/// Total and self time of every span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

#[derive(Default)]
struct SpanState {
    stack: Vec<Open>,
    kept: Vec<SpanRec>,
    totals: BTreeMap<&'static str, SpanTotal>,
}

struct SpansInner {
    epoch: Instant,
    st: RefCell<SpanState>,
}

/// Span recorder for the traced run (a cheap-to-clone handle, so simulator
/// tasks can hold it). Spans nest by call order on the one thread the
/// benchmark runs on; a span's self time is its duration minus the
/// durations of the spans opened inside it.
#[derive(Clone)]
pub struct Spans(Rc<SpansInner>);

/// Span totals at one instant, for per-batch deltas.
pub struct Mark(BTreeMap<&'static str, SpanTotal>);

impl Spans {
    pub fn new() -> Self {
        Self(Rc::new(SpansInner {
            epoch: Instant::now(),
            st: RefCell::new(SpanState::default()),
        }))
    }

    /// Open a span; close it with [`Spans::close`] in LIFO order.
    pub fn open(&self, name: &'static str, op: u64) {
        let mut st = self.0.st.borrow_mut();
        let idx = if st.kept.len() < SPAN_KEEP {
            let parent = st.stack.last().map_or(u32::MAX, |o| o.idx);
            let start_ns = self.0.epoch.elapsed().as_nanos() as u64;
            st.kept.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            (st.kept.len() - 1) as u32
        } else {
            u32::MAX
        };
        st.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            idx,
        });
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn close(&self) -> u64 {
        let mut st = self.0.st.borrow_mut();
        let o = st.stack.pop().expect("close without open span");
        let dur = o.start.elapsed().as_nanos() as u64;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
        if o.idx != u32::MAX {
            let end = self.0.epoch.elapsed().as_nanos() as u64;
            st.kept[o.idx as usize].end_ns = end;
        }
        let t = st.totals.entry(o.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        dur
    }

    /// Time `f` as one span.
    pub fn time<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, op);
        let r = f();
        self.close();
        r
    }

    pub fn mark(&self) -> Mark {
        Mark(self.0.st.borrow().totals.clone())
    }

    /// Totals of `name` accumulated since `mark`.
    pub fn since(&self, mark: &Mark, name: &str) -> SpanTotal {
        let st = self.0.st.borrow();
        let now = st.totals.get(name).copied().unwrap_or_default();
        let then = mark.0.get(name).copied().unwrap_or_default();
        SpanTotal {
            calls: now.calls - then.calls,
            total_ns: now.total_ns - then.total_ns,
            self_ns: now.self_ns - then.self_ns,
        }
    }

    /// Write the kept spans as JSON lines (name, start, end, parent, op).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let st = self.0.st.borrow();
        for (i, s) in st.kept.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == u64::MAX {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Future adapter that records every poll of the wrapped future as a span
/// (the wall time spent inside the program's op-issue path).
pub struct Timed<F> {
    fut: Pin<Box<F>>,
    spans: Spans,
    name: &'static str,
    op: u64,
}

impl<F: Future> Timed<F> {
    pub fn new(fut: F, spans: Spans, name: &'static str, op: u64) -> Self {
        Self {
            fut: Box::pin(fut),
            spans,
            name,
            op,
        }
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.spans.open(self.name, self.op);
        let r = self.fut.as_mut().poll(cx);
        self.spans.close();
        r
    }
}

// ---------------------------------------------------------------------
// Timing backplane wrapper
// ---------------------------------------------------------------------

/// Frames captured at `send` for the codec timing.
const CAPTURE: usize = 1024;

/// Counts and times `send`/`next`/`advance` of the wrapped backplane.
pub struct TimingBp<B> {
    pub inner: B,
    spans: Spans,
    pub sends: u64,
    pub send_rejects: u64,
    pub frames_next: u64,
    pub empty_next: u64,
    pub advances: u64,
    pub captured: Vec<Frame>,
}

impl<B: Backplane> TimingBp<B> {
    pub fn new(inner: B, spans: Spans) -> Self {
        Self {
            inner,
            spans,
            sends: 0,
            send_rejects: 0,
            frames_next: 0,
            empty_next: 0,
            advances: 0,
            captured: Vec::new(),
        }
    }
}

impl<B: Backplane> Backplane for TimingBp<B> {
    fn rails(&self) -> usize {
        self.inner.rails()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
    fn peer_mtu(&self) -> usize {
        self.inner.peer_mtu()
    }
    fn local_mac(&self, rail: usize) -> frame::MacAddr {
        self.inner.local_mac(rail)
    }
    fn peer_mac(&self, rail: usize) -> frame::MacAddr {
        self.inner.peer_mac(rail)
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn send(&mut self, rail: usize, frame: Frame) -> bool {
        if self.captured.len() < CAPTURE {
            self.captured.push(frame.clone());
        }
        self.sends += 1;
        self.spans.open("bp.send", u64::MAX);
        let ok = self.inner.send(rail, frame);
        self.spans.close();
        self.send_rejects += u64::from(!ok);
        ok
    }
    fn next(&mut self) -> Option<BpRx> {
        self.spans.open("bp.next", u64::MAX);
        let r = self.inner.next();
        self.spans.close();
        if r.is_some() {
            self.frames_next += 1;
        } else {
            self.empty_next += 1;
        }
        r
    }
    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.inner.tx_backlog_ns(rail)
    }
    fn advance(&mut self, until_ns: u64) -> u64 {
        self.advances += 1;
        self.spans.open("bp.advance", u64::MAX);
        let r = self.inner.advance(until_ns);
        self.spans.close();
        r
    }
}

// ---------------------------------------------------------------------
// Statistics and input generation
// ---------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=100).
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quantile `q` (0..=1) of a float sample, interpolating linearly
/// between the closest ranks.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small seeded generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(splitmix(seed))
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Seeded Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Word `i` of the deterministic fill stream `key`.
fn fill_word(key: u64, i: u64) -> u64 {
    splitmix(key ^ i.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// `len` bytes (a multiple of 8) of fill stream `key`, from word `word0`.
pub fn fill(key: u64, word0: u64, len: usize) -> Vec<u8> {
    debug_assert_eq!(len % 8, 0);
    let mut v = Vec::with_capacity(len);
    for i in 0..(len / 8) as u64 {
        v.extend_from_slice(&fill_word(key, word0 + i).to_le_bytes());
    }
    v
}

fn fnv_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x100_0000_01b3)
}

/// Checksum of `len` bytes of fill stream `key` from word `word0`, without
/// materialising them.
pub fn fill_checksum(key: u64, word0: u64, len: usize) -> u64 {
    (0..(len / 8) as u64).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        fnv_step(h, fill_word(key, word0 + i))
    })
}

/// Checksum of a byte buffer (a multiple of 8 long), comparable with
/// [`fill_checksum`].
pub fn checksum(bytes: &[u8]) -> u64 {
    bytes.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |h, c| {
        fnv_step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    })
}

/// Run `f`, recording it as a span when traced.
pub fn time_opt<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, u64::MAX, f),
        None => f(),
    }
}

/// Run one set-up step, timing it and, when traced, recording it as a span.
pub fn step<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = time_opt(spans, name, f);
    (r, t0.elapsed().as_secs_f64())
}
