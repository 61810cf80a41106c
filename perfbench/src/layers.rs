//! Span recording at the boundaries between the repository's crates.
//!
//! The benchmark cannot put spans inside the program, so it records
//! them around the calls it makes into each crate's public functions,
//! plus two wrappers that sit on the seams the tracer and the MDA
//! engine already expose: [`TimedTransport`] (a `pt_core::Transport`
//! over the simulator) and [`TimedStrategy`] (a `pt_core::ProbeStrategy`
//! around Paris or classic). Both delegate every method unchanged.
//!
//! A disabled [`Recorder`] reads no clock and stores no span, which is
//! what makes the untraced replay the traced one's baseline: the
//! difference between them is the tracing overhead.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

use pt_core::{ProbeSpec, ProbeStrategy, StrategyId, Transport};
use pt_netsim::{SimTime, SimTransport};
use pt_wire::Packet;

use crate::measure::now;

/// What a span covers. Names are `<crate>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One `(destination, round)` unit of the replay.
    Unit,
    /// `SimulatorPool::acquire` or `SimulatorPool::release`.
    Acquire,
    /// `pt_core::trace_with`.
    Trace,
    /// `pt_mda::discover_with`.
    Walk,
    /// `Transport::send` into the simulator.
    Send,
    /// `Transport::recv_until`: runs the event loop to the next delivery.
    RecvUntil,
    /// `Transport::try_recv`.
    TryRecv,
    /// `ProbeStrategy::build_probe_batch` / `build_probe_with`.
    Build,
    /// `ProbeStrategy::match_response`.
    Match,
    /// `CampaignAccumulator::ingest`.
    Ingest,
    /// `CampaignAccumulator::snapshot_write` of both tools.
    SnapWrite,
    /// `CampaignAccumulator::snapshot_read` of both tools.
    SnapRead,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 12] = [
    Layer::Unit,
    Layer::Acquire,
    Layer::Trace,
    Layer::Walk,
    Layer::Send,
    Layer::RecvUntil,
    Layer::TryRecv,
    Layer::Build,
    Layer::Match,
    Layer::Ingest,
    Layer::SnapWrite,
    Layer::SnapRead,
];

impl Layer {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "campaign.unit",
            Layer::Acquire => "netsim.acquire",
            Layer::Trace => "core.trace_with",
            Layer::Walk => "mda.discover_with",
            Layer::Send => "netsim.send",
            Layer::RecvUntil => "netsim.recv_until",
            Layer::TryRecv => "netsim.try_recv",
            Layer::Build => "core.build_probe",
            Layer::Match => "core.match_response",
            Layer::Ingest => "anomaly.ingest",
            Layer::SnapWrite => "snapshot.write",
            Layer::SnapRead => "snapshot.read",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    unit: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Work counted at the same boundaries as the spans, enabled or not.
#[derive(Debug, Default)]
pub struct Counts {
    /// Probes that reached `Transport::send`.
    pub sent: Cell<u64>,
    /// Packets `recv_until`/`try_recv` handed back.
    pub received: Cell<u64>,
    /// Probes built through the strategy.
    pub built: Cell<u64>,
    /// `match_response` calls.
    pub matched: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Span recorder. Every span is folded into per-layer totals as it
/// closes, with its self time taken from the child spans it enclosed;
/// the spans of the first units are also kept in memory, tagged with
/// their unit and parent span, to be written out at the end. Keeping
/// every span would stream tens of megabytes through the cache the
/// simulator depends on.
pub struct Recorder {
    enabled: bool,
    keep_units: u32,
    epoch: Instant,
    unit: Cell<u32>,
    open: RefCell<Vec<Open>>,
    totals: RefCell<[LayerTotals; LAYERS.len()]>,
    spans: RefCell<Vec<Span>>,
    /// Counters kept at the span boundaries.
    pub counts: Counts,
}

/// A span that has not closed yet.
struct Open {
    child_ns: u64,
    kept: u32,
}

/// Per-layer totals over a recorded trace, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

impl Recorder {
    /// A recorder that keeps the spans of units below `keep_units`;
    /// `enabled: false` records nothing and reads no clock.
    pub fn new(enabled: bool, keep_units: u32) -> Self {
        Recorder {
            enabled,
            keep_units,
            epoch: now(),
            unit: Cell::new(0),
            open: RefCell::new(Vec::new()),
            totals: RefCell::new([LayerTotals::default(); LAYERS.len()]),
            spans: RefCell::new(Vec::new()),
            counts: Counts::default(),
        }
    }

    /// Tag the spans that follow with `unit`.
    pub fn set_unit(&self, unit: u32) {
        self.unit.set(unit);
    }

    fn stamp(&self) -> u64 {
        now().duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        {
            let mut open = self.open.borrow_mut();
            let kept = if self.unit.get() < self.keep_units {
                let mut spans = self.spans.borrow_mut();
                let parent = open.last().map_or(NO_PARENT, |o| o.kept);
                spans.push(Span { layer, unit: self.unit.get(), parent, start_ns: 0, end_ns: 0 });
                u32::try_from(spans.len() - 1).expect("fewer than 2^32 kept spans")
            } else {
                NO_PARENT
            };
            open.push(Open { child_ns: 0, kept });
        }
        // Stamp last on entry and first on exit, so the bookkeeping
        // lands in the parent's self time, not in this span.
        let start = self.stamp();
        let out = f();
        let end = self.stamp();
        let dur = end - start;
        let mut open = self.open.borrow_mut();
        let closed = open.pop().expect("span was opened");
        if let Some(parent) = open.last_mut() {
            parent.child_ns += dur;
        }
        let mut totals = self.totals.borrow_mut();
        let t = &mut totals[layer as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(closed.child_ns);
        if closed.kept != NO_PARENT {
            let mut spans = self.spans.borrow_mut();
            spans[closed.kept as usize].start_ns = start;
            spans[closed.kept as usize].end_ns = end;
        }
        out
    }

    /// Totals per layer, self time included.
    pub fn totals(&self) -> Vec<(Layer, LayerTotals)> {
        let totals = self.totals.borrow();
        LAYERS.iter().map(|&layer| (layer, totals[layer as usize])).collect()
    }

    /// Write the kept spans as tab-separated lines:
    /// `id parent unit name start_ns end_ns` (parent `-` at the root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "id\tparent\tunit\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.unit,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The simulator transport, with its packet I/O timed as `netsim.*`.
pub struct TimedTransport<'r> {
    /// The wrapped transport.
    pub inner: SimTransport,
    rec: &'r Recorder,
}

impl<'r> TimedTransport<'r> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: SimTransport, rec: &'r Recorder) -> Self {
        TimedTransport { inner, rec }
    }
}

impl Transport for TimedTransport<'_> {
    fn now(&self) -> SimTime {
        Transport::now(&self.inner)
    }

    fn source_addr(&self) -> Ipv4Addr {
        Transport::source_addr(&self.inner)
    }

    fn send(&mut self, packet: Packet) {
        bump(&self.rec.counts.sent, 1);
        self.rec.span(Layer::Send, || Transport::send(&mut self.inner, packet));
    }

    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        let got =
            self.rec.span(Layer::RecvUntil, || Transport::recv_until(&mut self.inner, deadline));
        bump(&self.rec.counts.received, u64::from(got.is_some()));
        got
    }

    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        let got = self.rec.span(Layer::TryRecv, || Transport::try_recv(&mut self.inner));
        bump(&self.rec.counts.received, u64::from(got.is_some()));
        got
    }

    fn release(&mut self, packet: Packet) {
        Transport::release(&mut self.inner, packet)
    }

    fn grab_payload(&mut self) -> Vec<u8> {
        Transport::grab_payload(&mut self.inner)
    }
}

/// A probing strategy with its probe construction timed as
/// `core.build_probe` and its reply matching as `core.match_response`.
pub struct TimedStrategy<'r, 's> {
    inner: &'s mut dyn ProbeStrategy,
    rec: &'r Recorder,
}

impl<'r, 's> TimedStrategy<'r, 's> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'s mut dyn ProbeStrategy, rec: &'r Recorder) -> Self {
        TimedStrategy { inner, rec }
    }
}

impl ProbeStrategy for TimedStrategy<'_, '_> {
    fn id(&self) -> StrategyId {
        self.inner.id()
    }

    fn build_probe_with(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        probe_idx: u64,
        payload: Vec<u8>,
    ) -> Packet {
        bump(&self.rec.counts.built, 1);
        self.rec
            .span(Layer::Build, || self.inner.build_probe_with(src, dst, ttl, probe_idx, payload))
    }

    fn build_probe(&mut self, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, probe_idx: u64) -> Packet {
        bump(&self.rec.counts.built, 1);
        self.rec.span(Layer::Build, || self.inner.build_probe(src, dst, ttl, probe_idx))
    }

    fn build_probe_batch(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        specs: &[ProbeSpec],
        payloads: &mut dyn FnMut() -> Vec<u8>,
        out: &mut Vec<Packet>,
    ) {
        bump(&self.rec.counts.built, specs.len() as u64);
        self.rec.span(Layer::Build, || self.inner.build_probe_batch(src, dst, specs, payloads, out))
    }

    fn match_response(&self, dst: Ipv4Addr, response: &Packet) -> Option<u64> {
        bump(&self.rec.counts.matched, 1);
        self.rec.span(Layer::Match, || self.inner.match_response(dst, response))
    }
}
