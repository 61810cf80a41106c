//! The layer replay: a workload's `(destination, round)` units run
//! serially through the same public functions the campaign engine
//! calls, with a span around each call.
//!
//! The replay is not the campaign. It keeps one simulator pool and one
//! scratch for the whole pass (the engine restarts both per checkpoint
//! block and per worker), and it draws its own ports and simulator
//! seeds, so its probe counts differ slightly from the campaign's; the
//! benchmark prints that gap instead of assuming it away.

use pt_anomaly::CampaignAccumulator;
use pt_core::{trace_with, ClassicUdp, ParisUdp, StrategyId, TraceConfig, TraceScratch};
use pt_mda::{discover_with, MdaConfig, MdaScratch};
use pt_netsim::{SimStats, SimTransport, SimulatorPool};
use pt_topogen::SyntheticInternet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{Layer, Recorder, TimedStrategy, TimedTransport};
use crate::measure::{cpu_secs, now, secs_since};

/// What a unit runs.
#[derive(Debug, Clone, Copy)]
pub enum UnitKind {
    /// A Paris trace, then a classic trace, both ingested.
    SideBySide(TraceConfig),
    /// One adaptive MDA walk at the given confidence `alpha`.
    Multipath {
        /// Per-hop miss probability bound.
        alpha: f64,
    },
}

/// A replay pass over the first units of a campaign, in the campaign's
/// round-major unit order.
pub struct Plan<'a> {
    /// The workload's network.
    pub net: &'a SyntheticInternet,
    /// What each unit runs.
    pub kind: UnitKind,
    /// Units in the campaign (`destinations × rounds`); the pass stops
    /// there at the latest.
    pub campaign_units: u32,
    /// Seed of the replay's own draws.
    pub seed: u64,
    /// Write and read back both accumulators after this many units.
    pub checkpoint_every: Option<u32>,
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Units completed.
    pub units: u32,
    /// Wall time of each unit, in µs.
    pub unit_us: Vec<f64>,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Process CPU time of the whole pass.
    pub cpu_s: f64,
    /// Probes the routes (or MDA maps) recorded.
    pub kept_probes: u64,
    /// Packets forwarded, responses generated and packets delivered.
    pub packets: u64,
    /// Packets the simulator dropped, all drop classes.
    pub drops: u64,
    /// Accumulator checkpoints written.
    pub checkpoints: u64,
    /// Bytes those checkpoints serialized to.
    pub checkpoint_bytes: u64,
    /// Checkpoints read back: the last one written, once per pass.
    pub reads: u64,
    /// Read-backs that re-serialized to different bytes.
    pub read_mismatches: u64,
    /// Units degraded by a watchdog budget.
    pub degraded: u64,
}

fn packets(s: &SimStats) -> u64 {
    s.forwarded
        + s.time_exceeded_sent
        + s.dest_unreachable_sent
        + s.echo_replies_sent
        + s.tcp_responses_sent
        + s.delivered
}

fn drops(s: &SimStats) -> u64 {
    s.dropped_loss
        + s.dropped_silent
        + s.dropped_rate_limited
        + s.dropped_mpls_hidden
        + s.dropped_filtered
        + s.dropped_no_route
        + s.dropped_blackhole
        + s.dropped_host_mute
}

/// Run units until `max_units` are done or `budget_s` of wall time has
/// passed, whichever is first (a unit in progress always finishes).
pub fn run(plan: &Plan<'_>, max_units: u32, budget_s: f64, rec: &Recorder) -> Pass {
    let net = plan.net;
    let n_dests = net.dests.len() as u32;
    let mut pool = SimulatorPool::new(net.topology.clone());
    let mut trace_scratch = TraceScratch::new();
    let mut mda_scratch = MdaScratch::new();
    let mut paris_acc = CampaignAccumulator::new(StrategyId::ParisUdp);
    let mut classic_acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
    let mut pass = Pass::default();
    let limit = max_units.min(plan.campaign_units);
    let mut last_checkpoint = None;
    let (t0, cpu0) = (now(), cpu_secs());

    for unit in 0..limit {
        if secs_since(t0) >= budget_s {
            break;
        }
        let (dest, round) = (&net.dests[(unit % n_dests) as usize], (unit / n_dests) as usize);
        let mut rng = StdRng::seed_from_u64(plan.seed ^ u64::from(unit).wrapping_mul(0x9e37_79b9));
        rec.set_unit(unit);
        let t_unit = now();
        rec.span(Layer::Unit, || {
            let sim = rec.span(Layer::Acquire, || pool.acquire(rng.gen()));
            let mut tx = TimedTransport::new(SimTransport::new(sim, net.source), rec);
            match plan.kind {
                UnitKind::SideBySide(config) => {
                    let mut paris = ParisUdp::new(
                        rng.gen_range(10_000..=60_000),
                        rng.gen_range(10_000..=60_000),
                    );
                    let paris_route = rec.span(Layer::Trace, || {
                        let mut strategy = TimedStrategy::new(&mut paris, rec);
                        trace_with(&mut tx, &mut strategy, dest.addr, config, &mut trace_scratch)
                    });
                    let mut classic = ClassicUdp::new(rng.gen::<u16>() & 0x7fff);
                    let classic_route = rec.span(Layer::Trace, || {
                        let mut strategy = TimedStrategy::new(&mut classic, rec);
                        trace_with(&mut tx, &mut strategy, dest.addr, config, &mut trace_scratch)
                    });
                    rec.span(Layer::Ingest, || {
                        paris_acc.ingest(round, &paris_route);
                        classic_acc.ingest(round, &classic_route);
                    });
                    pass.kept_probes +=
                        (paris_route.probes_sent() + classic_route.probes_sent()) as u64;
                    pass.degraded += u64::from(paris_route.degraded() || classic_route.degraded());
                    trace_scratch.recycle(paris_route);
                    trace_scratch.recycle(classic_route);
                }
                UnitKind::Multipath { alpha } => {
                    let max_flows = MdaConfig::default().max_flows_per_hop as u16;
                    let base_src_port = rng.gen_range(10_000..=60_000u16 - max_flows);
                    let dst_port = rng.gen_range(10_000..=60_000);
                    let mda = MdaConfig {
                        alpha,
                        base_src_port,
                        dst_port,
                        ..MdaConfig::adaptive(rng.gen())
                    };
                    let map = rec.span(Layer::Walk, || {
                        discover_with(&mut tx, dest.addr, &mda, &mut mda_scratch)
                    });
                    pass.kept_probes += map.total_probes as u64;
                    pass.degraded += u64::from(map.degraded);
                    mda_scratch.recycle(map);
                }
            }
            let stats = tx.inner.simulator().stats();
            pass.packets += packets(&stats);
            pass.drops += drops(&stats);
            rec.span(Layer::Acquire, || pool.release(tx.inner.into_simulator()));
        });
        pass.unit_us.push(secs_since(t_unit) * 1e6);
        pass.units += 1;

        if plan.checkpoint_every.is_some_and(|every| (unit + 1) % every == 0) {
            let text = write_checkpoint(&classic_acc, &paris_acc, rec);
            pass.checkpoints += 1;
            pass.checkpoint_bytes += text.len() as u64;
            last_checkpoint = Some(text);
        }
    }
    if let Some(text) = last_checkpoint {
        pass.reads += 1;
        pass.read_mismatches += u64::from(!read_checkpoint(&text, rec));
    }
    pass.wall_s = secs_since(t0);
    pass.cpu_s = cpu_secs() - cpu0;
    pass
}

/// Serialize both accumulators the way the checkpoint engine does at
/// each checkpoint.
fn write_checkpoint(
    classic: &CampaignAccumulator,
    paris: &CampaignAccumulator,
    rec: &Recorder,
) -> String {
    let mut text = String::new();
    rec.span(Layer::SnapWrite, || {
        classic.snapshot_write(&mut text);
        paris.snapshot_write(&mut text);
    });
    text
}

/// Read a checkpoint back, as a resumed campaign does once, and report
/// whether the read-back re-serializes to the same bytes.
fn read_checkpoint(text: &str, rec: &Recorder) -> bool {
    let reread = rec.span(Layer::SnapRead, || {
        let mut lines = text.lines();
        let classic = CampaignAccumulator::snapshot_read(&mut lines);
        let paris = CampaignAccumulator::snapshot_read(&mut lines);
        (classic, paris)
    });
    match reread {
        (Ok(classic), Ok(paris)) => {
            let mut again = String::new();
            classic.snapshot_write(&mut again);
            paris.snapshot_write(&mut again);
            again == text
        }
        (classic, paris) => {
            eprintln!("snapshot_read failed: {:?} / {:?}", classic.err(), paris.err());
            false
        }
    }
}
