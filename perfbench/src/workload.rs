//! The four workloads: their inputs, the campaign call each one times,
//! and the checks each run makes on the program's outputs.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use pt_anomaly::compare;
use pt_campaign::{
    multipath_digest, report_digest, run, run_checkpointed, run_multipath, run_resumed,
    validate_multipath, CampaignConfig, CampaignResult, CheckpointConfig, DynamicsConfig,
    MultipathConfig, MultipathResult,
};
use pt_topogen::{generate, DestTruth, InternetConfig, SyntheticInternet};

use crate::layers::{Layer, LayerTotals, Recorder};
use crate::measure::{cpu_secs, median, now, peak_rss_mib, percentile, secs_since};
use crate::replay::{self, Pass, Plan, UnitKind};

/// How a workload drives the campaign engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `pt_campaign::run` with this many workers.
    SideBySide { workers: usize },
    /// `run_checkpointed`, stopped halfway, then `run_resumed`.
    Checkpointed,
    /// `run_multipath` with the adaptive policies.
    Multipath,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Destinations in the generated network.
    pub destinations: usize,
    /// Rounds per campaign call.
    pub rounds: usize,
    /// The generator profile: `false` for the default Internet, `true`
    /// for `InternetConfig::hostile` (rate limiters, MPLS, UDP filters,
    /// asymmetric returns).
    pub hostile: bool,
    /// Extra network generations timed for `setup_s` after each
    /// campaign call (see [`Setup`]).
    pub setups_per_call: usize,
    /// How the campaign runs.
    pub mode: Mode,
}

/// The checkpoint cadence of `sbs-checkpoint`: `CheckpointConfig`'s
/// default.
const CHECKPOINT_EVERY: u32 = 64;

/// Units whose spans the first traced pass keeps and writes out, for
/// reading single units; the metrics fold every span as it closes.
const SPAN_FILE_UNITS: u32 = 200;

/// Campaign calls per run, at the least, so `units_per_s` is a median.
const MIN_CALLS: usize = 3;

/// The workloads. Why each exists is in `README.md` and `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sbs-serial",
        destinations: 5000,
        rounds: 2,
        hostile: false,
        setups_per_call: 2,
        mode: Mode::SideBySide { workers: 1 },
    },
    Workload {
        name: "sbs-pool",
        destinations: 5000,
        rounds: 2,
        hostile: false,
        setups_per_call: 2,
        mode: Mode::SideBySide { workers: 2 },
    },
    Workload {
        name: "mda-hostile",
        destinations: 1250,
        rounds: 2,
        hostile: true,
        setups_per_call: 6,
        mode: Mode::Multipath,
    },
    Workload {
        name: "sbs-checkpoint",
        destinations: 1000,
        rounds: 4,
        hostile: false,
        setups_per_call: 6,
        mode: Mode::Checkpointed,
    },
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result: its metrics, the units it attempted and failed, and
/// its checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Units attempted (campaign units plus replayed units).
    pub attempted: u64,
    /// Units quarantined, degraded or failing a check.
    pub failed: u64,
    /// Every check passed.
    pub correct: bool,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a check; `failing_units` are the units it charges when it
    /// does not hold.
    fn check(&mut self, what: &str, ok: bool, failing_units: u64) {
        self.note(format!("check {:<52} {}", what, if ok { "ok" } else { "FAILED" }));
        if !ok {
            self.correct = false;
            self.failed += failing_units.max(1);
        }
    }
}

/// The generator seed of every workload's network (`InternetConfig`'s
/// default). The network is fixed and `--seed` seeds the campaign: its
/// ports, flow ids and simulator seeds. Per-destination virtual time is
/// heavy-tailed, so across network seeds the mean of 1,000 destinations
/// moved by a quarter, which would drown any bound; across campaign
/// seeds it moves by about 1%.
pub const NETWORK_SEED: u64 = 2006;

impl Workload {
    /// The generator configuration of the workload's network.
    pub fn internet(&self) -> InternetConfig {
        let seed = NETWORK_SEED;
        let base = if self.hostile {
            InternetConfig::hostile(seed)
        } else {
            InternetConfig { seed, ..InternetConfig::default() }
        };
        InternetConfig { n_destinations: self.destinations, ..base }
    }

    fn units(&self) -> u64 {
        (self.destinations * self.rounds) as u64
    }

    fn campaign_config(&self, seed: u64, workers: usize) -> CampaignConfig {
        CampaignConfig {
            rounds: self.rounds,
            workers,
            // Routing dynamics move routes mid-trace; with them off every
            // Paris loop must have a planted cause, which the checks use.
            dynamics: DynamicsConfig::none(),
            seed,
            ..CampaignConfig::default()
        }
    }

    fn multipath_config(&self, seed: u64) -> MultipathConfig {
        MultipathConfig {
            rounds: self.rounds,
            workers: 1,
            adaptive: true,
            seed,
            ..MultipathConfig::default()
        }
    }
}

/// Where a run keeps its checkpoint file: under `.bench_run/` in the
/// directory the benchmark runs from.
fn scratch_dir() -> PathBuf {
    let dir = Path::new(".bench_run").to_path_buf();
    std::fs::create_dir_all(&dir).expect("create .bench_run");
    dir
}

/// Set-up timing. One build of the network is too short to time
/// steadily on a shared host, and its speed drifts with the host's load
/// over a run, so the network is built once before the campaign and
/// again after every campaign call, and `setup_s` is the median build.
/// The rebuilt copies are dropped at once.
struct Setup {
    config: InternetConfig,
    times: Vec<f64>,
}

impl Setup {
    fn build(&mut self) -> SyntheticInternet {
        let t = now();
        let net = std::hint::black_box(generate(&self.config));
        self.times.push(secs_since(t));
        net
    }
}

/// One campaign call's checked output.
enum Output {
    SideBySide(Box<CampaignResult>),
    Multipath(MultipathResult),
}

impl Output {
    fn digest(&self) -> String {
        match self {
            Output::SideBySide(r) => report_digest(r),
            Output::Multipath(r) => multipath_digest(r),
        }
    }

    /// Probes recorded per unit and virtual seconds per destination.
    fn figures(&self, w: &Workload) -> (f64, f64) {
        match self {
            Output::SideBySide(r) => (
                (r.paris_report.probes_sent + r.classic_report.probes_sent) as f64
                    / w.units() as f64,
                r.mean_virtual_secs,
            ),
            Output::Multipath(r) => (r.report.mean_probes / w.rounds as f64, r.mean_virtual_secs),
        }
    }
}

/// The timed call: one whole campaign.
fn campaign_call(w: &Workload, net: &SyntheticInternet, seed: u64, snap: &Path) -> Output {
    match w.mode {
        Mode::SideBySide { workers } => {
            Output::SideBySide(Box::new(run(net, &w.campaign_config(seed, workers))))
        }
        Mode::Multipath => Output::Multipath(run_multipath(net, &w.multipath_config(seed))),
        Mode::Checkpointed => {
            let config = w.campaign_config(seed, 1);
            let blocks = (w.units() as u32).div_ceil(CHECKPOINT_EVERY) as usize;
            let halfway = CheckpointConfig {
                path: snap.to_path_buf(),
                every_units: CHECKPOINT_EVERY,
                stop_after_checkpoints: Some(blocks / 2),
            };
            let stopped = run_checkpointed(net, &config, &halfway).expect("checkpointed run");
            assert!(stopped.is_none(), "the checkpointed run was to stop halfway");
            let resume = CheckpointConfig { stop_after_checkpoints: None, ..halfway };
            let done = run_resumed(net, &config, &resume).expect("resumed run");
            Output::SideBySide(Box::new(done.expect("the resumed run completes")))
        }
    }
}

/// What the timed campaign calls measured.
struct Timed {
    calls: usize,
    units: u64,
    units_per_s: f64,
    rates: Vec<f64>,
    peak_rss_mib: f64,
    wall_s: f64,
    cpu_s: f64,
    first: Output,
}

/// Call the campaign until `seconds` have passed (and at least
/// [`MIN_CALLS`] times), checking every call returns the same digest.
fn time_campaign(
    w: &Workload,
    net: &SyntheticInternet,
    seed: u64,
    seconds: f64,
    setup: &mut Setup,
    out: &mut Outcome,
) -> Timed {
    let snap = scratch_dir().join(format!("{}-{}.ptsnap", w.name, std::process::id()));
    let mut rates = Vec::new();
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let t0 = now();
    let mut first: Option<(Output, String)> = None;
    let mut drifted = 0u64;
    let mut peak_rss = None;
    while rates.len() < MIN_CALLS || secs_since(t0) < seconds {
        let (t, cpu) = (now(), cpu_secs());
        let output = campaign_call(w, net, seed, &snap);
        let dt = secs_since(t);
        cpu_s += cpu_secs() - cpu;
        wall_s += dt;
        rates.push(w.units() as f64 / dt);
        // The first call has done all the work a call does, and the
        // set-up rebuilds below would add a second network to the peak.
        peak_rss.get_or_insert_with(peak_rss_mib);
        for _ in 0..w.setups_per_call {
            drop(setup.build());
        }
        match &first {
            None => {
                let digest = output.digest();
                first = Some((output, digest));
            }
            Some((_, digest)) => drifted += u64::from(output.digest() != *digest),
        }
    }
    let _ = std::fs::remove_file(&snap);
    let calls = rates.len();
    let units_per_s = median(&rates);
    out.attempted += w.units() * calls as u64;
    out.check("every campaign call gives the same digest", drifted == 0, drifted * w.units());
    Timed {
        calls,
        units: w.units() * calls as u64,
        units_per_s,
        rates,
        peak_rss_mib: peak_rss.expect("at least one call"),
        wall_s,
        cpu_s,
        first: first.expect("at least one call").0,
    }
}

/// A loop at this destination has a cause Paris traceroute cannot
/// remove: a per-packet balancer, a zero-TTL forwarder, a NAT or a
/// broken router.
fn paris_proof(t: &DestTruth) -> bool {
    t.per_packet_lb || t.zero_ttl || t.nat || t.broken
}

/// The destination's only planted anomaly cause is an unequal per-flow
/// balancer, which makes classic traceroute (and not Paris) see loops.
fn only_unequal_per_flow(t: &DestTruth) -> bool {
    t.per_flow_lb && t.lb_delta > 0 && !paris_proof(t)
}

fn check_side_by_side(
    w: &Workload,
    net: &SyntheticInternet,
    r: &CampaignResult,
    out: &mut Outcome,
) {
    let units = w.units();
    for tool in [&r.paris_report, &r.classic_report] {
        out.check(
            &format!("{} routes_total = destinations x rounds", tool.tool),
            tool.routes_total == units,
            units.abs_diff(tool.routes_total),
        );
        out.check(
            &format!("{} has no degraded route", tool.tool),
            tool.degraded_routes == 0,
            tool.degraded_routes,
        );
    }
    out.check("no quarantined unit", r.quarantined.is_empty(), r.quarantined.len() as u64);

    let truth: BTreeMap<Ipv4Addr, &DestTruth> =
        net.dests.iter().map(|d| (d.addr, &d.truth)).collect();
    let paris_loop_dests: BTreeSet<Ipv4Addr> =
        r.paris.loop_signatures().into_iter().map(|(_, d)| d).collect();
    let unexplained =
        paris_loop_dests.iter().filter(|d| !truth.get(d).is_some_and(|t| paris_proof(t))).count();
    out.note(format!(
        "paris loop destinations: {} ({} without a cause Paris cannot remove)",
        paris_loop_dests.len(),
        unexplained
    ));
    out.check(
        "every Paris loop has a per-packet/zero-TTL/NAT/broken cause",
        unexplained == 0,
        (unexplained * w.rounds) as u64,
    );
    let per_flow_sigs = r
        .classic
        .loop_signatures()
        .iter()
        .filter(|(_, d)| truth.get(d).is_some_and(|t| only_unequal_per_flow(t)))
        .count();
    out.note(format!(
        "classic loop signatures at unequal-per-flow-only destinations: {per_flow_sigs}"
    ));
    out.check("classic loops where only a per-flow balancer is", per_flow_sigs > 0, units);
}

fn check_multipath(w: &Workload, net: &SyntheticInternet, r: &MultipathResult, out: &mut Outcome) {
    let score = validate_multipath(net, r);
    out.check("no quarantined unit", r.quarantined.is_empty(), r.quarantined.len() as u64);
    out.check("no degraded unit", r.report.degraded_units == 0, r.report.degraded_units as u64);
    out.check(
        "zero false balancers",
        score.false_balancers == 0,
        (score.false_balancers * w.rounds) as u64,
    );
    let planted = r.per_dest.iter().filter_map(|d| {
        net.dests[d.dest].truth.balancer().map(|(width, delta, _)| (d, width, delta))
    });
    let (mut balancers, mut recovered) = (0usize, 0usize);
    for (d, width, delta) in planted {
        balancers += 1;
        recovered += usize::from(d.width == usize::from(width) && d.delta == delta);
    }
    out.note(format!(
        "planted balancers with width and delta recovered: {recovered} of {balancers}"
    ));
    out.check(
        "width and delta recovered for >= 95% of balancers",
        recovered * 100 >= balancers * 95,
        ((balancers - recovered) * w.rounds) as u64,
    );
}

/// Check the first call's output, plus the workload's own equality.
fn check_outputs(
    w: &Workload,
    net: &SyntheticInternet,
    seed: u64,
    timed: &Timed,
    out: &mut Outcome,
) {
    match &timed.first {
        Output::SideBySide(r) => check_side_by_side(w, net, r, out),
        Output::Multipath(r) => check_multipath(w, net, r, out),
    }
    // Outside the timed calls: the plain 1-worker campaign whose result
    // the pool's and the resumed run's must equal byte for byte. Its
    // speed is printed as the reference for the speed-up or slowdown.
    let what = match w.mode {
        Mode::SideBySide { workers } if workers > 1 => "digest equals the 1-worker campaign's",
        Mode::Checkpointed => "resumed digest equals an uninterrupted run's",
        _ => return,
    };
    let t = now();
    let reference = run(net, &w.campaign_config(seed, 1));
    let rate = w.units() as f64 / secs_since(t);
    out.note(format!(
        "plain 1-worker run: {rate:.0} units/s once; this workload's median is {:.2}x that",
        timed.units_per_s / rate
    ));
    out.check(what, timed.first.digest() == report_digest(&reference), w.units());
}

/// Run workload `w` for `seconds`: end-to-end metrics, or with `trace`
/// the per-layer metrics of the layer replay.
pub fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    out.note(format!(
        "workload {}  seed {seed} (campaign seed; network seed {NETWORK_SEED})",
        w.name
    ));
    let mut setup = Setup { config: w.internet(), times: Vec::new() };
    let net = setup.build();
    let campaign_share = if trace { 0.4 } else { 1.0 };
    let timed = time_campaign(w, &net, seed, seconds * campaign_share, &mut setup, &mut out);
    let setup_s = median(&setup.times);
    out.note(format!(
        "network: {} destinations, {} nodes, {} rounds, built {} times",
        net.dests.len(),
        net.topology.len(),
        w.rounds,
        setup.times.len()
    ));
    check_outputs(w, &net, seed, &timed, &mut out);
    let (probes_per_unit, virtual_s) = timed.first.figures(w);
    out.note(format!(
        "campaign: {} calls, {} units, {:.0} units/s median, {:.2} probes/unit, {:.4} virtual s/dest",
        timed.calls, timed.units, timed.units_per_s, probes_per_unit, virtual_s
    ));
    out.note(format!(
        "campaign call rates (units/s): {}",
        timed.rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ")
    ));
    out.note(format!(
        "setup times (ms): {}",
        setup.times.iter().map(|t| format!("{:.1}", t * 1e3)).collect::<Vec<_>>().join(" ")
    ));

    if !trace {
        out.metric("units_per_s", timed.units_per_s, "1/s");
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mib", timed.peak_rss_mib, "MiB");
        out.metric("virtual_s_per_dest", virtual_s, "s");
        out.metric("probes_per_unit", probes_per_unit, "count");
        return out;
    }
    layer_metrics(w, &net, seed, seconds, setup_s, &timed, probes_per_unit, &mut out);
    out
}

/// The traced run: after the untraced campaign calls, replay the
/// campaign's first units serially, alternating untraced and traced
/// passes over the same units so both see the same host conditions,
/// and derive the per-layer metrics from the traced passes.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    net: &SyntheticInternet,
    seed: u64,
    seconds: f64,
    setup_s: f64,
    timed: &Timed,
    probes_per_unit: f64,
    out: &mut Outcome,
) {
    let kind = match w.mode {
        Mode::Multipath => UnitKind::Multipath { alpha: w.multipath_config(0).mda.alpha },
        _ => UnitKind::SideBySide(w.campaign_config(0, 1).trace),
    };
    let plan = Plan {
        net,
        kind,
        campaign_units: w.units() as u32,
        seed,
        checkpoint_every: (w.mode == Mode::Checkpointed).then_some(CHECKPOINT_EVERY),
    };
    // The first untraced pass fixes how many units every pass replays.
    let mut plain = vec![replay::run(&plan, u32::MAX, seconds * 0.1, &Recorder::new(false, 0))];
    let units = plain[0].units;
    let mut traced: Vec<Pass> = Vec::new();
    let mut totals: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    let mut counts = [0u64; 4];
    let t0 = now();
    while traced.len() < 2 || secs_since(t0) < seconds * 0.45 {
        let keep = if traced.is_empty() { SPAN_FILE_UNITS } else { 0 };
        let rec = Recorder::new(true, keep);
        traced.push(replay::run(&plan, units, f64::INFINITY, &rec));
        for (layer, t) in rec.totals() {
            let sum = totals.entry(layer).or_default();
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
        let c = &rec.counts;
        for (sum, v) in counts.iter_mut().zip([&c.sent, &c.received, &c.built, &c.matched]) {
            *sum += v.get();
        }
        if traced.len() == 1 {
            let path = scratch_dir().join(format!("spans-{}-seed{seed}.tsv", w.name));
            match rec.write_tsv(&path) {
                Ok(()) => out.note(format!(
                    "spans of the first {SPAN_FILE_UNITS} units written to {}",
                    path.display()
                )),
                Err(e) => out.note(format!("spans not written ({}): {e}", path.display())),
            }
        }
        plain.push(replay::run(&plan, units, f64::INFINITY, &Recorder::new(false, 0)));
    }
    let spans: u64 = totals.values().map(|t| t.count).sum();
    let sum = |passes: &[Pass], f: fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>();
    out.attempted += sum(&plain, |p| u64::from(p.units)) + sum(&traced, |p| u64::from(p.units));
    let degraded = sum(&plain, |p| p.degraded) + sum(&traced, |p| p.degraded);
    out.check("replay: no degraded unit", degraded == 0, degraded);
    let mismatches = sum(&plain, |p| p.read_mismatches) + sum(&traced, |p| p.read_mismatches);
    out.check(
        "replay: snapshot_read of snapshot_write re-serializes identically",
        mismatches == 0,
        mismatches,
    );

    // Per traced unit, over every traced pass.
    let n = traced.iter().map(|p| f64::from(p.units)).sum::<f64>().max(1.0);
    let self_us = |l: Layer| totals.get(&l).map_or(0.0, |t| t.self_ns as f64) / 1e3 / n;
    let total_ns = |l: Layer| totals.get(&l).map_or(0.0, |t| t.total_ns as f64);
    let [sent, received, built, matched] = counts.map(|c| c as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_unit = |passes: &[Pass], f: fn(&Pass) -> u64| sum(passes, f) as f64 / n;
    let sbs = !matches!(kind, UnitKind::Multipath { .. });

    let sim_us = self_us(Layer::Send) + self_us(Layer::RecvUntil) + self_us(Layer::TryRecv);
    let acquire_us = self_us(Layer::Acquire);
    let build_us = total_ns(Layer::Build) / 1e3 / n;
    let match_us = total_ns(Layer::Match) / 1e3 / n;
    let trace_self_us = self_us(Layer::Trace);
    let walk_self_us = self_us(Layer::Walk);
    let ingest_us = self_us(Layer::Ingest);
    let snapshot_us = self_us(Layer::SnapWrite) + self_us(Layer::SnapRead);
    let cpu_us = timed.cpu_s * 1e6 / timed.units as f64;
    let plain_units = sum(&plain, |p| u64::from(p.units)) as f64;
    let engine_us = cpu_us - plain.iter().map(|p| p.cpu_s).sum::<f64>() * 1e6 / plain_units;
    let pass_us = |passes: &[Pass]| {
        let per_unit: Vec<f64> =
            passes.iter().map(|p| p.wall_s * 1e6 / f64::from(p.units.max(1))).collect();
        median(&per_unit)
    };
    let overhead_us = pass_us(&traced) - pass_us(&plain);
    let attributed = sim_us
        + acquire_us
        + build_us
        + match_us
        + trace_self_us
        + walk_self_us
        + ingest_us
        + snapshot_us;
    let residual_us = cpu_us - (attributed - overhead_us + engine_us);
    let checkpoints = sum(&traced, |p| p.checkpoints).max(1) as f64;
    let reads = sum(&traced, |p| p.reads).max(1) as f64;
    let replay_probes = per_unit(&traced, |p| p.kept_probes);

    let mut unit_us: Vec<f64> = plain.iter().flat_map(|p| p.unit_us.iter().copied()).collect();
    unit_us.sort_by(f64::total_cmp);
    let finalize_ms = match &timed.first {
        Output::SideBySide(r) => {
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t = now();
                    std::hint::black_box((
                        r.paris.report(),
                        r.classic.report(),
                        compare(&r.classic, &r.paris),
                    ));
                    secs_since(t) * 1e3
                })
                .collect();
            median(&times)
        }
        Output::Multipath(_) => 0.0,
    };

    out.metric("topogen.generate_ms", setup_s * 1e3, "ms");
    out.metric("netsim.sim_us_per_unit", sim_us, "us");
    out.metric("netsim.packets_per_unit", per_unit(&traced, |p| p.packets), "count");
    out.metric(
        "netsim.ns_per_packet",
        ratio(sim_us * 1e3 * n, sum(&traced, |p| p.packets) as f64),
        "ns",
    );
    out.metric("netsim.drops_per_unit", per_unit(&traced, |p| p.drops), "count");
    out.metric("netsim.acquire_us_per_unit", acquire_us, "us");
    out.metric("core.build_ns_per_probe", ratio(total_ns(Layer::Build), built), "ns");
    out.metric("core.match_ns_per_reply", ratio(total_ns(Layer::Match), matched), "ns");
    out.metric("core.trace_self_us_per_unit", trace_self_us, "us");
    out.metric("core.wire_probes_per_unit", if sbs { sent / n } else { 0.0 }, "count");
    out.metric(
        "core.kept_probe_ratio",
        if sbs { ratio(replay_probes * n, sent) } else { 0.0 },
        "ratio",
    );
    out.metric("mda.walk_self_us_per_unit", walk_self_us, "us");
    out.metric("mda.wire_probes_per_unit", if sbs { 0.0 } else { sent / n }, "count");
    out.metric("mda.answered_ratio", if sbs { 0.0 } else { ratio(received, sent) }, "ratio");
    out.metric("anomaly.ingest_us_per_unit", ingest_us, "us");
    out.metric("anomaly.finalize_ms", finalize_ms, "ms");
    out.metric("campaign.cpu_us_per_unit", cpu_us, "us");
    out.metric("campaign.engine_us_per_unit", engine_us, "us");
    out.metric("campaign.unit_us_p50", percentile(&unit_us, 0.5), "us");
    out.metric("campaign.unit_us_p99", percentile(&unit_us, 0.99), "us");
    out.metric(
        "snapshot.write_ms_per_checkpoint",
        total_ns(Layer::SnapWrite) / 1e6 / checkpoints,
        "ms",
    );
    out.metric("snapshot.read_ms_per_checkpoint", total_ns(Layer::SnapRead) / 1e6 / reads, "ms");
    out.metric(
        "snapshot.kib_per_checkpoint",
        sum(&traced, |p| p.checkpoint_bytes) as f64 / 1024.0 / checkpoints,
        "KiB",
    );
    out.metric("snapshot.wait_ms", (timed.wall_s - timed.cpu_s) * 1e3 / timed.calls as f64, "ms");
    out.metric("bench.trace_overhead_us_per_unit", overhead_us, "us");
    out.metric("bench.residual_us_per_unit", residual_us, "us");
    out.metric("bench.replay_probes_per_unit", replay_probes, "count");

    out.note(format!(
        "replay: {units} units per pass, {} untraced and {} traced passes, {spans} spans",
        plain.len(),
        traced.len()
    ));
    out.note(format!(
        "untraced campaign: {:.0} units/s, {:.2} probes/unit; replay {:.2} probes/unit (gap {:+.2})",
        timed.units_per_s,
        probes_per_unit,
        replay_probes,
        replay_probes - probes_per_unit
    ));
    let share = |us: f64| us / cpu_us * 100.0;
    for (name, us) in [
        ("netsim (send/recv_until/try_recv)", sim_us),
        ("netsim acquire+release", acquire_us),
        ("core probe construction", build_us),
        ("core reply matching", match_us),
        ("core trace_with self", trace_self_us),
        ("mda discover_with self", walk_self_us),
        ("anomaly ingest", ingest_us),
        ("snapshot write+read", snapshot_us),
        ("campaign engine (cpu - replay cpu)", engine_us),
        ("minus tracing overhead", -overhead_us),
        ("residual", residual_us),
    ] {
        out.note(format!("  {name:<36} {us:>9.2} us/unit  {:>6.1}%", share(us)));
    }
    out.note(format!("  {:<36} {cpu_us:>9.2} us/unit  (untraced campaign CPU)", "total"));
}
