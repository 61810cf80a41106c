//! Crash-safe campaigns: versioned checkpoints and kill-anywhere
//! resume.
//!
//! The campaign engines in [`crate::runner`] fold `(destination, round)`
//! units in any order and only impose order at finalization, which makes
//! the whole campaign a *resumable* fold: execute units in blocks,
//! snapshot the fold state after each block, and — after a crash or a
//! kill — reload the snapshot and continue from the work-list cursor.
//! Because every unit's randomness derives from `(seed, destination,
//! round)` alone, the resumed run produces the exact units the dead run
//! would have, and the final report digest is **byte-identical** to an
//! uninterrupted run's, for any worker count and any kill point
//! (`tests/checkpoint_resume.rs` pins this).
//!
//! The snapshot is a versioned, line-oriented text format
//! (`ptsnap v1 ...`), hand-rolled (no serde in this workspace) and
//! *canonical*: sets and maps serialize in sorted order, so equal fold
//! contents produce equal bytes no matter how work was sharded. Floats
//! travel as IEEE-754 bit patterns — a reload loses nothing. Writes are
//! atomic (temp file + rename), so a crash mid-checkpoint leaves the
//! previous snapshot intact.

use std::fs;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use pt_anomaly::CampaignAccumulator;
use pt_core::{HaltReason, Hop, MeasuredRoute, ProbeResult, ResponseKind, StrategyId};
use pt_mda::BalancerClass;
use pt_netsim::splitmix64;
use pt_netsim::time::SimDuration;
use pt_topogen::SyntheticInternet;
use pt_wire::UnreachableCode;

use crate::runner::{
    campaign_units, finalize_campaign, finalize_multipath, multipath_units, run_multipath_block,
    run_units, BlockOutput, CampaignConfig, CampaignResult, MultipathBlock, MultipathConfig,
    MultipathResult, QuarantinedUnit, UnitDiscovery, UnitId,
};

/// Magic first-line prefix; bump the version when the format changes.
/// A loader refuses snapshots whose version it does not speak — there
/// is no silent cross-version reinterpretation.
const MAGIC: &str = "ptsnap v1";

/// Checkpointing knobs for [`run_checkpointed`] / [`run_resumed`] and
/// their multipath twins.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the snapshot lives. Overwritten atomically at every
    /// checkpoint.
    pub path: PathBuf,
    /// Units per checkpoint block: the campaign snapshots after every
    /// `every_units` completed units (and once more at the end). A
    /// crash loses at most one block of work.
    pub every_units: u32,
    /// Testing hook: stop — returning `Ok(None)` with the snapshot on
    /// disk — after this many checkpoints, *as if the process had been
    /// killed there*. `None` runs to completion.
    pub stop_after_checkpoints: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every 64 units, running to completion.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig { path: path.into(), every_units: 64, stop_after_checkpoints: None }
    }
}

fn invalid<E: std::fmt::Display>(err: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("campaign snapshot: {err}"))
}

/// Write `text` to `path` atomically: temp file in the same directory,
/// then rename over the target.
fn atomic_write(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Fingerprints: refuse to resume a snapshot under a different campaign.
// ---------------------------------------------------------------------

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ splitmix64(v))
}

fn mix_inject(mut h: u64, inject: &crate::runner::InjectConfig) -> u64 {
    for &u in &inject.panic_units {
        h = mix(h, 0x70616e_u64 ^ u64::from(u));
    }
    for &u in &inject.runaway_units {
        h = mix(h, 0x72756e_u64 ^ u64::from(u));
    }
    h
}

/// Everything that changes a side-by-side campaign's results, folded
/// into one value. Workers are deliberately excluded — worker count is
/// a pure performance knob, and resuming under a different one is
/// legal and byte-identical.
pub(crate) fn campaign_fingerprint(net: &SyntheticInternet, config: &CampaignConfig) -> u64 {
    let mut h = mix(0x7369_6465, config.seed); // "side"
    h = mix(h, config.rounds as u64);
    h = mix(h, net.dests.len() as u64);
    h = mix(h, u64::from(net.dests.first().map_or(0, |d| u32::from(d.addr))));
    let t = &config.trace;
    for v in [
        u64::from(t.min_ttl),
        u64::from(t.max_ttl),
        u64::from(t.probes_per_hop),
        t.timeout.nanos(),
        u64::from(t.max_consecutive_stars),
        u64::from(t.window),
        u64::from(t.probe_budget),
        t.time_budget.nanos(),
    ] {
        h = mix(h, v);
    }
    let d = &config.dynamics;
    for v in [
        d.forwarding_loop_prob.to_bits(),
        d.forwarding_loop_delay.nanos(),
        d.forwarding_loop_window.nanos(),
        d.balancer_flap_prob.to_bits(),
        d.balancer_flap_after.nanos(),
    ] {
        h = mix(h, v);
    }
    h = mix(h, u64::from(config.keep_routes));
    mix_inject(h, &config.inject)
}

/// The multipath counterpart of [`campaign_fingerprint`].
pub(crate) fn multipath_fingerprint(net: &SyntheticInternet, config: &MultipathConfig) -> u64 {
    let mut h = mix(0x6d64_6121, config.seed); // "mda!"
    h = mix(h, config.rounds as u64);
    h = mix(h, net.dests.len() as u64);
    h = mix(h, u64::from(net.dests.first().map_or(0, |d| u32::from(d.addr))));
    let m = &config.mda;
    for v in [
        m.alpha.to_bits(),
        m.max_flows_per_hop as u64,
        u64::from(m.max_ttl),
        u64::from(m.window),
        m.probe_budget as u64,
        m.time_budget.nanos(),
    ] {
        h = mix(h, v);
    }
    h = mix(h, u64::from(config.adaptive));
    mix_inject(h, &config.inject)
}

// ---------------------------------------------------------------------
// Shared line-format helpers.
// ---------------------------------------------------------------------

fn take<'a>(lines: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    lines.next().ok_or_else(|| format!("truncated at {what}"))
}

fn tok<T: std::str::FromStr>(
    t: &mut std::str::SplitAsciiWhitespace<'_>,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    t.next()
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

fn tok_hex_u64(t: &mut std::str::SplitAsciiWhitespace<'_>, what: &str) -> Result<u64, String> {
    u64::from_str_radix(t.next().ok_or_else(|| format!("missing {what}"))?, 16)
        .map_err(|e| format!("bad {what}: {e}"))
}

fn expect_tag(line: &str, tag: &str) -> Result<(), String> {
    if line.split_ascii_whitespace().next() == Some(tag) {
        Ok(())
    } else {
        Err(format!("expected {tag:?} line, got {line:?}"))
    }
}

/// Escape a panic message into a single whitespace-preserving token
/// stream: backslash, newline and carriage return are encoded so the
/// message always fits one line.
fn escape_panic(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape_panic(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn write_quarantined(out: &mut String, quarantined: &[QuarantinedUnit]) {
    use std::fmt::Write;
    let mut sorted: Vec<&QuarantinedUnit> = quarantined.iter().collect();
    sorted.sort_by_key(|q| q.unit);
    let _ = writeln!(out, "quarantined {}", sorted.len());
    for q in sorted {
        let _ = writeln!(
            out,
            "q {} {} {} {} {:016x} {}",
            q.unit,
            q.dest,
            q.round,
            q.addr,
            q.seed,
            escape_panic(&q.panic)
        );
    }
}

fn read_quarantined<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Vec<QuarantinedUnit>, String> {
    let header = take(lines, "quarantined header")?;
    expect_tag(header, "quarantined")?;
    let mut t = header.split_ascii_whitespace();
    t.next();
    let n: usize = tok(&mut t, "quarantine count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let line = take(lines, "quarantine record")?;
        // The panic text is the 7th field and may contain spaces.
        let mut fields = line.splitn(7, ' ');
        let tag = fields.next().ok_or("empty quarantine record")?;
        if tag != "q" {
            return Err(format!("expected q record, got {line:?}"));
        }
        let parse = |f: Option<&str>, what: &str| -> Result<String, String> {
            f.map(str::to_owned).ok_or_else(|| format!("q: missing {what}"))
        };
        let unit: u32 = parse(fields.next(), "unit")?.parse().map_err(|e| format!("{e}"))?;
        let dest: usize = parse(fields.next(), "dest")?.parse().map_err(|e| format!("{e}"))?;
        let round: usize = parse(fields.next(), "round")?.parse().map_err(|e| format!("{e}"))?;
        let addr: Ipv4Addr = parse(fields.next(), "addr")?.parse().map_err(|e| format!("{e}"))?;
        let seed = u64::from_str_radix(&parse(fields.next(), "seed")?, 16)
            .map_err(|e| format!("q: bad seed: {e}"))?;
        let panic = unescape_panic(&parse(fields.next(), "panic text")?);
        out.push(QuarantinedUnit { unit, dest, round, addr, seed, panic });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Route (de)serialization — only present under `keep_routes`.
// ---------------------------------------------------------------------

fn kind_code(kind: ResponseKind) -> String {
    match kind {
        ResponseKind::TimeExceeded => "TE".to_owned(),
        ResponseKind::EchoReply => "ER".to_owned(),
        ResponseKind::TcpReply => "TR".to_owned(),
        ResponseKind::Unreachable(UnreachableCode::Network) => "UN".to_owned(),
        ResponseKind::Unreachable(UnreachableCode::Host) => "UH".to_owned(),
        ResponseKind::Unreachable(UnreachableCode::Port) => "UP".to_owned(),
        ResponseKind::Unreachable(UnreachableCode::Other(c)) => format!("UO{c}"),
    }
}

fn kind_parse(s: &str) -> Result<ResponseKind, String> {
    Ok(match s {
        "TE" => ResponseKind::TimeExceeded,
        "ER" => ResponseKind::EchoReply,
        "TR" => ResponseKind::TcpReply,
        "UN" => ResponseKind::Unreachable(UnreachableCode::Network),
        "UH" => ResponseKind::Unreachable(UnreachableCode::Host),
        "UP" => ResponseKind::Unreachable(UnreachableCode::Port),
        other => match other.strip_prefix("UO") {
            Some(code) => ResponseKind::Unreachable(UnreachableCode::Other(
                code.parse().map_err(|e| format!("bad unreachable code: {e}"))?,
            )),
            None => return Err(format!("unknown response kind {other:?}")),
        },
    })
}

fn halt_name(halt: HaltReason) -> &'static str {
    match halt {
        HaltReason::Terminal => "Terminal",
        HaltReason::StarLimit => "StarLimit",
        HaltReason::MaxTtl => "MaxTtl",
        HaltReason::Budget => "Budget",
    }
}

fn halt_parse(s: &str) -> Result<HaltReason, String> {
    Ok(match s {
        "Terminal" => HaltReason::Terminal,
        "StarLimit" => HaltReason::StarLimit,
        "MaxTtl" => HaltReason::MaxTtl,
        "Budget" => HaltReason::Budget,
        other => return Err(format!("unknown halt reason {other:?}")),
    })
}

fn write_probe(out: &mut String, p: &ProbeResult) {
    use std::fmt::Write;
    match p.addr {
        Some(a) => {
            let _ = write!(out, " {a}");
        }
        None => out.push_str(" -"),
    }
    match p.rtt {
        Some(rtt) => {
            let _ = write!(out, ",{}", rtt.nanos());
        }
        None => out.push_str(",-"),
    }
    match p.kind {
        Some(k) => {
            let _ = write!(out, ",{}", kind_code(k));
        }
        None => out.push_str(",-"),
    }
    for field in [p.probe_ttl.map(u64::from), p.response_ttl.map(u64::from)] {
        match field {
            Some(v) => {
                let _ = write!(out, ",{v}");
            }
            None => out.push_str(",-"),
        }
    }
    match p.ip_id {
        Some(v) => {
            let _ = write!(out, ",{v}");
        }
        None => out.push_str(",-"),
    }
}

fn parse_probe(s: &str) -> Result<ProbeResult, String> {
    let mut f = s.split(',');
    let mut next = |what: &str| f.next().ok_or_else(|| format!("probe: missing {what}"));
    let opt = |v: &str| if v == "-" { None } else { Some(v.to_owned()) };
    let addr = match opt(next("addr")?) {
        Some(v) => Some(v.parse::<Ipv4Addr>().map_err(|e| format!("{e}"))?),
        None => None,
    };
    let rtt = match opt(next("rtt")?) {
        Some(v) => Some(SimDuration::from_nanos(v.parse::<u64>().map_err(|e| format!("{e}"))?)),
        None => None,
    };
    let kind = match opt(next("kind")?) {
        Some(v) => Some(kind_parse(&v)?),
        None => None,
    };
    let probe_ttl = match opt(next("probe_ttl")?) {
        Some(v) => Some(v.parse::<u8>().map_err(|e| format!("{e}"))?),
        None => None,
    };
    let response_ttl = match opt(next("response_ttl")?) {
        Some(v) => Some(v.parse::<u8>().map_err(|e| format!("{e}"))?),
        None => None,
    };
    let ip_id = match opt(next("ip_id")?) {
        Some(v) => Some(v.parse::<u16>().map_err(|e| format!("{e}"))?),
        None => None,
    };
    Ok(ProbeResult { addr, rtt, kind, probe_ttl, response_ttl, ip_id })
}

fn write_routes(out: &mut String, routes: &[(UnitId, StrategyId, usize, MeasuredRoute)]) {
    use std::fmt::Write;
    let mut order: Vec<usize> = (0..routes.len()).collect();
    // Canonical order: unit id, Paris before classic — the same order
    // finalization imposes.
    order.sort_by_key(|&i| (routes[i].0, routes[i].1 != StrategyId::ParisUdp));
    let _ = writeln!(out, "routes {}", routes.len());
    for i in order {
        let (unit, tool, round, route) = &routes[i];
        let _ = writeln!(
            out,
            "route {} {} {} {} {} {} {} {} {}",
            unit,
            tool.name(),
            round,
            route.strategy.name(),
            route.source,
            route.destination,
            route.min_ttl,
            halt_name(route.halt),
            route.hops.len(),
        );
        for hop in &route.hops {
            let _ = write!(out, "hop {} {}", hop.ttl, hop.probes.len());
            for p in &hop.probes {
                write_probe(out, p);
            }
            out.push('\n');
        }
    }
}

fn read_routes<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Vec<(UnitId, StrategyId, usize, MeasuredRoute)>, String> {
    let header = take(lines, "routes header")?;
    expect_tag(header, "routes")?;
    let mut t = header.split_ascii_whitespace();
    t.next();
    let n: usize = tok(&mut t, "route count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let line = take(lines, "route record")?;
        expect_tag(line, "route")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let unit: u32 = tok(&mut t, "unit")?;
        let tool = StrategyId::from_name(t.next().ok_or("route: missing tool")?)
            .ok_or("route: unknown tool")?;
        let round: usize = tok(&mut t, "round")?;
        let strategy = StrategyId::from_name(t.next().ok_or("route: missing strategy")?)
            .ok_or("route: unknown strategy")?;
        let source: Ipv4Addr = tok(&mut t, "source")?;
        let destination: Ipv4Addr = tok(&mut t, "destination")?;
        let min_ttl: u8 = tok(&mut t, "min_ttl")?;
        let halt = halt_parse(t.next().ok_or("route: missing halt")?)?;
        let n_hops: usize = tok(&mut t, "hop count")?;
        let mut hops = Vec::with_capacity(n_hops);
        for _ in 0..n_hops {
            let line = take(lines, "hop record")?;
            expect_tag(line, "hop")?;
            let mut t = line.split_ascii_whitespace();
            t.next();
            let ttl: u8 = tok(&mut t, "ttl")?;
            let n_probes: usize = tok(&mut t, "probe count")?;
            let mut probes = Vec::with_capacity(n_probes);
            for _ in 0..n_probes {
                probes.push(parse_probe(t.next().ok_or("hop: truncated probes")?)?);
            }
            hops.push(Hop { ttl, probes });
        }
        out.push((
            unit,
            tool,
            round,
            MeasuredRoute { strategy, source, destination, min_ttl, hops, halt },
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The side-by-side campaign snapshot.
// ---------------------------------------------------------------------

/// The resumable fold state of a side-by-side campaign: everything the
/// engine has accumulated, plus the work-list cursor (units `0..cursor`
/// are done — completed or quarantined).
pub(crate) struct CampaignSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) cursor: u32,
    pub(crate) out: BlockOutput,
}

impl CampaignSnapshot {
    fn empty(fingerprint: u64) -> Self {
        CampaignSnapshot { fingerprint, cursor: 0, out: BlockOutput::empty() }
    }

    fn serialize(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} side-by-side");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "cursor {}", self.cursor);
        write_quarantined(&mut s, &self.out.quarantined);
        let mut virt: Vec<(UnitId, f64)> = self.out.virtual_secs.clone();
        virt.sort_by_key(|(unit, _)| *unit);
        let _ = writeln!(s, "virt {}", virt.len());
        for (unit, v) in virt {
            let _ = writeln!(s, "v {} {:016x}", unit, v.to_bits());
        }
        self.out.classic.snapshot_write(&mut s);
        self.out.paris.snapshot_write(&mut s);
        write_routes(&mut s, &self.out.routes);
        s.push_str("end\n");
        s
    }

    fn parse(text: &str) -> Result<CampaignSnapshot, String> {
        let mut lines = text.lines();
        let magic = take(&mut lines, "magic")?;
        if magic != format!("{MAGIC} side-by-side") {
            return Err(format!("not a v1 side-by-side snapshot (got {magic:?})"));
        }
        let line = take(&mut lines, "fingerprint")?;
        expect_tag(line, "fingerprint")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let fingerprint = tok_hex_u64(&mut t, "fingerprint")?;
        let line = take(&mut lines, "cursor")?;
        expect_tag(line, "cursor")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let cursor: u32 = tok(&mut t, "cursor")?;
        let quarantined = read_quarantined(&mut lines)?;
        let line = take(&mut lines, "virt header")?;
        expect_tag(line, "virt")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let n_virt: usize = tok(&mut t, "virt count")?;
        let mut virtual_secs = Vec::with_capacity(n_virt);
        for _ in 0..n_virt {
            let line = take(&mut lines, "virt record")?;
            expect_tag(line, "v")?;
            let mut t = line.split_ascii_whitespace();
            t.next();
            let unit: u32 = tok(&mut t, "virt unit")?;
            let bits = tok_hex_u64(&mut t, "virt bits")?;
            virtual_secs.push((unit, f64::from_bits(bits)));
        }
        let classic = CampaignAccumulator::snapshot_read(&mut lines)?;
        let paris = CampaignAccumulator::snapshot_read(&mut lines)?;
        let routes = read_routes(&mut lines)?;
        if take(&mut lines, "end marker")? != "end" {
            return Err("missing end marker".to_owned());
        }
        Ok(CampaignSnapshot {
            fingerprint,
            cursor,
            out: BlockOutput { classic, paris, routes, virtual_secs, quarantined },
        })
    }

    fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.serialize())
    }

    fn load(path: &Path) -> io::Result<CampaignSnapshot> {
        CampaignSnapshot::parse(&fs::read_to_string(path)?).map_err(invalid)
    }
}

fn drive_campaign(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    ckpt: &CheckpointConfig,
    mut snap: CampaignSnapshot,
) -> io::Result<Option<CampaignResult>> {
    let n_units = campaign_units(net, config);
    if snap.cursor > n_units {
        return Err(invalid(format!(
            "cursor {} exceeds the campaign's {} units",
            snap.cursor, n_units
        )));
    }
    let every = ckpt.every_units.max(1);
    let mut checkpoints = 0usize;
    while snap.cursor < n_units {
        let end = n_units.min(snap.cursor.saturating_add(every));
        snap.out.absorb(run_units(net, config, snap.cursor..end));
        snap.cursor = end;
        snap.save(&ckpt.path)?;
        checkpoints += 1;
        if snap.cursor < n_units
            && ckpt.stop_after_checkpoints.is_some_and(|limit| checkpoints >= limit)
        {
            return Ok(None);
        }
    }
    Ok(Some(finalize_campaign(net.dests.len(), snap.out)))
}

/// Run a side-by-side campaign with periodic checkpoints — [`crate::run`]
/// with crash safety. Returns `Ok(None)` only when
/// [`CheckpointConfig::stop_after_checkpoints`] cut the run short (the
/// snapshot is on disk, ready for [`run_resumed`]); otherwise the result
/// is byte-for-byte the one [`crate::run`] produces.
pub fn run_checkpointed(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<CampaignResult>> {
    drive_campaign(net, config, ckpt, CampaignSnapshot::empty(campaign_fingerprint(net, config)))
}

/// Resume a checkpointed campaign from its snapshot and run it to
/// completion (or to the next `stop_after_checkpoints` kill point). The
/// snapshot must have been taken by a campaign with the same
/// results-affecting configuration — worker count may differ freely —
/// or this fails with `InvalidData` instead of producing a silently
/// inconsistent result.
pub fn run_resumed(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<CampaignResult>> {
    let snap = CampaignSnapshot::load(&ckpt.path)?;
    let expect = campaign_fingerprint(net, config);
    if snap.fingerprint != expect {
        return Err(invalid(format!(
            "fingerprint mismatch: snapshot {:016x}, campaign {:016x} — refusing to resume \
             under a different configuration",
            snap.fingerprint, expect
        )));
    }
    drive_campaign(net, config, ckpt, snap)
}

// ---------------------------------------------------------------------
// The multipath campaign snapshot.
// ---------------------------------------------------------------------

fn class_name(class: BalancerClass) -> &'static str {
    match class {
        BalancerClass::NotBalanced => "NotBalanced",
        BalancerClass::PerFlow => "PerFlow",
        BalancerClass::PerPacket => "PerPacket",
        BalancerClass::Undetermined => "Undetermined",
    }
}

fn class_parse(s: &str) -> Result<BalancerClass, String> {
    Ok(match s {
        "NotBalanced" => BalancerClass::NotBalanced,
        "PerFlow" => BalancerClass::PerFlow,
        "PerPacket" => BalancerClass::PerPacket,
        "Undetermined" => BalancerClass::Undetermined,
        other => return Err(format!("unknown balancer class {other:?}")),
    })
}

/// The resumable fold state of a multipath campaign.
pub(crate) struct MultipathSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) cursor: u32,
    pub(crate) out: MultipathBlock,
}

impl MultipathSnapshot {
    fn empty(fingerprint: u64) -> Self {
        MultipathSnapshot { fingerprint, cursor: 0, out: MultipathBlock::empty() }
    }

    fn serialize(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} multipath");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "cursor {}", self.cursor);
        write_quarantined(&mut s, &self.out.quarantined);
        let mut order: Vec<usize> = (0..self.out.units.len()).collect();
        order.sort_by_key(|&i| self.out.units[i].0);
        let _ = writeln!(s, "units {}", order.len());
        for i in order {
            let (unit, u, virt) = &self.out.units[i];
            let _ = writeln!(
                s,
                "u {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x}",
                unit,
                u.dest,
                u.round,
                u.addr,
                u.width,
                u.observed_width,
                u.delta,
                class_name(u.class),
                u.hops,
                u.links,
                u.stars,
                u.unconverged_hops,
                u.probes,
                u.reached,
                u.degraded,
                virt.to_bits(),
            );
        }
        s.push_str("end\n");
        s
    }

    fn parse(text: &str) -> Result<MultipathSnapshot, String> {
        let mut lines = text.lines();
        let magic = take(&mut lines, "magic")?;
        if magic != format!("{MAGIC} multipath") {
            return Err(format!("not a v1 multipath snapshot (got {magic:?})"));
        }
        let line = take(&mut lines, "fingerprint")?;
        expect_tag(line, "fingerprint")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let fingerprint = tok_hex_u64(&mut t, "fingerprint")?;
        let line = take(&mut lines, "cursor")?;
        expect_tag(line, "cursor")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let cursor: u32 = tok(&mut t, "cursor")?;
        let quarantined = read_quarantined(&mut lines)?;
        let line = take(&mut lines, "units header")?;
        expect_tag(line, "units")?;
        let mut t = line.split_ascii_whitespace();
        t.next();
        let n_units: usize = tok(&mut t, "unit count")?;
        let mut units = Vec::with_capacity(n_units);
        for _ in 0..n_units {
            let line = take(&mut lines, "unit record")?;
            expect_tag(line, "u")?;
            let mut t = line.split_ascii_whitespace();
            t.next();
            let unit: u32 = tok(&mut t, "unit")?;
            let dest: usize = tok(&mut t, "dest")?;
            let round: usize = tok(&mut t, "round")?;
            let addr: Ipv4Addr = tok(&mut t, "addr")?;
            let width: usize = tok(&mut t, "width")?;
            let observed_width: usize = tok(&mut t, "observed width")?;
            let delta: u8 = tok(&mut t, "delta")?;
            let class = class_parse(t.next().ok_or("u: missing class")?)?;
            let hops: usize = tok(&mut t, "hops")?;
            let links: usize = tok(&mut t, "links")?;
            let stars: usize = tok(&mut t, "stars")?;
            let unconverged_hops: usize = tok(&mut t, "unconverged hops")?;
            let probes: usize = tok(&mut t, "probes")?;
            let reached: bool = tok(&mut t, "reached")?;
            let degraded: bool = tok(&mut t, "degraded")?;
            let virt = f64::from_bits(tok_hex_u64(&mut t, "virt bits")?);
            units.push((
                unit,
                UnitDiscovery {
                    dest,
                    round,
                    addr,
                    width,
                    observed_width,
                    delta,
                    class,
                    hops,
                    links,
                    stars,
                    unconverged_hops,
                    probes,
                    reached,
                    degraded,
                },
                virt,
            ));
        }
        if take(&mut lines, "end marker")? != "end" {
            return Err("missing end marker".to_owned());
        }
        Ok(MultipathSnapshot { fingerprint, cursor, out: MultipathBlock { units, quarantined } })
    }

    fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.serialize())
    }

    fn load(path: &Path) -> io::Result<MultipathSnapshot> {
        MultipathSnapshot::parse(&fs::read_to_string(path)?).map_err(invalid)
    }
}

fn drive_multipath(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    ckpt: &CheckpointConfig,
    mut snap: MultipathSnapshot,
) -> io::Result<Option<MultipathResult>> {
    let n_units = multipath_units(net, config);
    if snap.cursor > n_units {
        return Err(invalid(format!(
            "cursor {} exceeds the campaign's {} units",
            snap.cursor, n_units
        )));
    }
    let every = ckpt.every_units.max(1);
    let mut checkpoints = 0usize;
    while snap.cursor < n_units {
        let end = n_units.min(snap.cursor.saturating_add(every));
        snap.out.absorb(run_multipath_block(net, config, snap.cursor..end));
        snap.cursor = end;
        snap.save(&ckpt.path)?;
        checkpoints += 1;
        if snap.cursor < n_units
            && ckpt.stop_after_checkpoints.is_some_and(|limit| checkpoints >= limit)
        {
            return Ok(None);
        }
    }
    Ok(Some(finalize_multipath(net, config, snap.out)))
}

/// [`run_checkpointed`] for the multipath campaign mode.
pub fn run_multipath_checkpointed(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<MultipathResult>> {
    drive_multipath(net, config, ckpt, MultipathSnapshot::empty(multipath_fingerprint(net, config)))
}

/// [`run_resumed`] for the multipath campaign mode.
pub fn run_multipath_resumed(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<MultipathResult>> {
    let snap = MultipathSnapshot::load(&ckpt.path)?;
    let expect = multipath_fingerprint(net, config);
    if snap.fingerprint != expect {
        return Err(invalid(format!(
            "fingerprint mismatch: snapshot {:016x}, campaign {:016x} — refusing to resume \
             under a different configuration",
            snap.fingerprint, expect
        )));
    }
    drive_multipath(net, config, ckpt, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::report_digest;
    use crate::runner::run;
    use pt_topogen::{generate, InternetConfig};

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ptsnap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_snapshot_is_canonical() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig {
            rounds: 2,
            workers: 4,
            seed: 99,
            keep_routes: true,
            ..CampaignConfig::default()
        };
        let plain = report_digest(&run(&net, &config));
        let path = tmp_path("canonical");
        let ckpt =
            CheckpointConfig { every_units: 17, stop_after_checkpoints: None, path: path.clone() };
        let result = run_checkpointed(&net, &config, &ckpt).unwrap().expect("ran to completion");
        assert_eq!(report_digest(&result), plain);
        // The final on-disk snapshot round-trips to identical bytes —
        // the canonical-format property the resume tests build on.
        let text = fs::read_to_string(&path).unwrap();
        let reparsed = CampaignSnapshot::parse(&text).unwrap();
        assert_eq!(reparsed.cursor, 80);
        assert_eq!(reparsed.serialize(), text);
        // Kept routes survive the round trip exactly.
        assert_eq!(reparsed.out.routes.len(), result.routes.len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_refuses_a_mismatched_configuration() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 2, workers: 2, seed: 99, ..Default::default() };
        let path = tmp_path("mismatch");
        let ckpt = CheckpointConfig {
            every_units: 40,
            stop_after_checkpoints: Some(1),
            path: path.clone(),
        };
        assert!(run_checkpointed(&net, &config, &ckpt).unwrap().is_none());
        // Same campaign, different seed: a silent resume would splice
        // two unrelated campaigns together.
        let other = CampaignConfig { seed: 100, ..config.clone() };
        let err = run_resumed(&net, &other, &ckpt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // But a different *worker count* is explicitly fine.
        let reworked = CampaignConfig { workers: 7, ..config.clone() };
        assert!(run_resumed(&net, &reworked, &ckpt).unwrap().is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn panic_text_escaping_round_trips() {
        for s in ["plain", "with\nnewline", "back\\slash", "mixed \\n literal\r\n", ""] {
            assert_eq!(unescape_panic(&escape_panic(s)), s);
        }
    }
}
