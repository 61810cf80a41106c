//! E10 — campaign execution throughput: the work-stealing pool of
//! per-destination simulator tasks vs the serial single-worker runner,
//! the windowed tracer's virtual-time dividend, and (PR 10) the batched
//! hot path's same-run A/B gates.
//!
//! Two campaigns are timed. The 100-destination one carries the
//! size-specific checks: serial-vs-pool digest identity, the windowed
//! virtual-time cut and the committed PR-4 baseline ratio. The pool's
//! scaling curve is measured on a separate 2,000-destination campaign
//! that takes well over half a second serially: a 30 ms campaign timed
//! on a shared box measures scheduler noise, not pool overhead.
//!
//! The serial run *is* the PR-1-style baseline: one thread claiming
//! every `(destination, round)` unit in order. Because results are
//! worker-count-invariant (see `tests/worker_invariance.rs`), the
//! worker knob changes only wall-clock — which is exactly what this
//! bench measures. Throughput floors are measured at `window = 1`
//! (the probing behavior every committed baseline up to PR 3 used), so
//! the comparison stays apples-to-apples; the windowed run is measured
//! separately, for both wall-clock and the virtual-time-per-destination
//! figure the paper's 32 parallel processes motivated.
//!
//! ## Gate policy (reworked in PR 10)
//!
//! Cross-machine wall-clock comparisons are not reproducible: the
//! committed PR-3/PR-4 numbers were recorded on hardware this bench
//! cannot re-create, and identical code measures anywhere between
//! 0.5× and 1.0× of those figures across runs of the shared build
//! containers. Gates are therefore layered by what each one can
//! honestly assert:
//!
//! * **Always, even in CI smoke (`cargo bench -- --test`)**: the
//!   serial and 8-worker campaigns must produce byte-identical report
//!   digests. This is deterministic, wall-clock-free, and is the
//!   batching refactor's contract — batched probe construction and
//!   per-tick batch delivery may not perturb results.
//! * **Real runs**: same-run A/B ratios — wide vs scalar checksum
//!   folding and batched vs per-probe Paris construction, old and new
//!   path measured back to back on the same machine — plus the
//!   deterministic virtual-time cut and the pool-machinery overhead
//!   floor, and a catastrophic-regression floor against the committed
//!   PR-4 serial baseline. The pool floors (≥ 0.75× serial anywhere,
//!   ≥ 2× at 8 workers on ≥ 4 hardware threads) read the medians of
//!   the scaling campaign.
//! * **Real runs with `PT_BENCH_REFERENCE=1`**: the strict absolute
//!   floors vs the committed baseline (≥ 1× PR-3-era serial, the
//!   ROADMAP's ≥ 2× batching target). Set the variable only on
//!   hardware comparable to what recorded `BENCH_pr4.json`; on
//!   anything else the ratio is reported and recorded, not asserted.
//!
//! A real timing run writes the measured numbers, the workers curve
//! included, to `BENCH_pr13.json` at the workspace root — *before* any
//! floor can panic, so the artifact always records what was actually
//! measured (`BENCH_pr4.json` stays frozen as the committed baseline
//! the ratios compare against).

// Bench harness: wall-clock timing is this crate's whole purpose.
#![allow(clippy::disallowed_methods)]
use std::net::Ipv4Addr;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pt_bench::header;
use pt_campaign::{report_digest, run, CampaignConfig};
use pt_core::{ParisUdp, ProbeSpec, ProbeStrategy, TraceConfig};
use pt_topogen::{generate, InternetConfig, SyntheticInternet};
use pt_wire::Checksum;

const DESTS: usize = 100;
const ROUNDS: usize = 6;
/// The scaling campaign: long enough (≥ 0.5 s serially) that the
/// pool-vs-serial ratio measures pool overhead rather than noise.
const SCALE_DESTS: usize = 2000;
const SCALE_ROUNDS: usize = 6;
/// Timed campaigns per worker count on the scaling curve.
const SCALE_RUNS: usize = 5;
const CURVE_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn config(rounds: usize, workers: usize, window: u8) -> CampaignConfig {
    let mut cc = CampaignConfig { rounds, workers, seed: 8, ..CampaignConfig::default() };
    cc.trace = TraceConfig { window, ..cc.trace };
    cc
}

/// Best-of-N wall-clock seconds (and the virtual-time figure, identical
/// across repeats) for a full campaign at `workers`/`window`.
fn best_run(net: &SyntheticInternet, workers: usize, window: u8, runs: usize) -> (f64, f64) {
    let mut virtual_secs = 0.0;
    let wall = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let result = run(net, &config(ROUNDS, workers, window));
            assert!(result.classic_report.routes_total > 0);
            virtual_secs = result.mean_virtual_secs;
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (wall, virtual_secs)
}

/// One worker count on the scaling curve: traces/s over repeated runs.
struct CurvePoint {
    workers: usize,
    median_tps: f64,
    iqr_tps: f64,
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
fn quartiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Traces/s at each of [`CURVE_WORKERS`], `runs` campaigns apiece at
/// window 1. Worker counts take turns within each run, so a drift in
/// the machine's speed spreads over every point instead of skewing one.
fn scaling_curve(net: &SyntheticInternet, rounds: usize, runs: usize) -> Vec<CurvePoint> {
    let traces = (net.dests.len() * rounds * 2) as f64;
    let mut samples = vec![Vec::with_capacity(runs); CURVE_WORKERS.len()];
    for _ in 0..runs {
        for (workers, tps) in CURVE_WORKERS.iter().zip(&mut samples) {
            let start = Instant::now();
            let result = run(net, &config(rounds, *workers, 1));
            assert!(result.classic_report.routes_total > 0);
            tps.push(traces / start.elapsed().as_secs_f64());
        }
    }
    CURVE_WORKERS
        .iter()
        .zip(samples)
        .map(|(&workers, tps)| {
            let (q1, median_tps, q3) = quartiles(tps);
            CurvePoint { workers, median_tps, iqr_tps: q3 - q1 }
        })
        .collect()
}

/// Median 8-worker over median 1-worker throughput.
fn pool_speedup(curve: &[CurvePoint]) -> f64 {
    let median =
        |w: usize| curve.iter().find(|p| p.workers == w).map_or(f64::NAN, |p| p.median_tps);
    median(8) / median(1)
}

/// A committed baseline figure, read from its JSON file so the floors
/// track what is actually in the tree.
fn committed_baseline(json: &'static str, file: &str) -> f64 {
    let field = "\"serial_traces_per_sec\":";
    let tail = &json
        [json.find(field).unwrap_or_else(|| panic!("{file} missing serial field")) + field.len()..];
    let number: String =
        tail.chars().skip_while(|c| c.is_whitespace()).take_while(|c| c.is_ascii_digit()).collect();
    number.parse().unwrap_or_else(|_| panic!("unparsable serial baseline in {file}"))
}

fn pr4_serial_baseline() -> f64 {
    committed_baseline(include_str!("../../../BENCH_pr4.json"), "BENCH_pr4.json")
}

/// Best-of-N seconds for `reps` iterations of `a` and of `b` over a
/// shared `state`. The two sides take turns within each of the `runs`,
/// so a change in the machine's speed mid-measurement hits both alike.
fn best_ab<S>(
    runs: usize,
    reps: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S),
    mut b: impl FnMut(&mut S),
) -> (f64, f64) {
    fn time<S>(reps: usize, f: &mut impl FnMut(&mut S), state: &mut S) -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            f(state);
        }
        start.elapsed().as_secs_f64()
    }
    (0..runs).fold((f64::INFINITY, f64::INFINITY), |(best_a, best_b), _| {
        (best_a.min(time(reps, &mut a, state)), best_b.min(time(reps, &mut b, state)))
    })
}

/// Same-run A/B: wide deferred-carry checksum folding vs the scalar
/// per-word reference it replaced, on an MTU-sized buffer. Both paths
/// run back to back on the same machine, so the ratio is meaningful
/// wherever the bench runs.
fn checksum_ab(runs: usize) -> f64 {
    const LEN: usize = 1500;
    let mut buf = [0u8; LEN];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for b in &mut buf {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        *b = (x >> 56) as u8;
    }
    let (wide, scalar) = best_ab(
        runs,
        20_000,
        &mut buf,
        |buf| {
            let mut c = Checksum::new();
            c.add_bytes(black_box(buf));
            black_box(c.finish());
        },
        |buf| {
            let mut c = Checksum::new();
            c.add_bytes_scalar(black_box(buf));
            black_box(c.finish());
        },
    );
    scalar / wide
}

/// Same-run A/B: batched Paris-UDP probe construction (pinned-checksum
/// invariant computed once per TTL window) vs the per-probe loop.
fn construction_ab(runs: usize) -> f64 {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(192, 0, 2, 7);
    let specs: Vec<ProbeSpec> =
        (0u64..16).map(|i| ProbeSpec { ttl: 1 + (i as u8 & 0x0f), probe_idx: i }).collect();
    let strategy = ParisUdp::new(41_000, 52_000);
    let out = Vec::with_capacity(specs.len());
    let (batched, sequential) = best_ab(
        runs,
        20_000,
        &mut (strategy, out),
        |(strategy, out)| {
            out.clear();
            strategy.build_probe_batch(src, dst, black_box(&specs), &mut Vec::new, out);
            black_box(&out);
        },
        |(strategy, out)| {
            out.clear();
            for spec in black_box(&specs) {
                out.push(strategy.build_probe_with(src, dst, spec.ttl, spec.probe_idx, Vec::new()));
            }
            black_box(&out);
        },
    );
    sequential / batched
}

struct Measured {
    serial_tps: f64,
    windowed_tps: f64,
    sequential_virtual_secs: f64,
    windowed_virtual_secs: f64,
    checksum_speedup: f64,
    construction_speedup: f64,
    curve: Vec<CurvePoint>,
}

fn experiment() -> Measured {
    header(
        "E10 / perf",
        "campaign throughput: pool vs serial, windowed vs sequential, batched hot path",
    );
    let net =
        generate(&InternetConfig { n_destinations: DESTS, seed: 8, ..InternetConfig::default() });
    let traces = (DESTS * ROUNDS * 2) as f64;
    let windowed = TraceConfig::default().window;
    let smoke = std::env::args().any(|a| a == "--test");
    let reference = std::env::var("PT_BENCH_REFERENCE").is_ok_and(|v| v == "1");
    let runs = if smoke { 1 } else { 10 };

    // Digest identity — asserted even in CI smoke. Worker count and the
    // batched paths may change wall-clock only, never a result byte.
    let digest_serial = report_digest(&run(&net, &config(ROUNDS, 1, windowed)));
    let digest_pool = report_digest(&run(&net, &config(ROUNDS, 8, windowed)));
    assert_eq!(
        digest_serial, digest_pool,
        "serial and pooled campaigns must produce byte-identical reports"
    );

    let _warmup = best_run(&net, 1, 1, 1);
    let (serial_secs, sequential_virtual_secs) = best_run(&net, 1, 1, runs);
    let (windowed_secs, windowed_virtual_secs) = best_run(&net, 1, windowed, runs);
    let checksum_speedup = checksum_ab(runs);
    let construction_speedup = construction_ab(runs);
    let serial_tps = traces / serial_secs;
    let windowed_tps = traces / windowed_secs;
    let baseline = pr4_serial_baseline();
    let vs_pr4 = serial_tps / baseline;
    let virtual_cut = sequential_virtual_secs / windowed_virtual_secs;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("  {traces:.0} traces per campaign ({DESTS} dests x {ROUNDS} rounds x 2 tools)");
    println!("  report digest: serial == pool ({} chars)", digest_serial.len());
    println!("  serial (1 worker, window 1):   {serial_secs:>8.4} s  = {serial_tps:>9.0} traces/s");
    println!(
        "  serial (1 worker, window {windowed}):   {windowed_secs:>8.4} s  = {windowed_tps:>9.0} traces/s"
    );
    println!(
        "  vs committed PR-4 serial baseline ({baseline:.0} traces/s): {vs_pr4:.2}x{}",
        if reference { " [reference hardware: floors armed]" } else { " [reported, not asserted]" }
    );
    println!("  checksum fold, wide vs scalar (1500 B): {checksum_speedup:.2}x");
    println!("  paris construction, batched vs per-probe (window 16): {construction_speedup:.2}x");
    println!(
        "  virtual secs/dest: {sequential_virtual_secs:.2} sequential -> \
         {windowed_virtual_secs:.2} windowed ({virtual_cut:.2}x cut)"
    );

    // Smoke runs walk the curve code once over the small campaign.
    let (scale_net, scale_rounds, scale_runs) = if smoke {
        (net, ROUNDS, 1)
    } else {
        let big =
            InternetConfig { n_destinations: SCALE_DESTS, seed: 8, ..InternetConfig::default() };
        (generate(&big), SCALE_ROUNDS, SCALE_RUNS)
    };
    let curve = scaling_curve(&scale_net, scale_rounds, scale_runs);
    println!(
        "  scaling campaign: {} dests x {scale_rounds} rounds, window 1, median of {scale_runs} run(s), {:.2} s serial",
        scale_net.dests.len(),
        (scale_net.dests.len() * scale_rounds * 2) as f64 / curve[0].median_tps
    );
    for p in &curve {
        println!(
            "    {} worker(s): {:>9.0} traces/s (IQR {:>7.0}) = {:.2}x serial",
            p.workers,
            p.median_tps,
            p.iqr_tps,
            p.median_tps / curve[0].median_tps
        );
    }
    println!(
        "  pool speedup, 8 workers: {:.2}x on {cores} hardware thread(s)",
        pool_speedup(&curve)
    );
    Measured {
        serial_tps,
        windowed_tps,
        sequential_virtual_secs,
        windowed_virtual_secs,
        checksum_speedup,
        construction_speedup,
        curve,
    }
}

/// Floor asserts over a real run's measurements. Called after the
/// numbers are recorded, so a breach never loses the evidence.
fn gate(m: &Measured, reference: bool) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup = pool_speedup(&m.curve);
    let baseline = pr4_serial_baseline();
    let vs_pr4 = m.serial_tps / baseline;
    let virtual_cut = m.sequential_virtual_secs / m.windowed_virtual_secs;
    // Same-run gates: both sides measured back to back, so they hold on
    // any hardware.
    assert!(speedup >= 0.75, "pool machinery costs too much even single-core: {speedup:.2}x");
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "8 workers on {cores} hardware threads must beat the serial \
             runner by >= 2x, got {speedup:.2}x"
        );
    } else {
        println!("  ({cores} hardware thread(s): >= 2x parallel floor not applicable)");
    }
    assert!(
        m.checksum_speedup >= 1.1,
        "wide checksum folding must beat the scalar reference on MTU-sized \
         buffers, got {:.2}x",
        m.checksum_speedup
    );
    assert!(
        m.construction_speedup >= 0.95,
        "batched probe construction must not cost more than the per-probe \
         loop, got {:.2}x",
        m.construction_speedup
    );
    // The virtual-time gate is deterministic (no wall-clock), but it
    // only means something on a real run's fully warmed campaign.
    assert!(
        virtual_cut >= 2.0,
        "PR-4 acceptance: windowed tracing must cut virtual secs/destination >= 2x, \
         got {virtual_cut:.2}x"
    );
    // Cross-machine: catastrophic-regression floor everywhere; the
    // strict committed-baseline floors only on reference hardware.
    assert!(
        vs_pr4 >= 0.35,
        "serial throughput collapsed to {vs_pr4:.2}x of the committed PR-4 \
         baseline ({:.0} traces/s) — that is beyond machine noise",
        m.serial_tps
    );
    if reference {
        assert!(
            vs_pr4 >= 1.0,
            "reference hardware: serial window-1 runner must not regress below \
             the committed PR-4 baseline ({baseline:.0} traces/s), got {vs_pr4:.2}x"
        );
        assert!(
            vs_pr4 >= 2.0,
            "reference hardware: ROADMAP batching target is >= 2x the committed \
             PR-4 serial baseline, got {vs_pr4:.2}x ({:.0} traces/s)",
            m.serial_tps
        );
    }
}

fn write_baseline(m: &Measured) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let window = TraceConfig::default().window;
    let curve = m
        .curve
        .iter()
        .map(|p| {
            format!(
                "{{\"workers\": {}, \"median_traces_per_sec\": {:.0}, \"iqr_traces_per_sec\": {:.0}, \"vs_serial\": {:.2}}}",
                p.workers,
                p.median_tps,
                p.iqr_tps,
                p.median_tps / m.curve[0].median_tps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let json = format!(
        "{{\n  \"bench\": \"campaign_pool\",\n  \"campaign\": {{\"destinations\": {DESTS}, \"rounds\": {ROUNDS}, \"tools\": 2}},\n  \"hardware_threads\": {cores},\n  \"serial_traces_per_sec\": {:.0},\n  \"serial_vs_pr4_baseline\": {:.2},\n  \"checksum_wide_vs_scalar\": {:.2},\n  \"construction_batched_vs_sequential\": {:.2},\n  \"windowed\": {{\"window\": {window}, \"serial_traces_per_sec\": {:.0}, \"virtual_secs_per_dest_sequential\": {:.3}, \"virtual_secs_per_dest_windowed\": {:.3}, \"virtual_time_cut\": {:.2}}},\n  \"scaling\": {{\"destinations\": {SCALE_DESTS}, \"rounds\": {SCALE_ROUNDS}, \"tools\": 2, \"window\": 1, \"runs\": {SCALE_RUNS}, \"pool8_vs_serial\": {:.2},\n    \"curve\": [\n      {curve}\n    ]}}\n}}\n",
        m.serial_tps,
        m.serial_tps / pr4_serial_baseline(),
        m.checksum_speedup,
        m.construction_speedup,
        m.windowed_tps,
        m.sequential_virtual_secs,
        m.windowed_virtual_secs,
        m.sequential_virtual_secs / m.windowed_virtual_secs,
        pool_speedup(&m.curve),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr13.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  measurements written to BENCH_pr13.json"),
        Err(e) => println!("  (could not write BENCH_pr13.json: {e})"),
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let net =
        generate(&InternetConfig { n_destinations: DESTS, seed: 8, ..InternetConfig::default() });
    let window = TraceConfig::default().window;
    // Measure, record, then gate — in that order, so a floor breach
    // never loses the measurements. Smoke runs (`cargo bench -- --test`,
    // the CI pass) never write and never arm wall-clock floors:
    // single-shot unwarmed numbers would clobber a real record and
    // flake on loaded runners. The digest-identity assert inside
    // `experiment` runs in every mode, smoke included.
    let measured = experiment();
    if !smoke {
        write_baseline(&measured);
        gate(&measured, std::env::var("PT_BENCH_REFERENCE").is_ok_and(|v| v == "1"));
    }
    c.bench_function("campaign_pool/serial_1_worker", |b| {
        b.iter(|| run(&net, &config(ROUNDS, 1, 1)))
    });
    c.bench_function("campaign_pool/pool_8_workers", |b| {
        b.iter(|| run(&net, &config(ROUNDS, 8, 1)))
    });
    c.bench_function("campaign_pool/serial_windowed", |b| {
        b.iter(|| run(&net, &config(ROUNDS, 1, window)))
    });
    criterion::black_box(&measured);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
