//! The pool refactor's headline guarantee: the worker count is a pure
//! performance knob. Every random draw a `(destination, round)` work
//! unit makes is derived from `(campaign seed, destination, round)` —
//! never from the worker that claimed it — and merging is
//! order-insensitive, so a fixed-seed campaign's canonical digest must
//! be *byte-identical* for any number of workers.
//!
//! Every digest test also runs 2 workers — the pool configuration the
//! `sbs-pool` benchmark workload measures — beside the counts its name
//! lists.

use paris_traceroute_repro::campaign::{
    multipath_digest, report_digest, run, run_multipath, CampaignConfig, CampaignResult,
    DynamicsConfig, MultipathConfig,
};
use paris_traceroute_repro::topogen::{generate, InternetConfig, SyntheticInternet};

fn net() -> SyntheticInternet {
    generate(&InternetConfig::tiny(42))
}

fn campaign(net: &SyntheticInternet, workers: usize, dynamics: DynamicsConfig) -> CampaignResult {
    let config =
        CampaignConfig { rounds: 3, workers, seed: 99, dynamics, ..CampaignConfig::default() };
    run(net, &config)
}

#[test]
fn digest_is_byte_identical_for_workers_1_4_8() {
    let net = net();
    let baseline = campaign(&net, 1, DynamicsConfig::default());
    let baseline_digest = report_digest(&baseline);
    for workers in [2, 4, 8] {
        let result = campaign(&net, workers, DynamicsConfig::default());
        assert_eq!(result.comparison, baseline.comparison, "workers = {workers}");
        assert_eq!(
            report_digest(&result),
            baseline_digest,
            "digest must not depend on worker count (workers = {workers})"
        );
    }
}

#[test]
fn digest_is_byte_identical_for_workers_1_4_8_without_dynamics() {
    // Dynamics off isolates the forwarding/response hot path: if this
    // fails while the dynamic variant passes, the per-unit *simulator*
    // seeds leak worker identity; if both fail, the campaign-level
    // draws (ports, dynamics) do.
    let net = net();
    let baseline = report_digest(&campaign(&net, 1, DynamicsConfig::none()));
    for workers in [2, 4, 8] {
        let digest = report_digest(&campaign(&net, workers, DynamicsConfig::none()));
        assert_eq!(digest, baseline, "workers = {workers}");
    }
}

#[test]
fn multipath_digest_is_byte_identical_for_workers_1_4_8() {
    // The new campaign mode inherits the same guarantee: every MDA
    // unit's draws (flow-family ports, the simulator seed) derive from
    // `(seed, destination, round)`, units are re-sorted into unit
    // order, so the full multipath digest — per-unit discoveries,
    // per-destination merge, aggregates, and the virtual-time float —
    // is byte-identical for any worker count.
    let net = net();
    let campaign = |workers: usize| {
        let config = MultipathConfig { rounds: 2, workers, seed: 99, ..Default::default() };
        run_multipath(&net, &config)
    };
    let baseline = campaign(1);
    let baseline_digest = multipath_digest(&baseline);
    assert!(baseline.report.balanced_dests > 0, "the workload must exercise balancers");
    for workers in [2, 4, 8] {
        let result = campaign(workers);
        assert_eq!(
            multipath_digest(&result),
            baseline_digest,
            "multipath digest must not depend on worker count (workers = {workers})"
        );
        assert_eq!(
            result.mean_virtual_secs.to_bits(),
            baseline.mean_virtual_secs.to_bits(),
            "workers = {workers}"
        );
    }
}

#[test]
fn adaptive_multipath_digest_is_worker_invariant_under_faults() {
    // The PR-6 adaptive machinery (backoff jitter, pacing, protocol
    // fallback) must not leak worker identity either: its jitter seed
    // derives from the unit stream, and every retry/backoff decision is
    // a function of the unit's own probe history — so even on a network
    // with all four hostile faults planted, the adaptive digest is
    // byte-identical across worker counts.
    let net = generate(&InternetConfig::hostile(42));
    let campaign = |workers: usize| {
        let config =
            MultipathConfig { rounds: 2, workers, seed: 99, adaptive: true, ..Default::default() };
        run_multipath(&net, &config)
    };
    let baseline = campaign(1);
    let baseline_digest = multipath_digest(&baseline);
    for workers in [2, 4, 8] {
        let result = campaign(workers);
        assert_eq!(
            multipath_digest(&result),
            baseline_digest,
            "adaptive digest must not depend on worker count (workers = {workers})"
        );
        assert_eq!(
            result.mean_virtual_secs.to_bits(),
            baseline.mean_virtual_secs.to_bits(),
            "workers = {workers}"
        );
    }
}

#[test]
fn mean_virtual_secs_is_worker_count_independent() {
    // Float summation order is pinned by sorting per-unit times into
    // unit order before reducing, so even the f64 is bit-identical.
    let net = net();
    let baseline = campaign(&net, 1, DynamicsConfig::default()).mean_virtual_secs;
    assert!(baseline > 0.0);
    for workers in [4, 8] {
        let got = campaign(&net, workers, DynamicsConfig::default()).mean_virtual_secs;
        assert_eq!(got.to_bits(), baseline.to_bits(), "workers = {workers}");
    }
}
