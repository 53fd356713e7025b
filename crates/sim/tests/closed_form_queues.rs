//! Closed-form oracles for the `Resource` and `Link` timelines: one client
//! issues Poisson arrivals in time order, and the measured mean queue wait
//! must match queueing theory.
//!
//! - M/D/1, Pollaczek–Khinchine: `W = ρ·D / (2(1 − ρ))`. A `Link` sending
//!   frames of one size is an M/D/1 queue whose service time is the
//!   frame's serialization delay.
//! - M/M/1: `W = ρ·S / (1 − ρ)`.
//! - M/M/k, Erlang C: `W = C(k, a) · S / (k − a)`, with `a = λ·S`.
//!
//! The bound comes from the sample itself. Successive waits are
//! correlated, so the jobs are cut into `BATCHES` consecutive batches,
//! each much longer than the queue's relaxation time. The batch means are
//! then close to independent, and their standard error is
//! `sd(batch means) / √BATCHES`. A test passes when the overall mean lies
//! within `Z` standard errors of the closed form, and when that standard
//! error is under 2% of it, so a loose sample cannot pass by chance.
//!
//! `Rng::exp_ns` rounds each draw down to whole nanoseconds, which
//! shortens every mean by about 0.5 ns; that moves `W` by at most about
//! 1 ns here, far inside the bound.

use hyperion_sim::resource::{Link, Resource};
use hyperion_sim::rng::Rng;
use hyperion_sim::time::{serialization_delay, Ns};

/// Jobs per run.
const JOBS: usize = 400_000;
/// Batches for the batch-means standard error (10,000 jobs each).
const BATCHES: usize = 40;
/// Standard errors allowed between the sample mean and the closed form.
const Z: f64 = 4.0;

/// One client on a `k`-server resource: Poisson arrivals at mean gap
/// `gap`, each with the service time `service` draws. Returns each job's
/// wait before service, in arrival order.
fn waits(seed: u64, k: usize, gap: Ns, mut service: impl FnMut(&mut Rng) -> Ns) -> Vec<f64> {
    let mut rng = Rng::seeded(seed);
    let mut r = Resource::new("oracle", k);
    let mut now = Ns::ZERO;
    (0..JOBS)
        .map(|_| {
            now += rng.exp_ns(gap);
            let svc = service(&mut rng);
            let (start, _) = r.access_interval(now, svc);
            (start - now).0 as f64
        })
        .collect()
}

/// Checks the mean of `w` against `expected` with the batch-means bound.
fn assert_mean_wait(w: &[f64], expected: f64) {
    let per = w.len() / BATCHES;
    let means: Vec<f64> = w
        .chunks(per)
        .map(|b| b.iter().sum::<f64>() / b.len() as f64)
        .collect();
    let mean = means.iter().sum::<f64>() / BATCHES as f64;
    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
    let se = (var / BATCHES as f64).sqrt();
    assert!(
        (mean - expected).abs() <= Z * se,
        "mean wait {mean:.1} ns, closed form {expected:.1} ns, standard error {se:.2} ns"
    );
    assert!(
        se < 0.02 * expected,
        "standard error {se:.2} ns is too loose for a {expected:.1} ns wait"
    );
}

/// Erlang C: the probability that an arrival waits in an M/M/k queue
/// offered `a` erlangs.
fn erlang_c(k: usize, a: f64) -> f64 {
    let mut term = 1.0; // a^n / n!
    let mut below = 0.0;
    for n in 0..k {
        below += term;
        term *= a / (n + 1) as f64;
    }
    let top = term * k as f64 / (k as f64 - a);
    top / (below + top)
}

#[test]
fn md1_matches_pollaczek_khinchine() {
    // ρ = 0.5 with 1 µs deterministic service: W = 0.5 · 1000 / 1 = 500 ns.
    let d = Ns(1_000);
    let w = waits(0x3D1, 1, Ns(2_000), |_| d);
    let rho = 0.5;
    assert_mean_wait(&w, rho * d.0 as f64 / (2.0 * (1.0 - rho)));
}

#[test]
fn link_md1_matches_pollaczek_khinchine() {
    // 125-byte frames on a 1 Gb/s wire serialize in 1 µs; at ρ = 0.5 a
    // frame waits W = 500 ns for the wire. Flight time does not contend:
    // every frame lands exactly one propagation delay after its last bit
    // leaves.
    const BPS: u64 = 1_000_000_000;
    const FRAME: u64 = 125;
    let propagation = Ns(700);
    let d = serialization_delay(FRAME, BPS);
    assert_eq!(d, Ns(1_000));
    let mut rng = Rng::seeded(0x11D1);
    let mut link = Link::new("oracle", BPS, propagation);
    let mut now = Ns::ZERO;
    let w: Vec<f64> = (0..JOBS)
        .map(|_| {
            now += rng.exp_ns(Ns(2_000));
            let (start, end, arrival) = link.transmit_interval(now, FRAME);
            assert_eq!(end - start, d);
            assert_eq!(arrival - end, propagation);
            (start - now).0 as f64
        })
        .collect();
    let rho = 0.5;
    assert_mean_wait(&w, rho * d.0 as f64 / (2.0 * (1.0 - rho)));
}

#[test]
fn mm1_matches_the_closed_form() {
    // ρ = 0.5 with a 1 µs mean service: W = 0.5 · 1000 / 0.5 = 1000 ns.
    let s = Ns(1_000);
    let w = waits(0x3301, 1, Ns(2_000), |rng| rng.exp_ns(s));
    let rho = 0.5;
    assert_mean_wait(&w, rho * s.0 as f64 / (1.0 - rho));
}

#[test]
fn mm2_matches_erlang_c() {
    // a = 1 erlang on two servers (ρ = 0.5): C = 1/3, W = 1000/3 ns.
    let s = Ns(1_000);
    let w = waits(0x3302, 2, Ns(1_000), |rng| rng.exp_ns(s));
    let (k, a) = (2, 1.0);
    let c = erlang_c(k, a);
    assert!((c - 1.0 / 3.0).abs() < 1e-12, "Erlang C {c}");
    assert_mean_wait(&w, c * s.0 as f64 / (k as f64 - a));
}
