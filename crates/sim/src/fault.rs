//! Deterministic fault injection on the virtual clock.
//!
//! A CPU-free datapath has no host to babysit failures, so the models in
//! this workspace must absorb media errors, link flaps, and retrain
//! stalls themselves. The [`FaultPlan`] is the single knob: components
//! ask it, at named *sites* ("net:drop", "nvme:media_read", ...),
//! whether a fault fires for the operation at hand. Two shapes exist:
//!
//! * **Bernoulli** — each evaluation fires independently with a fixed
//!   probability, drawn from a per-site Xoshiro stream;
//! * **scheduled windows** — every evaluation inside `[start, end)` of
//!   virtual time fires (link flaps, retrain stalls, brown-outs).
//!
//! Determinism contract: each site owns an RNG stream derived from
//! `(plan seed, FNV-1a(site name))`, so adding a site — or a component
//! consulting one site more often — never perturbs the draws any other
//! site sees. A site that is not configured performs **no** RNG draw and
//! no bookkeeping, so an empty plan (the default everywhere) leaves the
//! fault-free timeline bit-for-bit identical to a build without hooks.

use crate::rng::Rng;
use crate::time::Ns;

/// FNV-1a over the site name: stable, dependency-free stream splitting.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One configured injection site.
#[derive(Debug, Clone)]
struct Site {
    name: String,
    /// Bernoulli fire probability per evaluation (0.0 = windows only).
    probability: f64,
    /// Half-open `[start, end)` windows of guaranteed failure.
    windows: Vec<(Ns, Ns)>,
    rng: Rng,
    evaluated: u64,
    injected: u64,
}

/// A seeded, virtual-clock-scheduled fault plan.
///
/// Cloneable and cheap when empty; every component in the datapath holds
/// one (defaulting to [`FaultPlan::none`]) and consults it through
/// [`FaultPlan::fires`] at its injection sites.
///
/// # Examples
///
/// ```
/// use hyperion_sim::fault::FaultPlan;
/// use hyperion_sim::time::Ns;
///
/// let mut plan = FaultPlan::seeded(42)
///     .bernoulli("net:drop", 0.5)
///     .window("net:flap", Ns(100), Ns(200));
/// assert!(plan.fires("net:flap", Ns(150)));
/// assert!(!plan.fires("net:flap", Ns(200)));
/// // Same seed, same call sequence: identical outcomes.
/// let mut twin = FaultPlan::seeded(42).bernoulli("net:drop", 0.5);
/// for i in 0..64 {
///     assert_eq!(plan.fires("net:drop", Ns(i)), twin.fires("net:drop", Ns(i)));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<Site>,
}

impl FaultPlan {
    /// The empty plan: no sites, never fires, never draws.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            sites: Vec::new(),
        }
    }

    /// An empty plan carrying `seed`; add sites with
    /// [`bernoulli`](FaultPlan::bernoulli) / [`window`](FaultPlan::window).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: Vec::new(),
        }
    }

    fn site_mut(&mut self, name: &str) -> &mut Site {
        if let Some(i) = self.sites.iter().position(|s| s.name == name) {
            return &mut self.sites[i];
        }
        self.sites.push(Site {
            name: name.to_string(),
            probability: 0.0,
            windows: Vec::new(),
            rng: Rng::seeded(self.seed ^ fnv1a(name)),
            evaluated: 0,
            injected: 0,
        });
        self.sites.last_mut().expect("just pushed")
    }

    /// Configures `site` to fire each evaluation with probability `p`
    /// (clamped to `[0, 1]`). Builder-style; later calls overwrite.
    pub fn bernoulli(mut self, site: &str, p: f64) -> FaultPlan {
        self.site_mut(site).probability = p.clamp(0.0, 1.0);
        self
    }

    /// Adds a guaranteed-failure window `[start, end)` to `site`.
    pub fn window(mut self, site: &str, start: Ns, end: Ns) -> FaultPlan {
        if start < end {
            self.site_mut(site).windows.push((start, end));
        }
        self
    }

    /// Configures a *permanent* condition at `site` beginning at `start`:
    /// a window `[start, Ns::MAX)`. This is how fail-stop events (a node
    /// crash with no repair) are expressed — the site is active from the
    /// instant onward, forever.
    pub fn from_instant(self, site: &str, start: Ns) -> FaultPlan {
        self.window(site, start, Ns::MAX)
    }

    /// True when `now` lies inside one of `site`'s scheduled windows.
    /// Purely a query — no draw is consumed and no evaluation is counted
    /// — so state machines (failure detectors, liveness checks) can poll
    /// a window-configured site every tick without perturbing any
    /// Bernoulli stream. Unconfigured sites are never active.
    pub fn active(&self, site: &str, now: Ns) -> bool {
        self.sites
            .iter()
            .find(|s| s.name == site)
            .is_some_and(|s| s.windows.iter().any(|&(a, b)| now >= a && now < b))
    }

    /// True when the plan has no sites at all (the no-fault fast path).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Evaluates `site` at virtual instant `now`: returns `true` when a
    /// fault fires. Inside a scheduled window the site always fires (no
    /// draw is consumed); otherwise a Bernoulli draw is taken from the
    /// site's own stream. Unconfigured sites return `false` without any
    /// draw or bookkeeping.
    pub fn fires(&mut self, site: &str, now: Ns) -> bool {
        let Some(i) = self.sites.iter().position(|s| s.name == site) else {
            return false;
        };
        let s = &mut self.sites[i];
        s.evaluated += 1;
        let fired = if s.windows.iter().any(|&(a, b)| now >= a && now < b) {
            true
        } else {
            s.probability > 0.0 && s.rng.chance(s.probability)
        };
        if fired {
            s.injected += 1;
        }
        fired
    }

    /// When `now` lies inside one of `site`'s scheduled windows, returns
    /// the end of the latest enclosing window — the instant the condition
    /// clears (a flapped link comes back, a retrain completes). Purely a
    /// query: consumes no draw and counts no evaluation.
    pub fn window_end(&self, site: &str, now: Ns) -> Option<Ns> {
        let s = self.sites.iter().find(|s| s.name == site)?;
        s.windows
            .iter()
            .filter(|&&(a, b)| now >= a && now < b)
            .map(|&(_, b)| b)
            .max()
    }

    /// `(evaluated, injected)` counts for `site`; `(0, 0)` if unknown.
    pub fn counts(&self, site: &str) -> (u64, u64) {
        self.sites
            .iter()
            .find(|s| s.name == site)
            .map(|s| (s.evaluated, s.injected))
            .unwrap_or((0, 0))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut p = FaultPlan::none();
        assert!(p.is_empty());
        for i in 0..100 {
            assert!(!p.fires("anything", Ns(i)));
        }
        assert_eq!(p.counts("anything"), (0, 0));
    }

    #[test]
    fn same_seed_same_outcomes() {
        let mk = || FaultPlan::seeded(7).bernoulli("a", 0.3).bernoulli("b", 0.7);
        let (mut x, mut y) = (mk(), mk());
        for i in 0..1000 {
            assert_eq!(x.fires("a", Ns(i)), y.fires("a", Ns(i)));
            assert_eq!(x.fires("b", Ns(i)), y.fires("b", Ns(i)));
        }
        assert_eq!(x.counts("a"), y.counts("a"));
    }

    #[test]
    fn sites_have_independent_streams() {
        // Evaluating site "a" extra times must not change "b"'s outcomes.
        let mut x = FaultPlan::seeded(9).bernoulli("a", 0.5).bernoulli("b", 0.5);
        let mut y = x.clone();
        for i in 0..500 {
            x.fires("a", Ns(i));
        }
        let bx: Vec<bool> = (0..200).map(|i| x.fires("b", Ns(i))).collect();
        let by: Vec<bool> = (0..200).map(|i| y.fires("b", Ns(i))).collect();
        assert_eq!(bx, by);
    }

    #[test]
    fn windows_are_half_open_and_guaranteed() {
        let mut p = FaultPlan::seeded(1).window("w", Ns(10), Ns(20));
        assert!(!p.fires("w", Ns(9)));
        assert!(p.fires("w", Ns(10)));
        assert!(p.fires("w", Ns(19)));
        assert!(!p.fires("w", Ns(20)));
        assert_eq!(p.window_end("w", Ns(15)), Some(Ns(20)));
        assert_eq!(p.window_end("w", Ns(20)), None);
    }

    #[test]
    fn overlapping_windows_report_latest_end() {
        let p = FaultPlan::seeded(1)
            .window("w", Ns(0), Ns(50))
            .window("w", Ns(40), Ns(90));
        assert_eq!(p.window_end("w", Ns(45)), Some(Ns(90)));
    }

    #[test]
    fn bernoulli_rate_lands_near_p() {
        let mut p = FaultPlan::seeded(3).bernoulli("x", 0.25);
        let n = 20_000u64;
        let mut hits = 0u64;
        for i in 0..n {
            if p.fires("x", Ns(i)) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&rate), "rate {rate}");
        assert_eq!(p.counts("x"), (n, hits));
    }

    #[test]
    fn from_instant_is_a_permanent_condition() {
        let mut p = FaultPlan::seeded(2).from_instant("node:crash:1", Ns(1_000));
        assert!(!p.active("node:crash:1", Ns(999)));
        assert!(p.active("node:crash:1", Ns(1_000)));
        assert!(p.active("node:crash:1", Ns(u64::MAX - 1)));
        // `fires` agrees inside the window.
        assert!(p.fires("node:crash:1", Ns(5_000)));
    }

    #[test]
    fn active_is_pure_and_draws_nothing() {
        let mut p = FaultPlan::seeded(8)
            .bernoulli("mixed", 0.5)
            .window("mixed", Ns(100), Ns(200));
        let mut twin = p.clone();
        // Polling `active` must not shift the Bernoulli stream.
        for i in 0..500 {
            let _ = p.active("mixed", Ns(i));
        }
        for i in 0..200 {
            assert_eq!(
                p.fires("mixed", Ns(i + 1_000)),
                twin.fires("mixed", Ns(i + 1_000))
            );
        }
        assert!(!p.active("unconfigured", Ns(0)));
        assert_eq!(p.counts("unconfigured"), (0, 0));
    }

    #[test]
    fn probability_one_always_fires() {
        let mut p = FaultPlan::seeded(4).bernoulli("x", 1.0);
        assert!((0..100).all(|i| p.fires("x", Ns(i))));
    }
}
