//! Per-DPU admission control: bounded inflight + queue-depth watermarks.
//!
//! A CPU-free device has no host scheduler to apply backpressure for it,
//! so overload protection must live in the service layer itself. The
//! model is the classic two-watermark shedder: requests are admitted
//! while the device's inflight depth stays below the *high* watermark;
//! once crossed, the DPU sheds (rejects with a typed
//! `ServiceError::Overloaded`) until the backlog drains below the *low*
//! watermark — hysteresis that prevents admit/shed flapping right at the
//! threshold. A hard `max_inflight` bound caps the queue regardless of
//! watermark state.
//!
//! Everything runs on the virtual clock and is pure bookkeeping: an
//! admitted request registers its completion instant, and the depth seen
//! by a later request is the number of earlier completions still in the
//! future. No RNG is involved, so enabling admission control never
//! perturbs fault-plan draws; it is off by default (armed by setting
//! `HyperionDpu::admission`) and absent from every gated baseline.

use hyperion_sim::time::Ns;

/// Watermark configuration for [`Admission`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Hard bound on concurrently inflight requests.
    pub max_inflight: usize,
    /// Depth at which shedding begins.
    pub high_watermark: usize,
    /// Depth at which shedding stops (must be < `high_watermark`).
    pub low_watermark: usize,
}

impl AdmissionConfig {
    /// A conservative default for one DPU: shed at 48 inflight, resume
    /// at 16, never hold more than 64.
    pub const DEFAULT: AdmissionConfig = AdmissionConfig {
        max_inflight: 64,
        high_watermark: 48,
        low_watermark: 16,
    };
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::DEFAULT
    }
}

/// Admission-control state for one DPU.
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    /// Completion instants of admitted-but-unfinished requests.
    inflight: Vec<Ns>,
    /// True while draining from the high watermark to the low one.
    shedding: bool,
    admitted: u64,
    shed: u64,
}

/// Why a request was refused: the observed queue depth and the limit it
/// ran into (the high watermark, the low watermark while draining, or
/// the hard inflight bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overload {
    /// Inflight depth at the instant of the decision.
    pub depth: usize,
    /// The threshold that refused the request.
    pub limit: usize,
}

impl Admission {
    /// Fresh state under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            inflight: Vec::new(),
            shedding: false,
            admitted: 0,
            shed: 0,
        }
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Inflight depth after reaping completions at `now`.
    pub fn depth(&mut self, now: Ns) -> usize {
        self.inflight.retain(|&done| done > now);
        self.inflight.len()
    }

    /// Decides admission for a request arriving at `now`. `Ok(())` means
    /// the caller may run the request and must then [`Admission::record`]
    /// its completion instant; `Err` carries the depth and the limit that
    /// refused it.
    pub fn admit(&mut self, now: Ns) -> Result<(), Overload> {
        let depth = self.depth(now);
        if self.shedding {
            if depth > self.cfg.low_watermark {
                self.shed += 1;
                return Err(Overload {
                    depth,
                    limit: self.cfg.low_watermark,
                });
            }
            self.shedding = false;
        }
        if depth >= self.cfg.high_watermark {
            self.shedding = true;
            self.shed += 1;
            return Err(Overload {
                depth,
                limit: self.cfg.high_watermark,
            });
        }
        if depth >= self.cfg.max_inflight {
            self.shed += 1;
            return Err(Overload {
                depth,
                limit: self.cfg.max_inflight,
            });
        }
        self.admitted += 1;
        Ok(())
    }

    /// Registers the completion instant of an admitted request.
    pub fn record(&mut self, done: Ns) {
        self.inflight.push(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max: usize, high: usize, low: usize) -> AdmissionConfig {
        AdmissionConfig {
            max_inflight: max,
            high_watermark: high,
            low_watermark: low,
        }
    }

    #[test]
    fn admits_until_the_high_watermark() {
        let mut a = Admission::new(cfg(8, 4, 2));
        for i in 0..4 {
            a.admit(Ns(0)).unwrap_or_else(|o| panic!("req {i}: {o:?}"));
            a.record(Ns(1_000));
        }
        let e = a.admit(Ns(0)).unwrap_err();
        assert_eq!(e, Overload { depth: 4, limit: 4 });
        assert!(a.shedding);
        assert_eq!(a.admitted(), 4);
        assert_eq!(a.shed(), 1);
    }

    #[test]
    fn hysteresis_sheds_until_the_low_watermark() {
        let mut a = Admission::new(cfg(8, 4, 2));
        // Completions at distinct instants so the backlog drains stepwise.
        for i in 0..4u64 {
            a.admit(Ns(0)).unwrap();
            a.record(Ns(100 * (i + 1)));
        }
        assert!(a.admit(Ns(0)).is_err()); // trip the high watermark
                                          // Depth 3 at t=100: still draining (3 > low=2).
        assert!(a.admit(Ns(100)).is_err());
        // Depth 2 at t=200: at the low watermark, admission resumes.
        a.admit(Ns(200)).unwrap();
        assert!(!a.shedding);
    }

    #[test]
    fn completions_free_capacity() {
        let mut a = Admission::new(cfg(2, 2, 1));
        a.admit(Ns(0)).unwrap();
        a.record(Ns(500));
        a.admit(Ns(0)).unwrap();
        a.record(Ns(600));
        assert!(a.admit(Ns(0)).is_err());
        // After both complete the device is idle again (depth 0 <= low).
        a.admit(Ns(1_000)).unwrap();
    }

    #[test]
    fn default_config_is_sane() {
        let c = AdmissionConfig::DEFAULT;
        assert!(c.low_watermark < c.high_watermark);
        assert!(c.high_watermark <= c.max_inflight);
    }
}
