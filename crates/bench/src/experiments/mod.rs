//! The experiment index: one module per table/figure of EXPERIMENTS.md.
//!
//! Each module exposes `run()`, which returns its tables. An instrumented
//! experiment's `run()` also returns the [`Recorder`] of one configuration
//! its tables already run, filled during that same pass. [`REGISTRY`]
//! lists them all in print order; the `report` binary makes one pass
//! over it.

use hyperion_telemetry::Recorder;

use crate::Table;

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod figure2;

/// How an experiment runs.
pub enum Run {
    /// Tables only.
    Tables(fn() -> Vec<Table>),
    /// Tables plus the recorder of one traced configuration.
    Traced(fn() -> (Vec<Table>, Recorder)),
}

/// One entry of the experiment index.
pub struct Experiment {
    /// The id `report` selects it by.
    pub id: &'static str,
    /// Runs only when named. E13–E15 (fault injection, cluster failover,
    /// bottleneck sweep) perturb the fault-free datapath the paper's
    /// claims are about, so the default report leaves them out.
    pub explicit_only: bool,
    /// Its entry point.
    pub run: Run,
}

impl Experiment {
    /// Whether its run fills a recorder.
    pub fn traced(&self) -> bool {
        matches!(self.run, Run::Traced(_))
    }

    /// Runs it: its tables, plus its recorder if it is traced.
    pub fn run(&self) -> (Vec<Table>, Option<Recorder>) {
        match self.run {
            Run::Tables(run) => (run(), None),
            Run::Traced(run) => {
                let (tables, rec) = run();
                (tables, Some(rec))
            }
        }
    }
}

const fn tables(id: &'static str, run: fn() -> Vec<Table>) -> Experiment {
    Experiment {
        id,
        explicit_only: false,
        run: Run::Tables(run),
    }
}

const fn traced(id: &'static str, run: fn() -> (Vec<Table>, Recorder)) -> Experiment {
    Experiment {
        id,
        explicit_only: false,
        run: Run::Traced(run),
    }
}

const fn explicit(id: &'static str, run: fn() -> (Vec<Table>, Recorder)) -> Experiment {
    Experiment {
        id,
        explicit_only: true,
        run: Run::Traced(run),
    }
}

/// Every experiment, in the order `report` prints their tables and then
/// their breakdowns.
pub const REGISTRY: [Experiment; 16] = [
    traced("e1", e1::run),
    tables("e2", e2::run),
    tables("e3", e3::run),
    traced("e4", e4::run),
    tables("e5", e5::run),
    traced("e6", e6::run),
    traced("e7", e7::run),
    tables("e8", e8::run),
    tables("e9", e9::run),
    tables("e10", e10::run),
    tables("e11", e11::run),
    tables("e12", e12::run),
    explicit("e13", e13::run),
    explicit("e14", e14::run),
    explicit("e15", e15::run),
    tables("f2", figure2::run),
];

/// An instrumented experiment's tables and recorder, run once per test
/// process and shared by every test that reads them.
#[cfg(test)]
pub(crate) fn cached(id: &str) -> (&'static [Table], &'static Recorder) {
    use std::sync::OnceLock;
    static RUNS: [OnceLock<(Vec<Table>, Option<Recorder>)>; REGISTRY.len()] =
        [const { OnceLock::new() }; REGISTRY.len()];
    let i = REGISTRY
        .iter()
        .position(|e| e.id == id)
        .expect("registered id");
    let (tables, rec) = RUNS[i].get_or_init(|| REGISTRY[i].run());
    (tables, rec.as_ref().expect("instrumented experiment"))
}

/// The exact `p`th percentile of an ascending slice: the sample at the
/// rounded rank `(len - 1) * p / 100`, or 0 for no samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}
