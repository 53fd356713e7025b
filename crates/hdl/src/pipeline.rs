//! The synthesized hardware pipeline: timing, resources, and execution.
//!
//! A compiled kernel is a fixed-function pipeline at a fixed clock — the
//! source of the paper's predictability argument (§2, FPGA strength 3).
//! Per-item latency is `depth x cycle`; steady-state throughput is
//! `clock / II`. Functional results come from the eBPF VM (the pipeline
//! implements the same verified semantics), so hardware and software
//! engines are differential-testable against each other.

use hyperion_ebpf::program::VerifiedProgram;
use hyperion_ebpf::vm::{ExecResult, Vm, VmError};
use hyperion_fabric::clock::ClockDomain;
use hyperion_fabric::resources::ResourceBudget;
use hyperion_sim::resource::Resource;
use hyperion_sim::time::Ns;
use hyperion_telemetry::{At, Component};

use crate::dataflow::{Schedule, Unit};

/// Per-unit LUT/FF/BRAM/DSP cost table (64-bit datapath, order-of-magnitude
/// figures from UltraScale+ synthesis reports).
fn unit_cost(unit: Unit) -> ResourceBudget {
    match unit {
        Unit::Alu => ResourceBudget {
            luts: 80,
            ffs: 130,
            brams: 0,
            urams: 0,
            dsps: 0,
        },
        Unit::Shift => ResourceBudget {
            luts: 200,
            ffs: 130,
            brams: 0,
            urams: 0,
            dsps: 0,
        },
        Unit::Mul => ResourceBudget {
            luts: 60,
            ffs: 200,
            brams: 0,
            urams: 0,
            dsps: 4,
        },
        Unit::Div => ResourceBudget {
            luts: 1_200,
            ffs: 900,
            brams: 0,
            urams: 0,
            dsps: 0,
        },
        Unit::Mem => ResourceBudget {
            luts: 150,
            ffs: 200,
            brams: 1,
            urams: 0,
            dsps: 0,
        },
        Unit::Map => ResourceBudget {
            luts: 400,
            ffs: 500,
            brams: 8,
            urams: 0,
            dsps: 0,
        },
        Unit::Helper => ResourceBudget {
            luts: 600,
            ffs: 700,
            brams: 2,
            urams: 0,
            dsps: 0,
        },
        Unit::Branch => ResourceBudget {
            luts: 60,
            ffs: 70,
            brams: 0,
            urams: 0,
            dsps: 0,
        },
        Unit::Const => ResourceBudget {
            luts: 0,
            ffs: 64,
            brams: 0,
            urams: 0,
            dsps: 0,
        },
    }
}

/// A compiled hardware kernel.
#[derive(Debug)]
pub struct HwPipeline {
    name: String,
    program: VerifiedProgram,
    schedule: Schedule,
    clock: ClockDomain,
    requires: ResourceBudget,
    intake: Resource,
    items: u64,
}

impl HwPipeline {
    pub(crate) fn new(
        program: VerifiedProgram,
        schedule: Schedule,
        clock: ClockDomain,
    ) -> HwPipeline {
        let mut requires = ResourceBudget::ZERO;
        for node in &schedule.nodes {
            requires += unit_cost(node.unit);
        }
        // Pipeline registers between stages: one 64-bit register per live
        // lane per stage, approximated by depth x lanes.
        requires.ffs += schedule.depth * crate::dataflow::LANES * 64;
        let name = program.program().name.clone();
        HwPipeline {
            name,
            program,
            schedule,
            clock,
            requires,
            intake: Resource::new("hw-pipeline", 1),
            items: 0,
        }
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pipeline depth in stages.
    pub fn depth(&self) -> u64 {
        self.schedule.depth
    }

    /// Initiation interval in cycles.
    pub fn ii(&self) -> u64 {
        self.schedule.ii
    }

    /// FPGA resources this kernel occupies when placed.
    pub fn requires(&self) -> ResourceBudget {
        self.requires
    }

    /// The clock the kernel closed timing at.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Per-item latency through an idle pipeline.
    pub fn latency(&self) -> Ns {
        self.clock.cycles_to_ns(self.schedule.depth)
    }

    /// Steady-state throughput in items per second.
    pub fn throughput_per_sec(&self) -> u64 {
        self.clock.mhz() * 1_000_000 / self.schedule.ii
    }

    /// Items processed so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Queue wait an item arriving at `now` would see at the intake before
    /// the pipeline can issue it (zero when the intake is free).
    pub fn intake_wait(&self, now: Ns) -> Ns {
        self.intake.earliest_start(now).saturating_sub(now)
    }

    /// Admits one item at `now` and returns the instant its result exits
    /// the pipeline. Back-to-back items are spaced by the initiation
    /// interval; the pipeline depth adds constant latency.
    ///
    /// With a recorder: a [`Component::Fabric`] span labelled `label`
    /// over the item's traversal. When back-pressure at the intake
    /// (initiation-interval spacing) delays issue, the span gets a
    /// queueing edge so the critical-path analyzer can split intake stall
    /// from pipeline latency.
    pub fn admit<'r>(&mut self, label: &'static str, at: impl Into<At<'r>>) -> Ns {
        let At { now, mut rec } = at.into();
        let span = rec.as_deref_mut().map(|rec| {
            let wait = self.intake_wait(now);
            let span = rec.open(Component::Fabric, label, now);
            if wait > Ns::ZERO {
                rec.queue_edge(span, now + wait);
            }
            span
        });
        self.items += 1;
        let ii_time = self.clock.cycles_to_ns(self.schedule.ii);
        let issued = self.intake.access(now, ii_time);
        let done = issued + self.latency();
        if let (Some(rec), Some(span)) = (rec, span) {
            rec.close(span, done);
        }
        done
    }

    /// Executes one item functionally *and* temporally: runs the verified
    /// program in `vm` over `ctx` and returns the execution result with
    /// the pipeline completion time.
    pub fn process(
        &mut self,
        vm: &mut Vm,
        ctx: &mut [u8],
        now: Ns,
    ) -> Result<(ExecResult, Ns), VmError> {
        let done = self.admit("", now);
        let result = vm.run(self.program.program(), ctx)?;
        Ok((result, done))
    }

    /// The verified program this pipeline implements.
    pub fn program(&self) -> &VerifiedProgram {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use hyperion_ebpf::{assemble, verify};
    use hyperion_telemetry::Recorder;

    fn pipeline(src: &str, ctx: u64) -> HwPipeline {
        let p = assemble("k", src, ctx).unwrap();
        let v = verify(&p).unwrap();
        compile(&v, ClockDomain::new(250)).unwrap()
    }

    #[test]
    fn stateless_pipeline_hits_line_rate() {
        let p = pipeline("ldxw r0, [r1+0]\nexit", 64);
        assert_eq!(p.ii(), 1);
        // 250 MHz, II=1: 250 Mpps.
        assert_eq!(p.throughput_per_sec(), 250_000_000);
    }

    #[test]
    fn admit_pipelines_items() {
        let mut p = pipeline("mov r0, 0\nexit", 0);
        let first = p.admit("", Ns::ZERO);
        let second = p.admit("", Ns::ZERO);
        // Items are II (= 1 cycle = 4 ns) apart, not a full latency apart.
        assert_eq!(second - first, Ns(4));
        assert_eq!(p.items(), 2);
    }

    #[test]
    fn traced_admit_marks_intake_backpressure() {
        let mut p = pipeline("mov r0, 0\nexit", 0);
        let mut rec = Recorder::new("hdl-unit");
        let first = p.admit("kernel:item", At::new(Ns::ZERO, Some(&mut rec)));
        // Second item at the same instant stalls one II at the intake.
        let second = p.admit("kernel:item", At::new(Ns::ZERO, Some(&mut rec)));
        assert!(second > first);
        assert_eq!(rec.spans().len(), 2);
        assert!(rec
            .queue_edge_of(hyperion_telemetry::SpanId::index(0))
            .is_none());
        assert_eq!(
            rec.queue_edge_of(hyperion_telemetry::SpanId::index(1)),
            Some(Ns(4))
        );
    }

    #[test]
    fn process_is_functionally_the_vm() {
        let mut p = pipeline("ldxh r0, [r1+2]\nexit", 8);
        let mut vm = Vm::new();
        let mut ctx = [0u8, 0, 0x34, 0x12, 0, 0, 0, 0];
        let (result, done) = p.process(&mut vm, &mut ctx, Ns::ZERO).unwrap();
        assert_eq!(result.ret, 0x1234);
        assert!(done >= p.latency());
    }

    #[test]
    fn resources_scale_with_program_size() {
        let small = pipeline("mov r0, 0\nexit", 0);
        let big = pipeline(
            r"
            mov r0, 0
            add r0, 1
            add r0, 2
            add r0, 3
            add r0, 4
            mov r3, 9
            mul r0, r3
            exit
        ",
            0,
        );
        assert!(big.requires().luts > small.requires().luts);
        assert!(big.requires().dsps > small.requires().dsps);
    }
}
