//! The OS-shell / network control plane.
//!
//! Paper §2: "We are in the process of developing an OS-shell and control
//! path over the network that can program the FPGA without a CPU,
//! leveraging Partial Dynamic Reconfiguration through the Internal
//! Configuration Access Port (ICAP)" and §2.2: "Hyperion can run a
//! privileged configuration kernel that can receive authorized, encrypted
//! FPGA bitstreams over a certain control network port and assign slices
//! to it."
//!
//! [`ControlPlane`] is that configuration kernel: it accepts control
//! requests (deploy an eBPF kernel, evict a slot, query status), runs the
//! full verify → compile → sign → ICAP pipeline, and keeps the registry of
//! live hardware pipelines per slot.

use std::collections::HashMap;

use hyperion_ebpf::vm::Vm;
use hyperion_ebpf::{assemble, verify};
use hyperion_fabric::slots::{SlotError, SlotId};
use hyperion_hdl::{compile, to_bitstream, HwPipeline};
use hyperion_sim::time::Ns;

use crate::dpu::{DpuError, HyperionDpu};

/// Control-plane requests (what arrives on the control port).
#[derive(Debug)]
pub enum ControlRequest {
    /// Deploy an eBPF kernel: assemble, verify, compile, program a slot.
    Deploy {
        /// Kernel name.
        name: String,
        /// eBPF assembly source.
        source: String,
        /// Declared minimum context length.
        ctx_min_len: u64,
    },
    /// Evict the kernel in `slot`.
    Evict(SlotId),
    /// Query DPU status.
    Status,
}

/// Control-plane responses.
#[derive(Debug)]
pub enum ControlResponse {
    /// Kernel deployed: where it landed and when it went live.
    Deployed {
        /// The slot.
        slot: SlotId,
        /// Instant the partial reconfiguration completed.
        live_at: Ns,
    },
    /// Slot evicted.
    Evicted,
    /// Status report.
    Status {
        /// Slots occupied / total.
        slots_used: usize,
        /// Total slots.
        slots_total: usize,
        /// Reconfigurations performed.
        reconfigs: u64,
    },
}

/// Control-plane errors.
#[derive(Debug)]
pub enum ControlError {
    /// eBPF assembly failed.
    Asm(hyperion_ebpf::AsmError),
    /// Verification rejected the program.
    Verify(hyperion_ebpf::VerifyError),
    /// Compilation failed.
    Compile(hyperion_hdl::CompileError),
    /// Slot management failed (auth, fit, occupancy).
    Slot(SlotError),
    /// DPU not ready.
    Dpu(DpuError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Asm(e) => write!(f, "assembler: {e}"),
            ControlError::Verify(e) => write!(f, "verifier: {e}"),
            ControlError::Compile(e) => write!(f, "compiler: {e}"),
            ControlError::Slot(e) => write!(f, "slot manager: {e}"),
            ControlError::Dpu(e) => write!(f, "dpu: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// A deployed kernel: the pipeline plus its VM state (maps etc.).
#[derive(Debug)]
pub struct DeployedKernel {
    /// The hardware pipeline.
    pub pipeline: HwPipeline,
    /// Functional state (maps, trace) for this kernel.
    pub vm: Vm,
}

/// The configuration kernel.
#[derive(Debug, Default)]
pub struct ControlPlane {
    auth_key: u64,
    kernels: HashMap<usize, DeployedKernel>,
}

impl ControlPlane {
    /// Creates a control plane holding the bitstream signing key.
    pub fn new(auth_key: u64) -> ControlPlane {
        ControlPlane {
            auth_key,
            kernels: HashMap::new(),
        }
    }

    /// Handles one control request against the DPU at `now`.
    pub fn handle(
        &mut self,
        dpu: &mut HyperionDpu,
        request: ControlRequest,
        now: Ns,
    ) -> Result<ControlResponse, ControlError> {
        dpu.require_ready().map_err(ControlError::Dpu)?;
        match request {
            ControlRequest::Deploy {
                name,
                source,
                ctx_min_len,
            } => {
                let program = assemble(name, &source, ctx_min_len).map_err(ControlError::Asm)?;
                let verified = verify(&program).map_err(ControlError::Verify)?;
                let pipeline =
                    compile(&verified, dpu.fabric.kernel_clock()).map_err(ControlError::Compile)?;
                let bitstream = to_bitstream(&pipeline, self.auth_key);
                let (slot, live_at) = dpu
                    .fabric
                    .slots
                    .program_anywhere(bitstream, now)
                    .map_err(ControlError::Slot)?;
                self.kernels.insert(
                    slot.0,
                    DeployedKernel {
                        pipeline,
                        vm: Vm::new(),
                    },
                );
                Ok(ControlResponse::Deployed { slot, live_at })
            }
            ControlRequest::Evict(slot) => {
                dpu.fabric.slots.evict(slot).map_err(ControlError::Slot)?;
                self.kernels.remove(&slot.0);
                Ok(ControlResponse::Evicted)
            }
            ControlRequest::Status => {
                let total = dpu.fabric.slots.num_slots();
                let used = (0..total)
                    .filter(|&i| dpu.fabric.slots.resident(SlotId(i)).is_some())
                    .count();
                Ok(ControlResponse::Status {
                    slots_used: used,
                    slots_total: total,
                    reconfigs: dpu.fabric.slots.reconfig_count(),
                })
            }
        }
    }

    /// Access a deployed kernel for packet execution.
    pub fn kernel_mut(&mut self, slot: SlotId) -> Option<&mut DeployedKernel> {
        self.kernels.get_mut(&slot.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: u64 = 0xC0FFEE;

    fn booted() -> HyperionDpu {
        let mut dpu = crate::dpu::DpuBuilder::new().auth_key(KEY).build();
        dpu.boot(Ns::ZERO).unwrap();
        dpu
    }

    const FILTER: &str = r"
        ; drop (return 0) packets shorter than 20 bytes, else return the
        ; first payload byte
        jlt r2, 20, drop
        ldxb r0, [r1+0]
        exit
    drop:
        mov r0, 0
        exit
    ";

    #[test]
    fn deploy_runs_the_full_toolchain() {
        let mut dpu = booted();
        let mut cp = ControlPlane::new(KEY);
        let t0 = dpu.booted_at();
        let resp = cp
            .handle(
                &mut dpu,
                ControlRequest::Deploy {
                    name: "filter".into(),
                    source: FILTER.into(),
                    ctx_min_len: 20,
                },
                t0,
            )
            .unwrap();
        let ControlResponse::Deployed { slot, live_at } = resp else {
            panic!("expected Deployed");
        };
        assert_eq!(slot, SlotId(0));
        // Partial reconfiguration is in the paper's 10-100 ms band.
        let reconfig = live_at - t0;
        assert!(
            reconfig >= Ns::from_millis(8) && reconfig <= Ns::from_millis(100),
            "reconfig {reconfig}"
        );
        assert_eq!(cp.kernels.len(), 1);
        // The deployed kernel executes packets.
        let k = cp.kernel_mut(slot).unwrap();
        let mut packet = vec![7u8; 64];
        let (result, _) = k.pipeline.process(&mut k.vm, &mut packet, live_at).unwrap();
        assert_eq!(result.ret, 7);
    }

    #[test]
    fn unverifiable_programs_never_reach_the_fabric() {
        let mut dpu = booted();
        let mut cp = ControlPlane::new(KEY);
        let r = cp.handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "bad".into(),
                source: "ldxw r0, [r1+100]\nexit".into(), // beyond ctx window
                ctx_min_len: 16,
            },
            Ns::ZERO,
        );
        assert!(matches!(r, Err(ControlError::Verify(_))));
        assert_eq!(dpu.fabric.slots.reconfig_count(), 0);
    }

    #[test]
    fn wrong_key_bitstreams_rejected() {
        let mut dpu = booted();
        // Control plane signing with the wrong key: slot manager refuses.
        let mut cp = ControlPlane::new(0xBAD);
        let r = cp.handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "f".into(),
                source: "mov r0, 0\nexit".into(),
                ctx_min_len: 0,
            },
            Ns::ZERO,
        );
        assert!(matches!(
            r,
            Err(ControlError::Slot(SlotError::Unauthorized))
        ));
    }

    #[test]
    fn evict_frees_the_slot_and_kernel() {
        let mut dpu = booted();
        let mut cp = ControlPlane::new(KEY);
        cp.handle(
            &mut dpu,
            ControlRequest::Deploy {
                name: "f".into(),
                source: "mov r0, 0\nexit".into(),
                ctx_min_len: 0,
            },
            Ns::ZERO,
        )
        .unwrap();
        cp.handle(&mut dpu, ControlRequest::Evict(SlotId(0)), Ns::ZERO)
            .unwrap();
        assert_eq!(cp.kernels.len(), 0);
        let ControlResponse::Status {
            slots_used,
            reconfigs,
            ..
        } = cp
            .handle(&mut dpu, ControlRequest::Status, Ns::ZERO)
            .unwrap()
        else {
            panic!("expected Status");
        };
        assert_eq!(slots_used, 0);
        assert_eq!(reconfigs, 1);
    }

    #[test]
    fn unbooted_dpu_refuses_control_traffic() {
        let mut dpu = crate::dpu::DpuBuilder::new().auth_key(KEY).build();
        let mut cp = ControlPlane::new(KEY);
        assert!(matches!(
            cp.handle(&mut dpu, ControlRequest::Status, Ns::ZERO),
            Err(ControlError::Dpu(DpuError::NotReady))
        ));
    }
}
