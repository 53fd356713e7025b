//! Recorder parity under every injected network fault.
//!
//! Each traced operation has one body that takes `Option<&mut Recorder>`.
//! These tests drive the retrying path (`Initiator::exchange_traced`, the
//! one caller of `RetryPolicy::drive`) and the RPC path
//! (`RpcChannel::call_traced`) through one seeded plan that drops,
//! corrupts and flaps the wire, once with `None` and once with a
//! recorder, and require identical results and attempt counts. The
//! recorder's counters and `fault:nvmeof:*` instants prove that every
//! fault arm (drop → timeout, corrupt → NACK, flap → wait for carrier)
//! was taken.

use std::fmt::Debug;

use bytes::Bytes;
use hyperion::nvmeof::{Initiator, NvmeOfTarget};
use hyperion_net::{
    Endpoint, EndpointKind, MethodId, NetError, Network, RetryPolicy, RpcChannel, Transport,
    TransportKind, FAULT_NET_CORRUPT, FAULT_NET_DROP, FAULT_NET_FLAP,
};
use hyperion_sim::fault::FaultPlan;
use hyperion_sim::time::Ns;
use hyperion_telemetry::Recorder;

/// Operations per run, issued at a fixed cadence of [`GAP`].
const OPS: u64 = 200;
const GAP: Ns = Ns(20_000);

const POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    ..RetryPolicy::DEFAULT
};

/// Random drops and corruptions, plus one window of each fault kind.
fn faulty_plan() -> FaultPlan {
    FaultPlan::seeded(29)
        .bernoulli(FAULT_NET_DROP, 0.1)
        .bernoulli(FAULT_NET_CORRUPT, 0.1)
        .window(FAULT_NET_DROP, Ns(400_000), Ns(600_000))
        .window(FAULT_NET_CORRUPT, Ns(1_200_000), Ns(1_300_000))
        .window(FAULT_NET_FLAP, Ns(2_000_000), Ns(2_200_000))
}

/// One client/server pair on a faulty wire, with the NVMe-oF and RPC
/// state an operation may need.
struct Side {
    net: Network,
    client: Endpoint,
    server: Endpoint,
    tr: Transport,
    ini: Initiator,
    target: NvmeOfTarget,
    ch: RpcChannel,
}

impl Side {
    fn new() -> Side {
        let mut net = Network::new();
        let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
        let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
        net.set_fault_plan(faulty_plan());
        let tr = Transport::new(TransportKind::Udp);
        Side {
            net,
            client,
            server,
            tr,
            ini: Initiator::new(),
            target: NvmeOfTarget::new(1 << 16),
            ch: RpcChannel::new(client, server, tr),
        }
    }
}

/// Runs `op` [`OPS`] times on two identical sides, without and with a
/// recorder, and asserts every outcome matches. Returns the outcomes and
/// the recorder.
fn parity<T: PartialEq + Debug>(
    mut op: impl FnMut(&mut Side, u64, Ns, Option<&mut Recorder>) -> T,
) -> (Vec<T>, Recorder) {
    let (mut plain, mut traced) = (Side::new(), Side::new());
    let mut rec = Recorder::new("parity");
    let mut outcomes = Vec::new();
    for i in 0..OPS {
        let t = GAP * i;
        let a = op(&mut plain, i, t, None);
        let b = op(&mut traced, i, t, Some(&mut rec));
        assert_eq!(a, b, "op {i} at {t}");
        outcomes.push(a);
    }
    assert_eq!(rec.open_spans(), 0);
    assert_eq!(plain.net.messages(), traced.net.messages());
    (outcomes, rec)
}

#[test]
fn nvmeof_exchange_matches_across_recorders_under_every_fault() {
    let (outcomes, rec) = parity(|s, i, t, rec| {
        let lba = i % 64;
        let capsule = if i % 2 == 0 {
            s.ini.write(lba, Bytes::from(vec![i as u8; 4096]))
        } else {
            s.ini.read(lba, 1)
        };
        s.ini.exchange_traced(
            &mut s.net,
            &s.tr,
            s.client,
            s.server,
            &mut s.target,
            capsule,
            t,
            &POLICY,
            rec,
        )
    });
    for arm in ["timeouts", "corrupt", "link_down"] {
        let counter = format!("nvmeof:{arm}");
        assert!(rec.counter(&counter) > 0, "no {counter} retry");
        let instant = format!("fault:nvmeof:{arm}");
        assert!(
            rec.instants().iter().any(|(n, _)| *n == instant),
            "no {instant} instant"
        );
    }
    assert!(outcomes.iter().flatten().any(|(_, x)| x.attempts > 1));
}

#[test]
fn rpc_call_matches_across_recorders_under_every_fault() {
    let mut calls = Vec::new();
    let (outcomes, _) = parity(|s, i, t, rec| {
        let out =
            s.ch.call_traced(&mut s.net, MethodId(1), t, 64, 512, Ns(1_000), rec);
        if i + 1 == OPS {
            calls.push((s.ch.counters.get("calls"), s.ch.counters.get("rtts")));
        }
        out
    });
    // Calls do not retry: every fault kind surfaces to the caller, and
    // both channels counted the same successful calls.
    let seen = |f: fn(&NetError) -> bool| outcomes.iter().any(|o| o.as_ref().is_err_and(f));
    assert!(seen(|e| matches!(e, NetError::Dropped)));
    assert!(seen(|e| matches!(e, NetError::Corrupted { .. })));
    assert!(seen(|e| matches!(e, NetError::LinkDown { .. })));
    assert_eq!(calls.len(), 2);
    assert_eq!(calls[0], calls[1]);
}
