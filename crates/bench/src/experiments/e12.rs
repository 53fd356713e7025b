//! E12 — Scale-out: distributed CPU-free deployments (paper §2.4 C1,
//! §4 Q3). Client-driven partitioned KV over 1–4 DPUs and the
//! cluster-wide shared log over 1–4 sites.

use hyperion::cluster::DpuCluster;
use hyperion::services::{KvOp, ServiceResponse};
use hyperion_sim::time::Ns;
use hyperion_storage::corfu::CorfuLog;

use crate::table::{fmt_rate, Table};

const KEY: u64 = 0xC0FFEE;

/// Operations per configuration.
const OPS: u64 = 512;

/// Runs E12.
pub fn run() -> Vec<Table> {
    vec![kv_table(), log_table()]
}

fn kv_table() -> Table {
    let mut t = Table::new(
        "E12: partitioned KV scale-out (client-driven routing)",
        &["dpus", "puts/s", "gets/s", "partitions hit"],
    );
    for &n in &[1usize, 2, 4] {
        let (mut cluster, t0) = DpuCluster::boot(n, KEY, Ns::ZERO);
        // Closed loop per partition: each partition has one outstanding
        // request stream (per-member timelines advance independently).
        let mut member_time = vec![t0; n];
        let mut hit = vec![false; n];
        for k in 0..OPS {
            let owner = cluster.owner_of(k);
            hit[owner] = true;
            let (_, _, done) = cluster
                .serve_partitioned(k, KvOp::Put { key: k, value: k }, member_time[owner])
                .expect("put");
            member_time[owner] = done;
            // Amortized flush every 128 puts so the put rate includes the
            // flash work it eventually causes (memtable inserts alone are
            // DRAM-speed).
            if k % 128 == 127 {
                let dpu = cluster.dpu_mut(owner);
                member_time[owner] = dpu
                    .lsm
                    .flush(&mut dpu.blocks, member_time[owner])
                    .expect("flush");
            }
        }
        let put_makespan = member_time
            .iter()
            .map(|&m| m - t0)
            .max()
            .unwrap_or(Ns::ZERO);
        // Force everything to flash so gets measure device work.
        let mut flush_end = t0;
        for (i, &mt) in member_time.iter().enumerate().take(n) {
            let dpu = cluster.dpu_mut(i);
            let done = dpu.lsm.flush(&mut dpu.blocks, mt).expect("flush");
            flush_end = flush_end.max(done);
        }
        let mut member_time = vec![flush_end; n];
        for k in 0..OPS {
            let owner = cluster.owner_of(k);
            let (_, resp, done) = cluster
                .serve_partitioned(k, KvOp::Get { key: k }, member_time[owner])
                .expect("get");
            member_time[owner] = done;
            let ServiceResponse::Value(v) = resp else {
                panic!("expected value");
            };
            assert_eq!(v, Some(k));
        }
        let get_makespan = member_time
            .iter()
            .map(|&m| m - flush_end)
            .max()
            .unwrap_or(Ns::ZERO);
        t.row(vec![
            n.to_string(),
            fmt_rate(OPS as f64 / put_makespan.as_secs_f64()),
            fmt_rate(OPS as f64 / get_makespan.as_secs_f64()),
            hit.iter().filter(|&&h| h).count().to_string(),
        ]);
    }
    t
}

fn log_table() -> Table {
    let mut t = Table::new(
        "E12b: cluster-wide shared log scale-out (512 B entries)",
        &["sites", "appends/s", "tail"],
    );
    for &sites in &[1usize, 2, 4] {
        let mut log = CorfuLog::new(sites, 1 << 16);
        let mut client_time = vec![Ns::ZERO; sites];
        for i in 0..OPS {
            let c = (i as usize) % sites;
            let (_, done) = log.append(&[9u8; 512], client_time[c]).expect("append");
            client_time[c] = done;
        }
        let makespan = client_time.into_iter().max().unwrap_or(Ns::ZERO);
        t.row(vec![
            sites.to_string(),
            fmt_rate(OPS as f64 / makespan.as_secs_f64()),
            log.tail().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tables() -> &'static [Table] {
        static T: OnceLock<Vec<Table>> = OnceLock::new();
        T.get_or_init(run)
    }

    #[test]
    fn kv_gets_scale_with_members() {
        let t = &tables()[0];
        let one = t.cell(0, 2).rate();
        let four = t.cell(2, 2).rate();
        assert!(four > one * 2.0, "1 dpu {one} vs 4 dpus {four}");
    }

    #[test]
    fn all_partitions_participate() {
        let t = &tables()[0];
        assert_eq!(t.rows[2][3], "4");
    }

    #[test]
    fn log_appends_scale_with_sites() {
        let t = &tables()[1];
        let one = t.cell(0, 1).rate();
        let four = t.cell(2, 1).rate();
        assert!(four > one * 2.5, "1 site {one} vs 4 sites {four}");
        for row in &t.rows {
            assert_eq!(row[2], OPS.to_string());
        }
    }
}
