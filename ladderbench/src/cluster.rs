//! The deployed path: a loopback cluster of `hyperdex-server`
//! processes launched at the program's defaults, driven by one client.

use std::path::Path;

use hyperdex_net::{Cluster, ClusterConfig, NetClient};
use hyperdex_runtime::ShutdownReport;

use crate::meter;
use crate::workload::{R, SERVERS, WORKERS};

/// A launched cluster with its client and server process ids.
pub struct Deployed {
    cluster: Cluster,
    /// The client holding one connection per server.
    pub client: NetClient,
    /// Server process ids, for metering.
    pub servers: Vec<u32>,
}

/// Launches the cluster and connects the client.
///
/// # Errors
///
/// Launch or connect failures, or server processes that cannot be
/// found for metering.
pub fn launch(seed: u64, server_bin: &Path) -> Result<Deployed, String> {
    let before = meter::children().map_err(|e| format!("listing child processes: {e}"))?;
    let mut cfg = ClusterConfig::new(R, seed, WORKERS, SERVERS);
    cfg.server_bin = Some(server_bin.to_path_buf());
    let cluster = Cluster::launch(cfg).map_err(|e| format!("cluster launch: {e}"))?;
    let servers: Vec<u32> = meter::children()
        .map_err(|e| format!("listing child processes: {e}"))?
        .into_iter()
        .filter(|p| !before.contains(p))
        .collect();
    if servers.len() != SERVERS as usize {
        return Err(format!(
            "expected {SERVERS} new server processes, found {servers:?}"
        ));
    }
    let client = cluster
        .client()
        .map_err(|e| format!("cluster client: {e}"))?;
    Ok(Deployed {
        cluster,
        client,
        servers,
    })
}

/// Summed peak resident memory (`VmHWM`) of the servers, MiB.
///
/// # Errors
///
/// A server whose `/proc` status cannot be read.
pub fn rss_mib(servers: &[u32]) -> Result<f64, String> {
    let mut kib = 0;
    for &pid in servers {
        kib +=
            meter::vm_hwm_kib(pid).map_err(|e| format!("metering memory of process {pid}: {e}"))?;
    }
    Ok(kib as f64 / 1024.0)
}

/// Shuts the cluster down and checks frame conservation across every
/// process: sent + duplicated == received + dropped + drained.
///
/// # Errors
///
/// Shutdown failures, or a ledger that does not balance.
pub fn shutdown(deployed: Deployed) -> Result<ShutdownReport, String> {
    let report = deployed
        .cluster
        .shutdown(deployed.client)
        .map_err(|e| format!("cluster shutdown: {e}"))?;
    conserved(&report)?;
    Ok(report)
}

/// Frame conservation of a shutdown ledger.
///
/// # Errors
///
/// The ledger's totals when it does not balance.
pub fn conserved(report: &ShutdownReport) -> Result<(), String> {
    let out = report.total_sent() + report.total_duplicated();
    let back = report.total_received() + report.total_dropped() + report.supervisor.frames_drained;
    if out == back {
        Ok(())
    } else {
        Err(format!(
            "frame conservation violated: sent+duplicated {out} != received+dropped+drained {back}"
        ))
    }
}
