//! Replayable mirrors of the gateway's `/stats` request counters.
//!
//! Every terminal request event the gateway counts is journaled as a
//! [`Record`], and [`Counters::apply`] maps `(kind, status)` back onto
//! the exact counter bumps the live server performed — so folding a
//! journal (after a snapshot's counters) reproduces `/stats` to the
//! digit. The mapping must stay in lock-step with
//! `stbus-gateway`'s execution paths; the crash-recovery integration
//! test asserts the round trip against a real server.

use crate::record::{put_str, Cursor};
use crate::record::{Record, RecordKind, RecordStatus};
use std::collections::BTreeMap;

/// The `outcome` a gateway journals for a job its shutdown drained from
/// the queue before any worker ran it. Such a delta never resolved its
/// artifact, so [`Counters::apply`] counts no `delta_reuse` for it, as
/// the live server counts none. A job cancelled while running journals
/// an empty outcome.
pub const DRAINED_OUTCOME: &str = "drained at shutdown";

/// Per-tenant counters (the `/stats` `by_tenant` breakdown).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests served for this tenant.
    pub served: u64,
    /// Delta requests that found their artifact for this tenant.
    pub delta_reuse: u64,
    /// `429`s earned by filling this tenant's own lane quota.
    pub rejected_quota: u64,
}

/// Global + per-tenant request counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Requests served successfully.
    pub served: u64,
    /// Requests refused at admission (`429`, global or tenant quota).
    pub rejected: u64,
    /// Requests cancelled (client gone, or shutdown drain).
    pub cancelled: u64,
    /// Delta requests whose artifact was found (counted at the hit,
    /// before the solve — a later cancellation or error keeps it).
    pub delta_reuse: u64,
    /// Delta requests naming an unknown or evicted artifact.
    pub delta_miss: u64,
    /// The `by_tenant` breakdown.
    pub tenants: BTreeMap<String, TenantCounters>,
}

impl Counters {
    /// Folds one record into the counters, mirroring the live gateway:
    ///
    /// * `Ok` → `served` (+ tenant `served`); a delta additionally
    ///   counted `delta_reuse` at its artifact hit.
    /// * `Cancelled` → `cancelled`; a delta cancelled while running
    ///   still counted its `delta_reuse` (the worker resolved its artifact
    ///   first). A delta drained from the queue at shutdown
    ///   ([`DRAINED_OUTCOME`]) never ran and counts none.
    /// * `Error` → nothing globally, except a delta's earlier reuse.
    /// * `RejectedQueue` → `rejected`; `RejectedQuota` → `rejected` +
    ///   tenant `rejected_quota`.
    /// * `ArtifactMiss` → `delta_miss`.
    pub fn apply(&mut self, record: &Record) {
        let is_delta = record.kind == RecordKind::Delta;
        match record.status {
            RecordStatus::Ok => {
                self.served += 1;
                self.tenant(&record.tenant).served += 1;
                if is_delta {
                    self.delta_reuse += 1;
                    self.tenant(&record.tenant).delta_reuse += 1;
                }
            }
            RecordStatus::Cancelled => {
                self.cancelled += 1;
                if is_delta && record.outcome != DRAINED_OUTCOME {
                    self.delta_reuse += 1;
                    self.tenant(&record.tenant).delta_reuse += 1;
                }
            }
            RecordStatus::Error => {
                if is_delta {
                    self.delta_reuse += 1;
                    self.tenant(&record.tenant).delta_reuse += 1;
                }
            }
            RecordStatus::RejectedQueue => self.rejected += 1,
            RecordStatus::RejectedQuota => {
                self.rejected += 1;
                self.tenant(&record.tenant).rejected_quota += 1;
            }
            RecordStatus::ArtifactMiss => self.delta_miss += 1,
        }
    }

    fn tenant(&mut self, tenant: &str) -> &mut TenantCounters {
        self.tenants.entry(tenant.to_string()).or_default()
    }

    /// Binary encoding (a snapshot header field).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.served.to_le_bytes());
        out.extend_from_slice(&self.rejected.to_le_bytes());
        out.extend_from_slice(&self.cancelled.to_le_bytes());
        out.extend_from_slice(&self.delta_reuse.to_le_bytes());
        out.extend_from_slice(&self.delta_miss.to_le_bytes());
        out.extend_from_slice(&(self.tenants.len() as u32).to_le_bytes());
        for (name, t) in &self.tenants {
            put_str(out, name);
            out.extend_from_slice(&t.served.to_le_bytes());
            out.extend_from_slice(&t.delta_reuse.to_le_bytes());
            out.extend_from_slice(&t.rejected_quota.to_le_bytes());
        }
    }

    pub(crate) fn decode_from(cur: &mut Cursor<'_>) -> Result<Self, String> {
        let mut counters = Self {
            served: cur.u64()?,
            rejected: cur.u64()?,
            cancelled: cur.u64()?,
            delta_reuse: cur.u64()?,
            delta_miss: cur.u64()?,
            tenants: BTreeMap::new(),
        };
        let n = cur.u32()?;
        for _ in 0..n {
            let name = cur.string()?;
            let t = TenantCounters {
                served: cur.u64()?,
                delta_reuse: cur.u64()?,
                rejected_quota: cur.u64()?,
            };
            counters.tenants.insert(name, t);
        }
        Ok(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, status: RecordStatus, tenant: &str) -> Record {
        Record {
            seq: 0,
            kind,
            status,
            tenant: tenant.into(),
            spec: String::new(),
            outcome: String::new(),
        }
    }

    #[test]
    fn apply_mirrors_the_gateway_contract() {
        let mut c = Counters::default();
        c.apply(&rec(RecordKind::Synthesize, RecordStatus::Ok, "a"));
        c.apply(&rec(RecordKind::Delta, RecordStatus::Ok, "a"));
        c.apply(&rec(RecordKind::Delta, RecordStatus::Cancelled, "b"));
        c.apply(&rec(RecordKind::Delta, RecordStatus::ArtifactMiss, "b"));
        c.apply(&rec(RecordKind::Sweep, RecordStatus::Cancelled, "a"));
        c.apply(&rec(RecordKind::Suite, RecordStatus::RejectedQueue, "a"));
        c.apply(&rec(
            RecordKind::Synthesize,
            RecordStatus::RejectedQuota,
            "b",
        ));
        c.apply(&rec(RecordKind::Synthesize, RecordStatus::Error, "a"));
        assert_eq!(
            (
                c.served,
                c.rejected,
                c.cancelled,
                c.delta_reuse,
                c.delta_miss
            ),
            (2, 2, 2, 2, 1)
        );
        assert_eq!(c.tenants["a"].served, 2);
        assert_eq!(c.tenants["a"].delta_reuse, 1);
        assert_eq!(c.tenants["b"].delta_reuse, 1);
        assert_eq!(c.tenants["b"].served, 0);
        assert_eq!(c.tenants["b"].rejected_quota, 1);
    }

    #[test]
    fn a_delta_drained_at_shutdown_counts_no_reuse() {
        let mut c = Counters::default();
        let mut drained = rec(RecordKind::Delta, RecordStatus::Cancelled, "a");
        drained.outcome = DRAINED_OUTCOME.to_string();
        c.apply(&drained);
        // A queued sweep drained the same way is only a cancellation.
        let mut sweep = rec(RecordKind::Sweep, RecordStatus::Cancelled, "a");
        sweep.outcome = DRAINED_OUTCOME.to_string();
        c.apply(&sweep);
        assert_eq!((c.cancelled, c.delta_reuse, c.served), (2, 0, 0));
        assert!(!c.tenants.contains_key("a"));
        // One cancelled while running had resolved its artifact.
        c.apply(&rec(RecordKind::Delta, RecordStatus::Cancelled, "a"));
        assert_eq!((c.cancelled, c.delta_reuse), (3, 1));
        assert_eq!(c.tenants["a"].delta_reuse, 1);
    }

    #[test]
    fn counters_encode_round_trips() {
        let mut c = Counters::default();
        c.apply(&rec(RecordKind::Delta, RecordStatus::Ok, "tenant-x"));
        c.apply(&rec(
            RecordKind::Synthesize,
            RecordStatus::RejectedQuota,
            "y",
        ));
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        let mut cur = Cursor { buf: &buf, pos: 0 };
        assert_eq!(Counters::decode_from(&mut cur).unwrap(), c);
        assert_eq!(cur.pos, buf.len());
    }
}
