//! A bounded flow-decision memo: a plain map from a packet's canonical
//! tuple to the verdict decided for it.
//!
//! No proxy path uses it. Every Packet-In resolves its identifiers on the
//! shard's live ERM replica and classifies against the served snapshot
//! (see `crate::dfi`). The type stays as a model for the wall-clock
//! benchmark's traced replay, which times what probing and filling a
//! per-flow memo would cost; at capacity 0 — the
//! [`DfiConfig`](crate::DfiConfig) default — it stores nothing, so the
//! replay resolves every punt, as the live path does.

use crate::policy::Decision;
use dfi_packet::{MacAddr, PacketHeaders};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Canonical low-level identity of a flow: everything the PCP feeds into
/// entity resolution and classification.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    dpid: u64,
    in_port: u32,
    eth_src: MacAddr,
    eth_dst: MacAddr,
    ethertype: u16,
    ip_proto: Option<u8>,
    ip_src: Option<Ipv4Addr>,
    ip_dst: Option<Ipv4Addr>,
    l4_src: Option<u16>,
    l4_dst: Option<u16>,
}

impl FlowKey {
    /// Canonicalizes a parsed packet received at `(dpid, in_port)`.
    #[must_use]
    pub fn new(headers: &PacketHeaders, dpid: u64, in_port: u32) -> FlowKey {
        FlowKey {
            dpid,
            in_port,
            eth_src: headers.eth_src,
            eth_dst: headers.eth_dst,
            ethertype: headers.ethertype.to_u16(),
            ip_proto: headers.ip_proto.map(|p| p.0),
            ip_src: headers.ipv4_src,
            ip_dst: headers.ipv4_dst,
            l4_src: headers.l4_src(),
            l4_dst: headers.l4_dst(),
        }
    }
}

/// A memoized verdict.
#[derive(Clone, Debug)]
pub struct CachedDecision {
    /// The verdict and the policy that produced it.
    pub decision: Decision,
    /// The decision covers the flow's whole L4-port class.
    pub widened: bool,
    /// Epoch of the policy snapshot that produced the decision.
    pub epoch: u64,
}

/// The memo: at most `capacity` entries, dropped all at once when full.
#[derive(Default)]
pub struct DecisionCache {
    entries: HashMap<FlowKey, CachedDecision>,
    capacity: usize,
}

impl DecisionCache {
    /// An empty memo bounded at `capacity` entries (`0` stores nothing).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> DecisionCache {
        DecisionCache {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// The memoized verdict for `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: &FlowKey) -> Option<CachedDecision> {
        self.entries.get(key).cloned()
    }

    /// Memoizes a decision under its flow key, stamped with the epoch of
    /// the snapshot that produced it.
    pub fn insert(&mut self, key: FlowKey, decision: Decision, widened: bool, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.clear();
        }
        let entry = CachedDecision {
            decision,
            widened,
            epoch,
        };
        self.entries.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyAction, DEFAULT_DENY_ID};

    fn key(port: u16) -> FlowKey {
        let frame = dfi_packet::headers::build::tcp_syn(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            50_000,
            port,
        );
        FlowKey::new(&PacketHeaders::parse(&frame).unwrap(), 0xD1, 1)
    }

    fn deny() -> Decision {
        Decision {
            action: PolicyAction::Deny,
            policy: DEFAULT_DENY_ID,
        }
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut memo = DecisionCache::with_capacity(0);
        memo.insert(key(80), deny(), false, 1);
        assert!(memo.lookup(&key(80)).is_none());
    }

    #[test]
    fn a_full_memo_starts_over() {
        let mut memo = DecisionCache::with_capacity(2);
        memo.insert(key(80), deny(), false, 1);
        memo.insert(key(81), deny(), false, 1);
        assert_eq!(memo.lookup(&key(81)).map(|d| d.epoch), Some(1));
        memo.insert(key(82), deny(), true, 2);
        assert!(memo.lookup(&key(80)).is_none());
        assert!(memo.lookup(&key(81)).is_none());
        assert!(memo.lookup(&key(82)).is_some_and(|d| d.widened));
    }
}
