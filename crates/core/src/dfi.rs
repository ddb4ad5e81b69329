//! The DFI data shard: proxy interposition and the Policy Compilation
//! Point pipeline for the switches one shard owns.
//!
//! A [`DataShard`] holds the proxy, the PCP stations, an Entity
//! Resolution Manager replica, the decision cache, the snapshot it
//! decides against, its switch connections and its tracked installs. It
//! holds no policy state of its own — no Policy Manager, no gate, no bus,
//! no retention ring: policy arrives from its
//! [`ControlFront`](crate::ControlFront) as compiled snapshots and cookie
//! flushes, bindings as [`BindingBatch`]es.
//!
//! Message flow for a new flow's first packet (paper Figure 2):
//!
//! ```text
//! switch ──Packet-In──▶ DFI Proxy ──▶ PCP ──▶ ERM query ──▶ PM query
//!                           │                                   │
//!                           │         ┌──── decision ◀──────────┘
//!                           │         ▼
//!                           │   Flow-Mod (Table 0, cookie = policy id)
//!                           │         │
//!                           ▼         ▼
//!                      controller ◀── switch
//!                      (only if allowed)
//! ```
//!
//! The proxy is *in front of* the controller: denied packets never reach
//! it, and every table reference it exchanges with the switch is shifted so
//! Table 0 does not exist from the controller's point of view.
//!
//! # Decision cache
//!
//! The PCP memoizes flow decisions in a [`DecisionCache`] keyed by the
//! packet's canonical low-level tuple (switch, in-port, MACs, EtherType,
//! IP protocol, IPs, L4 ports). A hit skips the *CPU-side* entity
//! resolution and policy query; it does **not** skip the simulated ERM/PM
//! database stations, so the calibrated service-time model — and with it
//! Figure 4's latency curve — is untouched. What the cache buys inside the
//! simulation is the real-system property the paper's consistency design
//! implies: a decision may be reused only until an event that could change
//! it.
//!
//! Invalidation is event-driven and mirrors the cookie-flush protocol
//! exactly: entries are tagged with their deciding [`PolicyId`] and with
//! the IPs/MACs their resolution consumed. Policy insert/revoke drops the
//! entries of every cookie it flushes from the switches, at the same call
//! sites; ERM binding add/expire (DHCP lease, DNS name, SIEM session
//! events, MAC migration) drops the entries touching the rebound
//! identifiers — session events map hostnames to affected IPs through the
//! ERM's refcounted name reverse index. A no-op re-bind (the per-packet
//! MAC-location refresh) invalidates nothing, which is what makes the
//! cache effective at all.
//!
//! # Snapshot data plane
//!
//! The flow-setup hot path never touches the mutable Policy Manager: every
//! decision reads the immutable [`PolicySnapshot`] the front compiled once
//! per certified commit and published to every shard (see
//! `crate::policy::snapshot`). A *recovery* publication — the first after
//! the certification gate refused — bulk-expires decision-cache entries
//! by epoch, so no stale verdict survives the swap. Bursts of packet-ins
//! arriving in one read are classified against a single frozen snapshot in
//! one pass ([`PolicySnapshot::classify_batch`]) before fanning into the
//! batched FlowMod‖Barrier installs.
//!
//! An allowed Packet-In reaches the controller under the transaction id
//! the switch gave it: the controller sees the switch's own numbering, not
//! a sign that a proxy sits in between.

use crate::erm::{Binding, EntityResolver, ErmIndexSizes, SpoofVerdict};
use crate::events::{DfiEvent, RepairStepData};
use crate::policy::{
    Decision, FlowView, PolicyAction, PolicyId, PolicyIndexStats, PolicySnapshot, DEFAULT_DENY_ID,
};
use crate::rewrite::{
    rewrite_controller_frame_in_place, rewrite_switch_frame_in_place, rewrite_switch_to_controller,
    ControllerFrame, SwitchFrame,
};
use dfi_dataplane::{ByteSink, Switch};
use dfi_openflow::{ErrorMsg, FlowMod, Instruction, Match, Message, OfMessage, PacketIn};
use dfi_packet::{MacAddr, PacketHeaders};
use dfi_simnet::{Dist, Sim, SimTime, Station, StationConfig, SubmitOutcome, Summary};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Calibration constants for the DFI control plane.
///
/// Defaults reproduce the paper's measured costs (Table II): binding query
/// 2.41 ms ± 0.97, policy query 2.52 ms ± 0.85, other PCP processing
/// 0.39 ms ± 0.27, proxy 0.16 ms ± 0.72 — and a worker/queue structure
/// whose saturation point lands near Table I's 1350 flows/sec.
#[derive(Clone, Debug)]
pub struct DfiConfig {
    /// Per-message proxy processing latency.
    pub proxy_latency: Dist,
    /// PCP parse/dispatch service time ("Other PCP Processing").
    pub pcp_service: Dist,
    /// Entity Resolution Manager (MySQL) query service time.
    pub binding_query: Dist,
    /// Policy Manager (MySQL) query service time.
    pub policy_query: Dist,
    /// PCP worker parallelism.
    pub pcp_workers: usize,
    /// Bound on flows queued at the PCP.
    pub pcp_queue_capacity: usize,
    /// Database connection-pool size shared semantics for ERM and PM
    /// stations.
    pub db_workers: usize,
    /// Bound on queries queued at each database station; overflowing flows
    /// are dropped (the paper's "limited queue size").
    pub db_queue_capacity: usize,
    /// Load-proportional service inflation on the database stations (per
    /// 1000 accepted arrivals/sec above `db_load_floor`); produces
    /// Figure 4's pre-saturation latency rise.
    pub db_load_inflation: f64,
    /// Accepted-arrival rate below which database service times stay at
    /// their base distribution.
    pub db_load_floor: f64,
    /// Priority of DFI's exact-match rules in Table 0.
    pub rule_priority: u16,
    /// One-way latency from DFI to a switch (rule install path).
    pub install_latency: Duration,
    /// Bound on resends of an unacknowledged Table-0 install or flush.
    /// Every tracked send pairs the flow-mod with a barrier request under
    /// one transaction id; a missing barrier reply triggers a resend.
    pub install_retries: u32,
    /// Wait for the barrier acknowledgement before the first resend;
    /// doubles after each unacknowledged attempt.
    pub install_retry_backoff: Duration,
    /// Message-bus delivery latency (sensor events, flush commands).
    pub bus_latency: Dist,
    /// Physical table count of attached switches.
    pub n_tables: u8,
    /// Reactive wildcard-rule caching (the paper's §III-B extension
    /// sketch, in the spirit of CAB-ACME): when the decision provably
    /// holds for the flow's entire L4-port class, install one
    /// port-wildcarded rule instead of one exact rule per flow. Off by
    /// default — the paper's evaluated system installs exact rules only.
    pub wildcard_caching: bool,
    /// Entry bound of the PCP decision cache (see the module docs). `0`
    /// disables memoization entirely.
    pub decision_cache_capacity: usize,
}

impl Default for DfiConfig {
    fn default() -> Self {
        DfiConfig {
            proxy_latency: Dist::normal_ms(0.16, 0.72),
            pcp_service: Dist::normal_ms(0.39, 0.27),
            binding_query: Dist::normal_ms(2.41, 0.97),
            policy_query: Dist::normal_ms(2.52, 0.85),
            pcp_workers: 16,
            pcp_queue_capacity: 512,
            db_workers: 50,
            db_queue_capacity: 64,
            db_load_inflation: 12.0,
            db_load_floor: 200.0,
            rule_priority: 100,
            install_latency: Duration::from_micros(200),
            install_retries: 4,
            install_retry_backoff: Duration::from_millis(2),
            bus_latency: Dist::normal_ms(0.3, 0.05),
            n_tables: 8,
            wildcard_caching: false,
            decision_cache_capacity: 65_536,
        }
    }
}

/// Canonical low-level identity of a flow: everything `pcp_decide` feeds
/// into entity resolution and the policy query. Two packets with equal
/// keys get identical decisions as long as no binding or policy event
/// intervenes.
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

/// A memoized verdict: what `pcp_decide` concluded last time it saw this
/// flow key.
#[derive(Clone, Debug)]
pub struct CachedDecision {
    /// The verdict and the policy that produced it.
    pub decision: Decision,
    /// The decision came from a port-class query and the compiled rule was
    /// widened (L4 ports wildcarded).
    pub widened: bool,
    /// Epoch of the policy snapshot that produced the decision; entries
    /// older than the cache's validity floor are lazily dropped on lookup
    /// (see [`DecisionCache::expire_before`]).
    pub epoch: u64,
}

/// Memo of flow decisions with event-driven invalidation (see the module
/// docs). Entries are indexed by deciding policy and by every IP/MAC in
/// the key so that policy flushes and binding churn can drop exactly the
/// affected decisions.
#[derive(Default)]
pub struct DecisionCache {
    entries: HashMap<FlowKey, CachedDecision>,
    by_policy: HashMap<PolicyId, HashSet<FlowKey>>,
    by_ip: HashMap<Ipv4Addr, HashSet<FlowKey>>,
    by_mac: HashMap<MacAddr, HashSet<FlowKey>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Entry bound; at capacity the whole memo is dropped (simple and
    /// rare) rather than tracking recency.
    capacity: usize,
    /// Entries stamped with a snapshot epoch below this floor are stale:
    /// they were decided under a snapshot that was later superseded by a
    /// *recovery* publication (one that ended a deferred/refused state, so
    /// the precise per-policy flush invalidation could not have covered
    /// the interim decisions). Raised by [`DecisionCache::expire_before`];
    /// stale entries are dropped lazily on their next lookup.
    valid_epoch: u64,
}

impl DecisionCache {
    /// An empty cache bounded at `capacity` entries (`0` disables caching).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> DecisionCache {
        DecisionCache {
            capacity,
            ..DecisionCache::default()
        }
    }

    /// The per-packet probe: counts a hit or a miss either way. A hit on
    /// an entry from an expired snapshot epoch is a miss (the stale entry
    /// is dropped and counted as an invalidation).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<CachedDecision> {
        if let Some(hit) = self.entries.get(key) {
            if hit.epoch >= self.valid_epoch {
                self.hits += 1;
                return Some(hit.clone());
            }
            self.detach(key, None);
        }
        self.misses += 1;
        None
    }

    /// Declares every entry decided under a snapshot epoch below `epoch`
    /// stale. Called on a *recovery* publication (the swap that ends a
    /// deferred state); ordinary publications rely on the precise
    /// per-policy flush invalidation instead.
    pub fn expire_before(&mut self, epoch: u64) {
        self.valid_epoch = epoch;
    }

    /// Memoizes a freshly computed decision under its flow key, stamped
    /// with the epoch of the snapshot that produced it.
    pub fn insert(&mut self, key: FlowKey, decision: Decision, widened: bool, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            let flushed = self.entries.len() as u64;
            self.entries.clear();
            self.by_policy.clear();
            self.by_ip.clear();
            self.by_mac.clear();
            self.invalidations += flushed;
        }
        self.by_policy
            .entry(decision.policy)
            .or_default()
            .insert(key.clone());
        for ip in [key.ip_src, key.ip_dst].into_iter().flatten() {
            self.by_ip.entry(ip).or_default().insert(key.clone());
        }
        for mac in [key.eth_src, key.eth_dst] {
            self.by_mac.entry(mac).or_default().insert(key.clone());
        }
        self.entries.insert(
            key,
            CachedDecision {
                decision,
                widened,
                epoch,
            },
        );
    }

    fn detach(&mut self, key: &FlowKey, skip_policy: Option<PolicyId>) {
        let Some(entry) = self.entries.remove(key) else {
            return;
        };
        self.invalidations += 1;
        if skip_policy != Some(entry.decision.policy) {
            if let Some(set) = self.by_policy.get_mut(&entry.decision.policy) {
                set.remove(key);
                if set.is_empty() {
                    self.by_policy.remove(&entry.decision.policy);
                }
            }
        }
        for ip in [key.ip_src, key.ip_dst].into_iter().flatten() {
            if let Some(set) = self.by_ip.get_mut(&ip) {
                set.remove(key);
                if set.is_empty() {
                    self.by_ip.remove(&ip);
                }
            }
        }
        for mac in [key.eth_src, key.eth_dst] {
            if let Some(set) = self.by_mac.get_mut(&mac) {
                set.remove(key);
                if set.is_empty() {
                    self.by_mac.remove(&mac);
                }
            }
        }
    }

    /// Drops every decision made by `policy` — called exactly where the
    /// switch-side cookie flush for that policy is issued.
    fn invalidate_policy(&mut self, policy: PolicyId) {
        let Some(keys) = self.by_policy.remove(&policy) else {
            return;
        };
        for key in keys {
            self.detach(&key, Some(policy));
        }
    }

    /// Drops every decision whose packet identifiers include `ip`.
    fn invalidate_ip(&mut self, ip: Ipv4Addr) {
        let Some(keys) = self.by_ip.get(&ip).cloned() else {
            return;
        };
        for key in keys {
            self.detach(&key, None);
        }
    }

    /// Drops every decision whose packet identifiers include `mac`.
    fn invalidate_mac(&mut self, mac: MacAddr) {
        let Some(keys) = self.by_mac.get(&mac).cloned() else {
            return;
        };
        for key in keys {
            self.detach(&key, None);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Aggregate DFI measurements (all times in seconds).
#[derive(Clone, Debug, Default)]
pub struct DfiMetrics {
    /// Packet-ins received from switches.
    pub packet_ins: u64,
    /// Flows allowed by policy.
    pub allowed: u64,
    /// Flows denied by policy (including default deny).
    pub denied: u64,
    /// Flows denied by the anti-spoofing check.
    pub spoof_denied: u64,
    /// Flows dropped at a full queue (control-plane overload).
    pub dropped: u64,
    /// Cookie-flush commands issued to switches.
    pub flushes: u64,
    /// Decisions cached as port-wildcarded class rules (extension mode).
    pub wildcard_cached: u64,
    /// Messages the proxy rejected (controller touching Table 0).
    pub proxy_rejections: u64,
    /// Table-0 install/flush resends after a missed barrier ack.
    pub install_retries: u64,
    /// Installs abandoned after exhausting the retry budget.
    pub install_failures: u64,
    /// Proxy per-message latency.
    pub proxy: Summary,
    /// PCP parse/dispatch sojourn (Table II "Other PCP Processing").
    pub pcp_other: Summary,
    /// Binding-query sojourn (Table II "Binding Query").
    pub binding: Summary,
    /// Policy-query sojourn (Table II "Policy Query").
    pub policy: Summary,
    /// Packet-in arrival to decision+install ("flow-start latency",
    /// Table I).
    pub overall: Summary,
    /// Decisions attributed to each policy id (the paper's requirement
    /// that an administrator can "understand the current policy" extends
    /// to seeing which rules actually decide traffic).
    pub decisions_by_policy: std::collections::BTreeMap<u64, u64>,
    /// Decision-cache hits (flows decided without re-running entity
    /// resolution and the policy query).
    pub decision_cache_hits: u64,
    /// Decision-cache misses (full enrich→match→decide executions).
    pub decision_cache_misses: u64,
    /// Cache entries dropped by policy flushes and binding churn.
    pub decision_cache_invalidations: u64,
    /// Live decision-cache entries at snapshot time.
    pub decision_cache_entries: u64,
    /// Flow-mod installs coalesced with their barrier into one batched
    /// write (a single framed buffer on the wire).
    pub flow_mods_batched: u64,
    /// Frames the proxy rewrote in place on the splice fast path (no
    /// decode/re-encode).
    pub frames_spliced: u64,
    /// Frames that fell back to the full decode→rewrite→encode path.
    pub frames_fallback: u64,
    /// Wire buffers served from the per-connection pools' free lists.
    pub pool_reused: u64,
    /// Wire buffers freshly allocated because a pool's free list was empty.
    pub pool_minted: u64,
    /// Policy snapshots this shard installed (one per publication,
    /// recovery publications included; a merged report sums the shards).
    pub snapshots_published: u64,
    /// Snapshot publications refused by the certification gate; the
    /// previously published snapshot kept serving. Filled in by the front.
    pub snapshot_refusals: u64,
    /// Epoch of the currently served snapshot at metrics time.
    pub snapshot_epoch: u64,
    /// Rule count of the currently served snapshot at metrics time.
    pub snapshot_rules: u64,
    /// Multi-packet-in reads classified as one burst against a single
    /// frozen snapshot.
    pub packet_in_bursts: u64,
    /// Flows decided through the batched `classify_batch` pass.
    pub burst_flows_classified: u64,
    /// ERM secondary-index sizes at snapshot time.
    pub erm_index: ErmIndexSizes,
    /// Policy bucket-index shape and candidate-scan accounting at snapshot
    /// time. Filled in by the front, which owns the Policy Manager.
    pub policy_index: PolicyIndexStats,
}

impl DfiMetrics {
    /// Folds another shard's metrics into this one — the fleet aggregate a
    /// sharded front reports. Counters and latency summaries sum /
    /// merge; per-policy attribution adds per id; the snapshot epoch/rule
    /// fields take the maximum (shards of one front serve the same
    /// snapshot, so max == the common value, and a lagging reading is
    /// visible as disagreement elsewhere, not silently averaged away).
    /// Index sizes sum: replicas deliberately overlap on broadcast
    /// bindings, so the aggregate measures total replicated state, not
    /// distinct bindings.
    pub fn merge(&mut self, other: &DfiMetrics) {
        self.packet_ins += other.packet_ins;
        self.allowed += other.allowed;
        self.denied += other.denied;
        self.spoof_denied += other.spoof_denied;
        self.dropped += other.dropped;
        self.flushes += other.flushes;
        self.wildcard_cached += other.wildcard_cached;
        self.proxy_rejections += other.proxy_rejections;
        self.install_retries += other.install_retries;
        self.install_failures += other.install_failures;
        self.proxy.merge(&other.proxy);
        self.pcp_other.merge(&other.pcp_other);
        self.binding.merge(&other.binding);
        self.policy.merge(&other.policy);
        self.overall.merge(&other.overall);
        for (policy, n) in &other.decisions_by_policy {
            *self.decisions_by_policy.entry(*policy).or_insert(0) += n;
        }
        self.decision_cache_hits += other.decision_cache_hits;
        self.decision_cache_misses += other.decision_cache_misses;
        self.decision_cache_invalidations += other.decision_cache_invalidations;
        self.decision_cache_entries += other.decision_cache_entries;
        self.flow_mods_batched += other.flow_mods_batched;
        self.frames_spliced += other.frames_spliced;
        self.frames_fallback += other.frames_fallback;
        self.pool_reused += other.pool_reused;
        self.pool_minted += other.pool_minted;
        self.snapshots_published += other.snapshots_published;
        self.snapshot_refusals += other.snapshot_refusals;
        self.snapshot_epoch = self.snapshot_epoch.max(other.snapshot_epoch);
        self.snapshot_rules = self.snapshot_rules.max(other.snapshot_rules);
        self.packet_in_bursts += other.packet_in_bursts;
        self.burst_flows_classified += other.burst_flows_classified;
        self.erm_index.ips_with_hosts += other.erm_index.ips_with_hosts;
        self.erm_index.hosts_with_users += other.erm_index.hosts_with_users;
        self.erm_index.users_with_hosts += other.erm_index.users_with_hosts;
        self.erm_index.ips_with_macs += other.erm_index.ips_with_macs;
        self.erm_index.mac_locations += other.erm_index.mac_locations;
        self.erm_index.bindings += other.erm_index.bindings;
        self.policy_index.rules += other.policy_index.rules;
        self.policy_index.buckets += other.policy_index.buckets;
        self.policy_index.scan_bucket_len += other.policy_index.scan_bucket_len;
        self.policy_index.candidates_scanned += other.policy_index.candidates_scanned;
        self.policy_index.queries += other.policy_index.queries;
    }
}

/// A shared free list of reusable wire buffers.
///
/// Every frame the proxy touches is staged in a pooled `Vec<u8>`: acquired
/// empty (capacity retained from its previous life), filled, handed to the
/// sink as a borrow, and released back to the list. Steady state the proxy
/// therefore encodes and rewrites without heap allocation — `minted` stops
/// growing and every acquire is a `reused`.
#[derive(Clone, Default)]
pub struct BufPool {
    inner: Rc<RefCell<PoolInner>>,
}

#[derive(Default)]
struct PoolInner {
    free: Vec<Vec<u8>>,
    reused: u64,
    minted: u64,
}

/// Buffers kept beyond this bound are dropped on release instead of
/// pooled; one connection never needs more than a handful in flight.
const POOL_MAX_FREE: usize = 64;

impl BufPool {
    /// Hands out an empty buffer, reusing a released one when available.
    #[must_use]
    pub fn acquire(&self) -> Vec<u8> {
        let mut p = self.inner.borrow_mut();
        match p.free.pop() {
            Some(mut buf) => {
                p.reused += 1;
                buf.clear();
                buf
            }
            None => {
                p.minted += 1;
                Vec::with_capacity(128)
            }
        }
    }

    /// Returns a buffer to the free list (its capacity survives for the
    /// next acquire).
    pub fn release(&self, buf: Vec<u8>) {
        let mut p = self.inner.borrow_mut();
        if p.free.len() < POOL_MAX_FREE {
            p.free.push(buf);
        }
    }

    /// `(reused, minted)` acquire counts so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let p = self.inner.borrow();
        (p.reused, p.minted)
    }
}

struct SwitchConn {
    to_switch: ByteSink,
    to_controller: Option<ByteSink>,
    dpid: u64,
    pool: BufPool,
}

/// An unacknowledged Table-0 install: the exact frames on the wire
/// (flow-mod + barrier request under one xid) and how many sends have
/// gone out so far. The cookie and the add/delete distinction let a
/// policy flush cancel superseded *add* retries — resending an Allow rule
/// after its policy was revoked would be a policy-forbidden install.
struct PendingInstall {
    bytes: Vec<u8>,
    attempts: u32,
    cookie: u64,
    is_delete: bool,
}

/// One ERM mutation, as routed by the control front or replayed by
/// a churn driver. The op carries the full binding so any replica can apply
/// it without consulting the originator.
#[derive(Clone, Debug)]
pub enum BindingOp {
    /// Establish the binding.
    Bind(Binding),
    /// Retract the binding.
    Unbind(Binding),
}

/// An epoch-stamped batch of ERM mutations.
///
/// The control front stamps each routed batch with a strictly increasing
/// epoch; shards apply a batch at most once and ignore stale epochs, so
/// re-delivery (bus retries, overlapping fanouts) is idempotent. Epoch 0
/// is the unstamped wildcard: always applied, used by harnesses that bulk-load
/// bindings directly.
#[derive(Clone, Debug)]
pub struct BindingBatch {
    /// Fanout sequence number (0 = unstamped, always applied).
    pub epoch: u64,
    /// The mutations, applied in order.
    pub ops: Vec<BindingOp>,
}

struct Inner {
    config: DfiConfig,
    erm: EntityResolver,
    cache: DecisionCache,
    /// The snapshot the hot path decides against; the front replaces it
    /// once per certified commit.
    snapshot: Arc<PolicySnapshot>,
    /// A default-deny decision was issued from the snapshot path and may
    /// be cached on switches under cookie 0; the front takes this note at
    /// its next inserting commit (the hot path itself never touches the
    /// Policy Manager).
    default_deny_cached: bool,
    /// Highest stamped [`BindingBatch`] epoch applied so far; stale or
    /// re-delivered batches are ignored.
    binding_epoch: u64,
    conns: Vec<SwitchConn>,
    pending_installs: HashMap<(usize, u32), PendingInstall>,
    next_xid: u32,
    metrics: DfiMetrics,
}

impl Inner {
    /// Applies one ERM mutation with exactly the cache invalidation the
    /// bus sensor handlers perform, so a fanned-out replica and a
    /// directly-subscribed DFI converge to identical decision state:
    /// IP-keyed bindings stale decisions that resolved through the IP,
    /// session changes stale every IP the host resolves to, and location
    /// changes stale the MAC (mirroring the PCP's packet-in sensor).
    fn apply_binding_op(&mut self, op: &BindingOp) {
        let (binding, establish) = match op {
            BindingOp::Bind(b) => (b, true),
            BindingOp::Unbind(b) => (b, false),
        };
        let changed = if establish {
            self.erm.bind(binding.clone())
        } else {
            self.erm.unbind(binding)
        };
        if !changed {
            return;
        }
        match binding {
            Binding::IpMac { ip, .. } | Binding::HostIp { ip, .. } => {
                self.cache.invalidate_ip(*ip);
            }
            Binding::UserHost { host, .. } => {
                for ip in self.erm.ips_of_host(host) {
                    self.cache.invalidate_ip(ip);
                }
            }
            Binding::MacLocation { mac, .. } => {
                self.cache.invalidate_mac(*mac);
            }
        }
    }

    /// Cancels unacknowledged *add* retries for `cookie` (on connection
    /// `only`, or on all): the cookie is being flushed, so resending its
    /// Allow rules after the delete would reinstall a revoked permission.
    /// Their wire buffers go back to the owning connection's pool.
    fn cancel_pending_adds(&mut self, cookie: u64, only: Option<usize>) {
        let cancelled: Vec<(usize, u32)> = self
            .pending_installs
            .iter()
            .filter(|(&(c, _), p)| {
                only.is_none_or(|o| o == c) && !p.is_delete && p.cookie == cookie
            })
            .map(|(k, _)| *k)
            .collect();
        for key in cancelled {
            if let Some(pending) = self.pending_installs.remove(&key) {
                self.conns[key.0].pool.release(pending.bytes);
            }
        }
    }
}

/// The ERM mutation a sensor event implies, if any: leases carry IP↔MAC,
/// name records host↔IP, sessions user↔host. Every mode's sensor path
/// turns events into binding batches through this one mapping.
#[must_use]
pub fn binding_op_of_event(ev: &DfiEvent) -> Option<BindingOp> {
    match ev {
        DfiEvent::Lease {
            mac, ip, released, ..
        } => {
            let b = Binding::IpMac { ip: *ip, mac: *mac };
            Some(if *released {
                BindingOp::Unbind(b)
            } else {
                BindingOp::Bind(b)
            })
        }
        DfiEvent::Name {
            hostname,
            ip,
            removed,
        } => {
            let b = Binding::HostIp {
                host: hostname.clone(),
                ip: *ip,
            };
            Some(if *removed {
                BindingOp::Unbind(b)
            } else {
                BindingOp::Bind(b)
            })
        }
        DfiEvent::Session {
            user,
            host,
            logged_on,
        } => {
            let b = Binding::UserHost {
                user: user.clone(),
                host: host.clone(),
            };
            Some(if *logged_on {
                BindingOp::Bind(b)
            } else {
                BindingOp::Unbind(b)
            })
        }
        _ => None,
    }
}

/// One data shard of the DFI proxy (shared handle; see the module docs).
#[derive(Clone)]
pub struct DataShard {
    inner: Rc<RefCell<Inner>>,
    pcp_station: Station,
    binding_station: Station,
    policy_station: Station,
}

impl DataShard {
    /// Builds a data shard serving the empty snapshot (default deny).
    #[must_use]
    pub fn new(config: DfiConfig) -> DataShard {
        let pcp_station = Station::new(StationConfig {
            name: "pcp".into(),
            workers: config.pcp_workers,
            queue_capacity: config.pcp_queue_capacity,
            service_time: config.pcp_service.clone(),
            contention: 0.0,
            load_inflation: 0.0,
            load_floor: 0.0,
            rate_window: Duration::from_millis(500),
        });
        let db_station = |name: &str, service: Dist| {
            Station::new(StationConfig {
                name: name.into(),
                workers: config.db_workers,
                queue_capacity: config.db_queue_capacity,
                service_time: service,
                contention: 0.0,
                load_inflation: config.db_load_inflation,
                load_floor: config.db_load_floor,
                rate_window: Duration::from_millis(500),
            })
        };
        let binding_station = db_station("erm-db", config.binding_query.clone());
        let policy_station = db_station("policy-db", config.policy_query.clone());
        let cache = DecisionCache::with_capacity(config.decision_cache_capacity);
        DataShard {
            inner: Rc::new(RefCell::new(Inner {
                config,
                erm: EntityResolver::new(),
                cache,
                snapshot: Arc::new(PolicySnapshot::empty()),
                default_deny_cached: false,
                binding_epoch: 0,
                conns: Vec::new(),
                pending_installs: HashMap::new(),
                next_xid: 0xDF1_0000,
                metrics: DfiMetrics::default(),
            })),
            pcp_station,
            binding_station,
            policy_station,
        }
    }

    /// Applies an epoch-stamped batch of ERM mutations, with the cache
    /// invalidation each binding change implies. Returns `false` if the
    /// batch was stale — its epoch not newer than one already applied —
    /// and was ignored. Unstamped batches (epoch 0) always apply.
    #[must_use]
    pub fn apply_binding_batch(&self, batch: &BindingBatch) -> bool {
        let mut inner = self.inner.borrow_mut();
        if batch.epoch != 0 {
            if batch.epoch <= inner.binding_epoch {
                return false;
            }
            inner.binding_epoch = batch.epoch;
        }
        for op in &batch.ops {
            inner.apply_binding_op(op);
        }
        true
    }

    /// Highest stamped binding-batch epoch applied so far.
    #[must_use]
    pub fn binding_epoch(&self) -> u64 {
        self.inner.borrow().binding_epoch
    }

    // ------------------------------------------------------------------
    // Channel plumbing
    // ------------------------------------------------------------------

    /// Registers a switch control channel by its outgoing sink. Returns the
    /// connection id used by the sink constructors below.
    pub fn attach_switch_channel(&self, to_switch: ByteSink, dpid: u64) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.conns.push(SwitchConn {
            to_switch,
            to_controller: None,
            dpid,
            pool: BufPool::default(),
        });
        inner.conns.len() - 1
    }

    /// The tracked installs currently in flight — sent to a switch but not
    /// yet barrier-acknowledged — as `(dpid, cookie, is_delete)` triples.
    /// An auditor capturing Table-0 state mid-traffic must treat these as
    /// expected transients, not drift: a pending *add* explains a cookie
    /// the snapshot is missing, a pending *delete* explains one it still
    /// shows. Order is unspecified.
    #[must_use]
    pub fn in_flight_installs(&self) -> Vec<(u64, u64, bool)> {
        let inner = self.inner.borrow();
        inner
            .pending_installs
            .iter()
            .map(|(&(conn, _), p)| (inner.conns[conn].dpid, p.cookie, p.is_delete))
            .collect()
    }

    /// Sets where allowed packet-ins and rewritten switch messages are
    /// forwarded for a connection.
    pub fn set_controller_sink(&self, conn: usize, to_controller: ByteSink) {
        self.inner.borrow_mut().conns[conn].to_controller = Some(to_controller);
    }

    /// The sink a switch sends its control bytes to (the proxy's
    /// switch-facing side).
    #[must_use]
    pub fn from_switch_sink(&self, conn: usize) -> ByteSink {
        let me = self.clone();
        Rc::new(move |sim, bytes| me.handle_switch_bytes(sim, conn, bytes))
    }

    /// The sink the controller sends its bytes to (the proxy's
    /// controller-facing side).
    #[must_use]
    pub fn from_controller_sink(&self, conn: usize) -> ByteSink {
        let me = self.clone();
        Rc::new(move |sim, bytes| me.handle_controller_bytes(sim, conn, bytes))
    }

    /// Convenience: interpose this shard between a switch and a
    /// controller, performing all wiring. This is the deployment step — the
    /// switch and the controller each believe they are talking directly to
    /// the other.
    ///
    /// `connect_controller` is the controller's connection entry point
    /// (e.g. `|sim, sink| controller.connect(sim, sink)`): it receives the
    /// sink the controller should write to (the proxy's controller-facing
    /// side) and returns the sink the proxy delivers switch traffic to.
    pub fn interpose(
        &self,
        sim: &mut Sim,
        switch: &Switch,
        connect_controller: impl FnOnce(&mut Sim, ByteSink) -> ByteSink,
    ) {
        let conn = self.attach_switch_channel(switch.control_ingress(), switch.dpid());
        switch.connect_control(sim, self.from_switch_sink(conn));
        let to_controller = connect_controller(sim, self.from_controller_sink(conn));
        self.set_controller_sink(conn, to_controller);
    }

    // ------------------------------------------------------------------
    // Proxy: switch → {PCP, controller}
    // ------------------------------------------------------------------

    fn handle_switch_bytes(&self, sim: &mut Sim, conn: usize, bytes: &[u8]) {
        const OFPT_PACKET_IN: u8 = 10;
        // First pass: count packet-in frames. Two or more in one read form
        // a burst, admitted as a single PCP job and classified against one
        // frozen snapshot in one `classify_batch` pass.
        let mut n_packet_ins = 0usize;
        let mut offset = 0;
        while offset < bytes.len() {
            let Some(len) = OfMessage::frame_length(&bytes[offset..]) else {
                break;
            };
            if len < 8 || offset + len > bytes.len() {
                break;
            }
            if bytes[offset + 1] == OFPT_PACKET_IN {
                n_packet_ins += 1;
            }
            offset += len;
        }
        let mut burst: Vec<(u32, PacketIn)> = Vec::new();
        let mut offset = 0;
        while offset < bytes.len() {
            let Some(len) = OfMessage::frame_length(&bytes[offset..]) else {
                break;
            };
            if len < 8 || offset + len > bytes.len() {
                break;
            }
            let frame = &bytes[offset..offset + len];
            if n_packet_ins >= 2 && frame[1] == OFPT_PACKET_IN {
                if let Ok(msg) = OfMessage::decode(frame) {
                    if let Message::PacketIn(pi) = msg.body {
                        burst.push((msg.xid, pi));
                    }
                }
            } else {
                self.handle_switch_frame(sim, conn, frame);
            }
            offset += len;
        }
        if !burst.is_empty() {
            let proxy_delay = {
                let mut inner = self.inner.borrow_mut();
                let d = inner.config.proxy_latency.sample(sim.rng());
                inner.metrics.proxy.push(d.as_secs_f64());
                d
            };
            let me = self.clone();
            sim.schedule_in(proxy_delay, move |sim| me.pcp_admit_burst(sim, conn, burst));
        }
    }

    fn handle_switch_frame(&self, sim: &mut Sim, conn: usize, frame: &[u8]) {
        const OFPT_PACKET_IN: u8 = 10;
        const OFPT_BARRIER_REPLY: u8 = 21;
        let proxy_delay = {
            let mut inner = self.inner.borrow_mut();
            let d = inner.config.proxy_latency.sample(sim.rng());
            inner.metrics.proxy.push(d.as_secs_f64());
            d
        };
        match frame[1] {
            // Packet-ins carry the flow decision: full decode is the point,
            // the PCP needs the parsed payload.
            OFPT_PACKET_IN => {
                let Ok(msg) = OfMessage::decode(frame) else {
                    return;
                };
                if let Message::PacketIn(pi) = msg.body {
                    let me = self.clone();
                    let xid = msg.xid;
                    sim.schedule_in(proxy_delay, move |sim| me.pcp_admit(sim, conn, xid, pi));
                }
            }
            // A barrier reply for one of our tracked Table-0 installs is
            // consumed here: the barrier was the proxy's, so the controller
            // never learns it existed. The xid sits at fixed offset 4..8 —
            // no decode needed to check.
            OFPT_BARRIER_REPLY
                if frame.len() == 8
                    && self.consume_install_ack(
                        conn,
                        u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]),
                    ) => {}
            // Everything else flows to the controller through the
            // table-rewriting filter, spliced in place when the frame is
            // canonical.
            _ => {
                let (sink, pool) = {
                    let inner = self.inner.borrow();
                    let Some(sink) = inner.conns[conn].to_controller.clone() else {
                        return;
                    };
                    (sink, inner.conns[conn].pool.clone())
                };
                let mut buf = pool.acquire();
                buf.extend_from_slice(frame);
                match rewrite_switch_frame_in_place(&mut buf) {
                    SwitchFrame::Forward { spliced } => {
                        self.record(|m| {
                            if spliced {
                                m.frames_spliced += 1;
                            } else {
                                m.frames_fallback += 1;
                            }
                        });
                        sim.schedule_in(proxy_delay, move |sim| {
                            sink(sim, &buf);
                            pool.release(buf);
                        });
                    }
                    // Suppressed (Table-0 information) or undecodable.
                    SwitchFrame::Suppress | SwitchFrame::Drop => pool.release(buf),
                }
            }
        }
    }

    /// Removes a pending tracked install acknowledged by a barrier reply,
    /// returning its wire buffer to the connection's pool. Returns whether
    /// the `(conn, xid)` pair was actually ours.
    fn consume_install_ack(&self, conn: usize, xid: u32) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.pending_installs.remove(&(conn, xid)) {
            Some(pending) => {
                inner.conns[conn].pool.release(pending.bytes);
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Tracked rule installs (retry/backoff over lossy channels)
    // ------------------------------------------------------------------

    /// Sends a Table-0 flow-mod paired with a barrier request under one
    /// fresh transaction id and tracks it until the switch's barrier reply
    /// comes back. A missing acknowledgement (install dropped or corrupted
    /// on a faulty channel) triggers a bounded, doubling-backoff resend;
    /// exhausting the budget abandons the install and counts an
    /// `install_failures`.
    ///
    /// This is the liveness half of the fail-closed argument. Safety never
    /// depends on an install arriving: a lost Deny rule leaves the flow
    /// punting (and re-denied on every punt), a lost Allow rule leaves the
    /// flow dropped at the table-miss default — both fail closed. The
    /// retry loop only restores the *intended* state once the channel
    /// heals. Resends are idempotent: flow-mod adds overwrite in place and
    /// deletes of absent rules are no-ops.
    fn send_tracked_install(&self, sim: &mut Sim, conn: usize, fm: FlowMod, send_delay: Duration) {
        let (xid, backoff) = {
            let mut inner = self.inner.borrow_mut();
            let xid = inner.next_xid;
            inner.next_xid = inner.next_xid.wrapping_add(1);
            let cookie = fm.cookie;
            let is_delete = matches!(
                fm.command,
                dfi_openflow::FlowModCommand::Delete | dfi_openflow::FlowModCommand::DeleteStrict
            );
            // The flow-mod and its barrier are framed back-to-back into one
            // pooled buffer: a single batched write per install, returned to
            // the pool when the barrier reply lands.
            let mut bytes = inner.conns[conn].pool.acquire();
            OfMessage::new(xid, Message::FlowMod(fm)).encode_into(&mut bytes);
            OfMessage::new(xid, Message::BarrierRequest).encode_into(&mut bytes);
            inner.metrics.flow_mods_batched += 1;
            inner.pending_installs.insert(
                (conn, xid),
                PendingInstall {
                    bytes,
                    attempts: 1,
                    cookie,
                    is_delete,
                },
            );
            (xid, inner.config.install_retry_backoff)
        };
        self.tracked_send(sim, conn, xid, send_delay, backoff);
    }

    /// One transmission of a pending install plus its acknowledgement
    /// check, both on the deterministic clock. The transmission copy rides
    /// a second pooled buffer (the pending master must survive for
    /// resends), released as soon as the sink has consumed it.
    fn tracked_send(
        &self,
        sim: &mut Sim,
        conn: usize,
        xid: u32,
        send_delay: Duration,
        ack_wait: Duration,
    ) {
        let (buf, to_switch, pool) = {
            let inner = self.inner.borrow();
            let Some(pending) = inner.pending_installs.get(&(conn, xid)) else {
                return; // acknowledged before this resend fired
            };
            let pool = inner.conns[conn].pool.clone();
            let mut buf = pool.acquire();
            buf.extend_from_slice(&pending.bytes);
            (buf, inner.conns[conn].to_switch.clone(), pool)
        };
        sim.schedule_in(send_delay, move |sim| {
            to_switch(sim, &buf);
            pool.release(buf);
        });
        let me = self.clone();
        sim.schedule_in(send_delay + ack_wait, move |sim| {
            me.check_install_ack(sim, conn, xid, ack_wait);
        });
    }

    fn check_install_ack(&self, sim: &mut Sim, conn: usize, xid: u32, ack_wait: Duration) {
        let resend_delay = {
            let mut inner = self.inner.borrow_mut();
            let retry_budget = inner.config.install_retries;
            let install_latency = inner.config.install_latency;
            match inner.pending_installs.get_mut(&(conn, xid)) {
                None => None, // barrier reply arrived: done
                Some(pending) if pending.attempts > retry_budget => {
                    inner.metrics.install_failures += 1;
                    if let Some(pending) = inner.pending_installs.remove(&(conn, xid)) {
                        inner.conns[conn].pool.release(pending.bytes);
                    }
                    None
                }
                Some(pending) => {
                    pending.attempts += 1;
                    inner.metrics.install_retries += 1;
                    Some(install_latency)
                }
            }
        };
        if let Some(delay) = resend_delay {
            self.tracked_send(sim, conn, xid, delay, ack_wait * 2);
        }
    }

    // ------------------------------------------------------------------
    // Proxy: controller → switch
    // ------------------------------------------------------------------

    fn handle_controller_bytes(&self, sim: &mut Sim, conn: usize, bytes: &[u8]) {
        let mut offset = 0;
        while offset < bytes.len() {
            let Some(len) = OfMessage::frame_length(&bytes[offset..]) else {
                break;
            };
            if len < 8 || offset + len > bytes.len() {
                break;
            }
            self.handle_controller_frame(sim, conn, &bytes[offset..offset + len]);
            offset += len;
        }
    }

    fn handle_controller_frame(&self, sim: &mut Sim, conn: usize, frame: &[u8]) {
        let (proxy_delay, n_tables, pool) = {
            let mut inner = self.inner.borrow_mut();
            let d = inner.config.proxy_latency.sample(sim.rng());
            inner.metrics.proxy.push(d.as_secs_f64());
            (d, inner.config.n_tables, inner.conns[conn].pool.clone())
        };
        let xid = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let mut buf = pool.acquire();
        buf.extend_from_slice(frame);
        match rewrite_controller_frame_in_place(&mut buf, n_tables) {
            ControllerFrame::Forward { spliced } => {
                self.record(|m| {
                    if spliced {
                        m.frames_spliced += 1;
                    } else {
                        m.frames_fallback += 1;
                    }
                });
                let sink = self.inner.borrow().conns[conn].to_switch.clone();
                sim.schedule_in(proxy_delay, move |sim| {
                    sink(sim, &buf);
                    pool.release(buf);
                });
            }
            ControllerFrame::Reject => {
                self.record(|m| m.proxy_rejections += 1);
                let sink = self.inner.borrow().conns[conn].to_controller.clone();
                if let Some(sink) = sink {
                    buf.clear();
                    OfMessage::new(xid, Message::Error(ErrorMsg::permission_denied(Vec::new())))
                        .encode_into(&mut buf);
                    sim.schedule_in(proxy_delay, move |sim| {
                        sink(sim, &buf);
                        pool.release(buf);
                    });
                } else {
                    pool.release(buf);
                }
            }
            // Undecodable frames are dropped, as before.
            ControllerFrame::Drop => pool.release(buf),
        }
    }

    // ------------------------------------------------------------------
    // The Policy Compilation Point pipeline
    // ------------------------------------------------------------------

    fn pcp_admit(&self, sim: &mut Sim, conn: usize, xid: u32, pi: PacketIn) {
        let arrival = sim.now();
        self.inner.borrow_mut().metrics.packet_ins += 1;
        let me = self.clone();
        let outcome = self.pcp_station.submit(sim, move |sim| {
            let t_pcp_done = sim.now();
            me.record(|m| m.pcp_other.push((t_pcp_done - arrival).as_secs_f64()));
            let me2 = me.clone();
            let outcome = me.binding_station.submit(sim, move |sim| {
                let t_binding_done = sim.now();
                me2.record(|m| m.binding.push((t_binding_done - t_pcp_done).as_secs_f64()));
                let me3 = me2.clone();
                let outcome = me2.policy_station.submit(sim, move |sim| {
                    let t_policy_done = sim.now();
                    me3.record(|m| {
                        m.policy
                            .push((t_policy_done - t_binding_done).as_secs_f64());
                    });
                    me3.pcp_decide(sim, conn, xid, &pi, arrival);
                });
                if outcome == SubmitOutcome::Dropped {
                    me2.record(|m| m.dropped += 1);
                }
            });
            if outcome == SubmitOutcome::Dropped {
                me.record(|m| m.dropped += 1);
            }
        });
        if outcome == SubmitOutcome::Dropped {
            self.record(|m| m.dropped += 1);
        }
    }

    /// Admits a packet-in burst as **one** job through the PCP and
    /// database stations (the batch pays each stage's latency once), then
    /// decides every flow in a single batched pass.
    fn pcp_admit_burst(&self, sim: &mut Sim, conn: usize, pis: Vec<(u32, PacketIn)>) {
        let arrival = sim.now();
        let n = pis.len() as u64;
        {
            let mut inner = self.inner.borrow_mut();
            inner.metrics.packet_ins += n;
            inner.metrics.packet_in_bursts += 1;
        }
        let me = self.clone();
        let outcome = self.pcp_station.submit(sim, move |sim| {
            let t_pcp_done = sim.now();
            me.record(|m| m.pcp_other.push((t_pcp_done - arrival).as_secs_f64()));
            let me2 = me.clone();
            let outcome = me.binding_station.submit(sim, move |sim| {
                let t_binding_done = sim.now();
                me2.record(|m| m.binding.push((t_binding_done - t_pcp_done).as_secs_f64()));
                let me3 = me2.clone();
                let outcome = me2.policy_station.submit(sim, move |sim| {
                    let t_policy_done = sim.now();
                    me3.record(|m| {
                        m.policy
                            .push((t_policy_done - t_binding_done).as_secs_f64());
                    });
                    me3.pcp_decide_burst(sim, conn, &pis, arrival);
                });
                if outcome == SubmitOutcome::Dropped {
                    me2.record(|m| m.dropped += n);
                }
            });
            if outcome == SubmitOutcome::Dropped {
                me.record(|m| m.dropped += n);
            }
        });
        if outcome == SubmitOutcome::Dropped {
            self.record(|m| m.dropped += n);
        }
    }

    /// Decides a whole packet-in burst: per-flow admission (MAC re-bind,
    /// anti-spoofing, memo probe) under one borrow, then **one**
    /// [`PolicySnapshot::classify_batch`] pass over every memo miss against
    /// one frozen snapshot — no torn reads across the burst — feeding the
    /// per-flow batched FlowMod‖Barrier installs. The burst path always
    /// compiles exact-match rules; port-class widening stays on the
    /// single-flow path.
    fn pcp_decide_burst(
        &self,
        sim: &mut Sim,
        conn: usize,
        pis: &[(u32, PacketIn)],
        arrival: SimTime,
    ) {
        struct Planned {
            pi_index: usize,
            decision: Decision,
            mat: Match,
        }
        let mut planned: Vec<Planned> = Vec::with_capacity(pis.len());
        {
            let mut inner = self.inner.borrow_mut();
            let dpid = inner.conns[conn].dpid;
            let snap = Arc::clone(&inner.snapshot);
            let mut flows: Vec<FlowView> = Vec::new();
            let mut pending: Vec<(usize, FlowKey, Match)> = Vec::new();
            for (i, (_, pi)) in pis.iter().enumerate() {
                let Some(in_port) = pi.in_port() else {
                    continue;
                };
                let Ok(headers) = dfi_packet::PacketHeaders::parse(&pi.data) else {
                    continue;
                };
                if inner.erm.bind(Binding::MacLocation {
                    mac: headers.eth_src,
                    dpid,
                    port: in_port,
                }) {
                    inner.cache.invalidate_mac(headers.eth_src);
                }
                let mat = Match::exact_from_headers(in_port, &headers);
                if inner.erm.spoof_check(headers.ipv4_src, headers.eth_src)
                    == SpoofVerdict::IpMacMismatch
                {
                    inner.metrics.spoof_denied += 1;
                    inner.default_deny_cached = true;
                    planned.push(Planned {
                        pi_index: i,
                        decision: Decision {
                            action: PolicyAction::Deny,
                            policy: DEFAULT_DENY_ID,
                        },
                        mat,
                    });
                    continue;
                }
                let key = FlowKey::new(&headers, dpid, in_port);
                if let Some(hit) = inner.cache.lookup(&key) {
                    let mut mat = mat;
                    if hit.widened {
                        mat.tcp_src = None;
                        mat.tcp_dst = None;
                        mat.udp_src = None;
                        mat.udp_dst = None;
                        inner.metrics.wildcard_cached += 1;
                    }
                    planned.push(Planned {
                        pi_index: i,
                        decision: hit.decision,
                        mat,
                    });
                } else {
                    let (src, dst) = inner.erm.resolve_flow(&headers, dpid, in_port);
                    flows.push(FlowView {
                        ethertype: headers.ethertype.to_u16(),
                        ip_proto: headers.ip_proto.map(|p| p.0),
                        src,
                        dst,
                    });
                    pending.push((i, key, mat));
                }
            }
            let mut decisions = Vec::with_capacity(flows.len());
            snap.classify_batch(&flows, &mut decisions);
            inner.metrics.burst_flows_classified += decisions.len() as u64;
            for ((i, key, mat), decision) in pending.into_iter().zip(decisions) {
                if decision.policy == DEFAULT_DENY_ID {
                    inner.default_deny_cached = true;
                }
                inner
                    .cache
                    .insert(key, decision.clone(), false, snap.epoch());
                planned.push(Planned {
                    pi_index: i,
                    decision,
                    mat,
                });
            }
        }
        // Install and forward in arrival order (memo hits and batch
        // results interleave above).
        planned.sort_by_key(|p| p.pi_index);
        let (rule_priority, install_latency) = {
            let inner = self.inner.borrow();
            (inner.config.rule_priority, inner.config.install_latency)
        };
        for p in planned {
            self.record(|m| {
                *m.decisions_by_policy
                    .entry(p.decision.policy.0)
                    .or_insert(0) += 1;
            });
            let fm = FlowMod {
                cookie: p.decision.policy.0,
                table_id: 0,
                priority: rule_priority,
                mat: p.mat,
                instructions: match p.decision.action {
                    PolicyAction::Allow => vec![Instruction::GotoTable(1)],
                    PolicyAction::Deny => vec![],
                },
                ..FlowMod::add()
            };
            self.send_tracked_install(sim, conn, fm, install_latency);
            match p.decision.action {
                PolicyAction::Allow => {
                    self.record(|m| m.allowed += 1);
                    let (sink, pool) = {
                        let inner = self.inner.borrow();
                        (
                            inner.conns[conn].to_controller.clone(),
                            inner.conns[conn].pool.clone(),
                        )
                    };
                    if let Some(sink) = sink {
                        let (xid, pi) = &pis[p.pi_index];
                        if let Some(rewritten) = rewrite_switch_to_controller(OfMessage::new(
                            *xid,
                            Message::PacketIn(pi.clone()),
                        )) {
                            let mut bytes = pool.acquire();
                            rewritten.encode_into(&mut bytes);
                            sim.schedule_now(move |sim| {
                                sink(sim, &bytes);
                                pool.release(bytes);
                            });
                        }
                    }
                }
                PolicyAction::Deny => {
                    self.record(|m| m.denied += 1);
                }
            }
            let done = sim.now();
            self.record(|m| m.overall.push((done - arrival).as_secs_f64()));
        }
    }

    fn record(&self, f: impl FnOnce(&mut DfiMetrics)) {
        f(&mut self.inner.borrow_mut().metrics);
    }

    /// The access-control decision: executed once the flow has traversed
    /// the PCP and both database stations (i.e. all modeled latency paid).
    fn pcp_decide(&self, sim: &mut Sim, conn: usize, xid: u32, pi: &PacketIn, arrival: SimTime) {
        let Some(in_port) = pi.in_port() else { return };
        let Ok(headers) = dfi_packet::PacketHeaders::parse(&pi.data) else {
            return;
        };
        let (decision, mat) = {
            let mut inner = self.inner.borrow_mut();
            let dpid = inner.conns[conn].dpid;
            // The MAC↔switch/port sensor lives in the PCP: packet-in
            // events are its authoritative source. An *effective* change
            // (host appeared or moved) stales any decision that resolved a
            // location for this MAC; the steady-state per-packet re-bind
            // is a no-op and invalidates nothing.
            if inner.erm.bind(Binding::MacLocation {
                mac: headers.eth_src,
                dpid,
                port: in_port,
            }) {
                inner.cache.invalidate_mac(headers.eth_src);
            }
            // Anti-spoofing: identifiers at all levels must be mutually
            // consistent before any policy lookup. Runs on every packet —
            // spoofed traffic must never ride a cached decision — but it
            // is a single index probe.
            if inner.erm.spoof_check(headers.ipv4_src, headers.eth_src)
                == SpoofVerdict::IpMacMismatch
            {
                inner.metrics.spoof_denied += 1;
                // The drop rule below is installed under cookie 0 without
                // a policy query: note it DFI-side (the hot path never
                // touches the Policy Manager) so the next conflicting
                // Allow insert flushes it.
                inner.default_deny_cached = true;
                let decision = Decision {
                    action: PolicyAction::Deny,
                    policy: DEFAULT_DENY_ID,
                };
                let mat = Match::exact_from_headers(in_port, &headers);
                (decision, mat)
            } else {
                let key = FlowKey::new(&headers, dpid, in_port);
                let mut mat = Match::exact_from_headers(in_port, &headers);
                let cached = inner.cache.lookup(&key);
                let (decision, widened) = match cached {
                    // Memo hit: skip entity resolution and the policy
                    // query (the simulated station latency was already
                    // paid on the way here, so the service-time model is
                    // unaffected).
                    Some(hit) => (hit.decision, hit.widened),
                    None => {
                        let (src, dst) = inner.erm.resolve_flow(&headers, dpid, in_port);
                        let flow = FlowView {
                            ethertype: headers.ethertype.to_u16(),
                            ip_proto: headers.ip_proto.map(|p| p.0),
                            src,
                            dst,
                        };
                        // The decision reads only the published immutable
                        // snapshot — no lock, no `&mut PolicyManager`, no
                        // allocation. Arbitration is bit-identical to
                        // `pm.query`/`pm.query_class` (proptest-proven).
                        let snap = Arc::clone(&inner.snapshot);
                        let (decision, widened) = if inner.config.wildcard_caching {
                            match snap.classify_class(&flow) {
                                Some(decision) => (decision, true),
                                None => (snap.classify(&flow), false),
                            }
                        } else {
                            (snap.classify(&flow), false)
                        };
                        if decision.policy == DEFAULT_DENY_ID {
                            inner.default_deny_cached = true;
                        }
                        inner
                            .cache
                            .insert(key, decision.clone(), widened, snap.epoch());
                        (decision, widened)
                    }
                };
                if widened {
                    // Safe to cache the whole port class: widen the
                    // compiled rule by dropping the L4 ports.
                    mat.tcp_src = None;
                    mat.tcp_dst = None;
                    mat.udp_src = None;
                    mat.udp_dst = None;
                    inner.metrics.wildcard_cached += 1;
                }
                (decision, mat)
            }
        };
        self.record(|m| {
            *m.decisions_by_policy.entry(decision.policy.0).or_insert(0) += 1;
        });
        // Compile the exact-match rule: Allow chains into the controller's
        // tables; Deny has no instructions (drop at end of Table 0).
        let (rule_priority, install_latency) = {
            let inner = self.inner.borrow();
            (inner.config.rule_priority, inner.config.install_latency)
        };
        let fm = FlowMod {
            cookie: decision.policy.0,
            table_id: 0,
            priority: rule_priority,
            mat,
            instructions: match decision.action {
                PolicyAction::Allow => vec![Instruction::GotoTable(1)],
                PolicyAction::Deny => vec![],
            },
            ..FlowMod::add()
        };
        self.send_tracked_install(sim, conn, fm, install_latency);

        match decision.action {
            PolicyAction::Allow => {
                self.record(|m| m.allowed += 1);
                // Forward the packet-in to the controller (step 11 in the
                // paper's workflow) so routing can happen — only now, after
                // the access-control check.
                let (sink, pool) = {
                    let inner = self.inner.borrow();
                    (
                        inner.conns[conn].to_controller.clone(),
                        inner.conns[conn].pool.clone(),
                    )
                };
                if let Some(sink) = sink {
                    if let Some(rewritten) = rewrite_switch_to_controller(OfMessage::new(
                        xid,
                        Message::PacketIn(pi.clone()),
                    )) {
                        let mut bytes = pool.acquire();
                        rewritten.encode_into(&mut bytes);
                        sim.schedule_now(move |sim| {
                            sink(sim, &bytes);
                            pool.release(bytes);
                        });
                    }
                }
            }
            PolicyAction::Deny => {
                self.record(|m| m.denied += 1);
            }
        }
        let done = sim.now();
        self.record(|m| m.overall.push((done - arrival).as_secs_f64()));
    }

    // ------------------------------------------------------------------
    // The shard's side of its link to the control front
    // ------------------------------------------------------------------

    /// Serves `snapshot` from now on. A `recovery` publication (the first
    /// after the gate refused) also expires every memoized decision older
    /// than the snapshot: the precise per-policy flushes could not cover
    /// the decisions made under the stale snapshot.
    pub(crate) fn install(&self, snapshot: Arc<PolicySnapshot>, recovery: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.metrics.snapshots_published += 1;
        if recovery {
            inner.cache.expire_before(snapshot.epoch());
        }
        inner.snapshot = snapshot;
    }

    /// Takes (and clears) the hot path's default-deny note.
    pub(crate) fn take_default_deny_note(&self) -> bool {
        std::mem::take(&mut self.inner.borrow_mut().default_deny_cached)
    }

    /// Drops the memoized decisions attributed to `id` and sends a
    /// delete-by-cookie to every switch this shard owns — one policy's
    /// share of a flush fan-out.
    pub(crate) fn flush_policy(&self, sim: &mut Sim, id: PolicyId) {
        let (n_conns, delay) = {
            let mut inner = self.inner.borrow_mut();
            inner.metrics.flushes += 1;
            inner.cache.invalidate_policy(id);
            inner.cancel_pending_adds(id.0, None);
            let delay = inner.config.bus_latency.sample(sim.rng()) + inner.config.install_latency;
            (inner.conns.len(), delay)
        };
        for conn in 0..n_conns {
            let fm = FlowMod::delete_by_cookie(id.0, u64::MAX);
            self.send_tracked_install(sim, conn, fm, delay);
        }
    }

    /// Runs one switch-targeted repair step on the switch it names:
    /// `RePunt` is [`DataShard::flush_cookie_on`], `InstallExact` is
    /// [`DataShard::install_exact`]. Other steps are the front's.
    pub(crate) fn switch_step(&self, sim: &mut Sim, step: &RepairStepData) {
        match step {
            RepairStepData::RePunt { dpid, cookie } => {
                self.flush_cookie_on(sim, *dpid, *cookie);
            }
            RepairStepData::InstallExact {
                dpid,
                mat,
                priority,
                cookie,
                allow,
            } => {
                self.install_exact(sim, *dpid, mat.clone(), *priority, *cookie, *allow);
            }
            _ => {}
        }
    }

    /// The snapshot this shard currently decides against.
    #[must_use]
    pub fn snapshot(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.inner.borrow().snapshot)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of metrics, including live index/cache statistics.
    #[must_use]
    pub fn metrics(&self) -> DfiMetrics {
        let inner = self.inner.borrow();
        let mut m = inner.metrics.clone();
        m.decision_cache_hits = inner.cache.hits;
        m.decision_cache_misses = inner.cache.misses;
        m.decision_cache_invalidations = inner.cache.invalidations;
        m.decision_cache_entries = inner.cache.len() as u64;
        for conn in &inner.conns {
            let (reused, minted) = conn.pool.stats();
            m.pool_reused += reused;
            m.pool_minted += minted;
        }
        m.erm_index = inner.erm.index_sizes();
        m.snapshot_epoch = inner.snapshot.epoch();
        m.snapshot_rules = inner.snapshot.rule_count() as u64;
        m
    }

    /// Runs a closure against this shard's Entity Resolution Manager
    /// replica (tests, harnesses, and direct-wired sensors).
    pub fn with_erm<R>(&self, f: impl FnOnce(&mut EntityResolver) -> R) -> R {
        f(&mut self.inner.borrow_mut().erm)
    }

    /// Per-station statistics: (pcp, binding-db, policy-db).
    #[must_use]
    pub fn station_stats(
        &self,
    ) -> (
        dfi_simnet::StationStats,
        dfi_simnet::StationStats,
        dfi_simnet::StationStats,
    ) {
        (
            self.pcp_station.stats(),
            self.binding_station.stats(),
            self.policy_station.stats(),
        )
    }

    // ------------------------------------------------------------------
    // Targeted switch operations (repair plans)
    // ------------------------------------------------------------------

    /// Sends a delete-by-cookie to the one switch `dpid` — the targeted
    /// half of a repair plan (a network-wide flush is the front's
    /// `flush_policy_rules`): the switch drops its cached rules for the
    /// cookie and the flow's next packet punts for a fresh verdict.
    /// Memoized decisions for the cookie's policy are invalidated so the
    /// re-punt is actually re-decided. Returns `false` when no switch this
    /// shard owns has that dpid.
    pub fn flush_cookie_on(&self, sim: &mut Sim, dpid: u64, cookie: u64) -> bool {
        let (conn, delay) = {
            let mut inner = self.inner.borrow_mut();
            let Some(conn) = inner.conns.iter().position(|c| c.dpid == dpid) else {
                return false;
            };
            inner.metrics.flushes += 1;
            inner.cache.invalidate_policy(PolicyId(cookie));
            inner.cancel_pending_adds(cookie, Some(conn));
            let delay = inner.config.bus_latency.sample(sim.rng()) + inner.config.install_latency;
            (conn, delay)
        };
        let fm = FlowMod::delete_by_cookie(cookie, u64::MAX);
        self.send_tracked_install(sim, conn, fm, delay);
        true
    }

    /// Installs one exact-match Table-0 rule on `dpid` through the
    /// tracked-install path (barrier-acked, retried): the install half of
    /// a repair plan, e.g. re-pinning a flow through a mandated waypoint.
    /// `allow` compiles to the canonical `GotoTable(1)` instruction, deny
    /// to an empty instruction list. Returns `false` when no switch this
    /// shard owns has that dpid.
    pub fn install_exact(
        &self,
        sim: &mut Sim,
        dpid: u64,
        mat: Match,
        priority: u16,
        cookie: u64,
        allow: bool,
    ) -> bool {
        let (conn, delay) = {
            let inner = self.inner.borrow();
            let Some(conn) = inner.conns.iter().position(|c| c.dpid == dpid) else {
                return false;
            };
            let delay = inner.config.bus_latency.sample(sim.rng()) + inner.config.install_latency;
            (conn, delay)
        };
        let fm = FlowMod {
            cookie,
            table_id: 0,
            priority,
            mat,
            instructions: if allow {
                vec![Instruction::GotoTable(1)]
            } else {
                vec![]
            },
            ..FlowMod::add()
        };
        self.send_tracked_install(sim, conn, fm, delay);
        true
    }
}
