//! The Policy Manager: the store of current global policy.
//!
//! Paper §III-B: "The Policy Manager receives policy rules and revocations
//! from PDPs, performs consistency checks, and stores the current global
//! policy." Its two consistency duties are implemented here:
//!
//! 1. **Insert-time conflict detection** — a newly inserted rule conflicts
//!    with an existing rule when (a) the rules overlap field-by-field,
//!    (b) their actions differ, and (c) the new rule now outranks the
//!    existing one under arbitration: the existing rule's priority is
//!    lower, **or** the priorities are equal and the new rule is a Deny
//!    (equal-priority arbitration prefers Deny, so an existing Allow's
//!    cached flow rules just became stale). Flow rules derived from the
//!    conflicting (existing) policies must be flushed from the switches so
//!    ongoing flows are re-evaluated; the policies themselves stay in the
//!    database.
//! 2. **Revocation** — removing a policy also flushes its derived flow
//!    rules.
//!
//! A PDP event that writes several rules hands them over as one
//! [`PolicyManager::commit`]: the mutations apply in order, exactly as
//! the single-mutation methods would, and the commit returns the new ids
//! plus the union of their flush lists, so the control plane certifies,
//! compiles and publishes the whole batch once.
//!
//! The manager itself is pure logic; the surrounding control plane
//! (`crate::Dfi`) models its MySQL query latency with a queueing station.
//!
//! # Lookup performance
//!
//! `query`/`query_class` run on every packet-in, so they must not scan the
//! whole rule table. The store keeps, besides the id-keyed `rules` map, a
//! **bucket index**: each rule is filed under its most selective pinned
//! endpoint identifier (precedence: dst username → dst hostname → dst IP →
//! src username → src hostname → src IP; rules pinning none of those land
//! in a catch-all *scan* bucket). Each bucket is a small vec of
//! `(priority, id)` entries kept sorted by `(priority desc, id asc)`.
//!
//! A query probes only the buckets named by the flow's own identifiers
//! (each bound username/hostname plus the packet IPs, plus the scan
//! bucket), k-way-merges them in `(priority desc, id asc)` order, and
//! stops at the end of the first priority group containing a match —
//! candidate rules below the winning priority are never touched. With
//! selective policies this makes a decision O(candidates in the matching
//! buckets' top priority groups), independent of total rule count; the
//! worst case (every rule endpoint-wildcarded) degenerates to the scan
//! bucket, i.e. exactly the old linear scan.
//!
//! Arbitration semantics are **bit-identical** to a linear scan in id
//! order: highest priority wins; within a priority group the first Deny in
//! id order beats any Allow; otherwise the first match in id order wins;
//! no match → default deny. [`PolicyManager::query_linear`] /
//! [`PolicyManager::query_class_linear`] keep the original scans as
//! reference models; `tests/proptest_policy.rs` proves equivalence on
//! random rule sets, and `micro_hotpaths.rs` benches the two side by side.
//!
//! Insert-time conflict detection remains a deliberate linear pass: it
//! runs per *policy change* (rare), not per packet, and must consider
//! every stored rule anyway.

use crate::policy::model::{FlowView, PolicyAction, PolicyRule, Wild, WildName};
use crate::policy::PolicySnapshot;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// `true` when `rule` admits `flow`'s identifiers with L4 ports ignored —
/// i.e. the rule could match some member of the flow's port-wildcard class.
/// Substituting each side's *lowest* admitted port keeps this exact for
/// interval pins too (any admitted port would do).
fn rule_admits_ignoring_ports(rule: &PolicyRule, flow: &FlowView) -> bool {
    let mut portless = flow.clone();
    portless.src.port = rule.src.port.low();
    portless.dst.port = rule.dst.port.low();
    rule.matches(&portless)
}

/// `true` when `rule` constrains an L4 port on either side.
fn rule_pins_a_port(rule: &PolicyRule) -> bool {
    rule.src.port != Wild::Any || rule.dst.port != Wild::Any
}

/// Identifier of a stored policy rule; doubles as the OpenFlow cookie on
/// every flow rule compiled from that policy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PolicyId(pub u64);

/// The reserved id of the built-in default-deny policy.
///
/// Paper: "in the absence of any matching policy rule, DFI is configured to
/// deny a flow by default." Default-deny decisions also compile to cached
/// flow rules, so they need a cookie — and, like any policy, they must be
/// flushed when a higher-priority allow arrives (otherwise a cached deny
/// would keep blocking a newly authorized flow).
pub const DEFAULT_DENY_ID: PolicyId = PolicyId(0);

/// A stored rule with its provenance.
#[derive(Clone, Debug)]
pub struct StoredPolicy {
    /// The id (and flow-rule cookie).
    pub id: PolicyId,
    /// The rule.
    pub rule: PolicyRule,
    /// Priority inherited from the emitting PDP (higher wins).
    pub priority: u32,
    /// Name of the emitting PDP (diagnostics).
    pub pdp: String,
}

/// One observed mutation of the policy store, as recorded by the delta
/// journal (see [`PolicyManager::enable_delta_journal`]). Consumers such as
/// the incremental analyzer pull these with [`PolicyManager::take_deltas`]
/// and re-check only the rules the change can affect.
#[derive(Clone, Debug)]
pub enum PolicyDelta {
    /// A rule was inserted (carries the stored form, new priority included).
    Inserted(StoredPolicy),
    /// A rule was revoked (carries the last stored form).
    Revoked(StoredPolicy),
    /// A rule's priority changed in place; `policy` carries the *new*
    /// priority.
    ReRanked {
        /// The stored policy after the change.
        policy: StoredPolicy,
        /// The priority it had before.
        old_priority: u32,
    },
}

/// One mutation of a policy commit (see [`PolicyManager::commit`]).
#[derive(Clone, Debug)]
pub enum PolicyMutation {
    /// Insert a rule on behalf of a PDP.
    Insert {
        /// The rule (boxed: it dwarfs the other variants).
        rule: Box<PolicyRule>,
        /// Priority inherited from the emitting PDP.
        priority: u32,
        /// Name of the emitting PDP.
        pdp: String,
    },
    /// Revoke a stored rule; an unknown id is skipped.
    Revoke(PolicyId),
    /// Change a stored rule's priority in place; an unknown id is skipped.
    ReRank {
        /// The rule to re-rank.
        id: PolicyId,
        /// Its new priority.
        priority: u32,
    },
    /// Rewrite the store to a retained snapshot's rule set (rollback).
    Restore(Arc<PolicySnapshot>),
}

impl PolicyMutation {
    /// A [`PolicyMutation::Insert`].
    #[must_use]
    pub fn insert(rule: PolicyRule, priority: u32, pdp: &str) -> PolicyMutation {
        PolicyMutation::Insert {
            rule: Box::new(rule),
            priority,
            pdp: pdp.to_string(),
        }
    }

    /// `true` for a [`PolicyMutation::Insert`] — the mutations that
    /// consume the hot path's default-deny note.
    #[must_use]
    pub fn is_insert(&self) -> bool {
        matches!(self, PolicyMutation::Insert { .. })
    }
}

/// What one [`PolicyManager::commit`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The ids of the inserted rules, in mutation order.
    pub inserted: Vec<PolicyId>,
    /// Sorted, de-duplicated union of every mutation's flush list: the
    /// cookies whose derived flow rules must leave the switches.
    pub flush: Vec<PolicyId>,
    /// Mutations that found their target (inserts and restores always
    /// do; a revoke or re-rank of an unknown id does not).
    pub applied: usize,
}

/// The verdict for one flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Allow or deny.
    pub action: PolicyAction,
    /// The policy that decided (`DEFAULT_DENY_ID` when nothing matched).
    pub policy: PolicyId,
}

/// The bucket a rule is filed under: its most selective pinned endpoint
/// identifier. Name keys are lowercased because name matching is ASCII
/// case-insensitive.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum BucketKey {
    DstUser(String),
    DstHost(String),
    DstIp(Ipv4Addr),
    SrcUser(String),
    SrcHost(String),
    SrcIp(Ipv4Addr),
    /// No user/host/IP pinned on either side: always a query candidate.
    Scan,
}

fn name_key(name: &WildName) -> Option<String> {
    match name {
        WildName::Any => None,
        WildName::Is(s) => Some(s.to_ascii_lowercase()),
    }
}

fn bucket_key(rule: &PolicyRule) -> BucketKey {
    if let Some(u) = name_key(&rule.dst.username) {
        BucketKey::DstUser(u)
    } else if let Some(h) = name_key(&rule.dst.hostname) {
        BucketKey::DstHost(h)
    } else if let Some(ip) = rule.dst.ip.value() {
        BucketKey::DstIp(ip)
    } else if let Some(u) = name_key(&rule.src.username) {
        BucketKey::SrcUser(u)
    } else if let Some(h) = name_key(&rule.src.hostname) {
        BucketKey::SrcHost(h)
    } else if let Some(ip) = rule.src.ip.value() {
        BucketKey::SrcIp(ip)
    } else {
        BucketKey::Scan
    }
}

/// One bucket entry; buckets are sorted by `(priority desc, id asc)`.
type BucketEntry = (u32, PolicyId);

fn entry_key(e: &BucketEntry) -> (Reverse<u32>, PolicyId) {
    (Reverse(e.0), e.1)
}

/// K-way merge over pre-sorted bucket slices, yielding entries in
/// `(priority desc, id asc)` order. The candidate set is small (one bucket
/// per flow identifier plus the scan bucket), so a linear min over cursor
/// heads beats a heap.
struct MergedCandidates<'a> {
    cursors: Vec<&'a [BucketEntry]>,
}

impl Iterator for MergedCandidates<'_> {
    type Item = BucketEntry;

    fn next(&mut self) -> Option<BucketEntry> {
        let mut best: Option<(usize, BucketEntry)> = None;
        for (i, cursor) in self.cursors.iter().enumerate() {
            if let Some(&head) = cursor.first() {
                if best.is_none_or(|(_, b)| entry_key(&head) < entry_key(&b)) {
                    best = Some((i, head));
                }
            }
        }
        let (i, entry) = best?;
        self.cursors[i] = &self.cursors[i][1..];
        Some(entry)
    }
}

/// Observability snapshot of the bucket index (printed by the bench
/// harness summaries).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyIndexStats {
    /// Stored rules.
    pub rules: usize,
    /// Live buckets (including the scan bucket when non-empty).
    pub buckets: usize,
    /// Rules in the catch-all scan bucket (always candidates).
    pub scan_bucket_len: usize,
    /// Cumulative candidate entries examined across all queries.
    pub candidates_scanned: u64,
    /// Queries served.
    pub queries: u64,
}

/// The Policy Manager.
#[derive(Clone, Default)]
pub struct PolicyManager {
    rules: BTreeMap<PolicyId, StoredPolicy>,
    buckets: HashMap<BucketKey, Vec<BucketEntry>>,
    next_id: u64,
    queries: u64,
    candidates_scanned: u64,
    /// `true` while default-deny decisions issued since the last flush of
    /// cookie `DEFAULT_DENY_ID` may still be cached on switches.
    default_deny_outstanding: bool,
    /// Monotonic mutation counter (insert / revoke / re-rank).
    revision: u64,
    /// Mutations recorded since the last [`PolicyManager::take_deltas`];
    /// only populated once a consumer opts in.
    journal: Vec<PolicyDelta>,
    journal_enabled: bool,
}

impl PolicyManager {
    /// An empty manager (plus the implicit default-deny).
    #[must_use]
    pub fn new() -> PolicyManager {
        PolicyManager {
            rules: BTreeMap::new(),
            buckets: HashMap::new(),
            next_id: 1,
            queries: 0,
            candidates_scanned: 0,
            default_deny_outstanding: false,
            revision: 0,
            journal: Vec::new(),
            journal_enabled: false,
        }
    }

    /// Starts recording every mutation into the delta journal. Off by
    /// default so a manager without an incremental consumer pays nothing
    /// and accumulates nothing.
    pub fn enable_delta_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Drains the recorded mutations (oldest first). Empty unless
    /// [`PolicyManager::enable_delta_journal`] was called.
    pub fn take_deltas(&mut self) -> Vec<PolicyDelta> {
        std::mem::take(&mut self.journal)
    }

    /// Monotonic mutation counter: increments on every insert, revoke, and
    /// re-rank, journal or not. Lets consumers detect missed changes.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    fn record(&mut self, delta: impl FnOnce() -> PolicyDelta) {
        self.revision += 1;
        if self.journal_enabled {
            self.journal.push(delta());
        }
    }

    /// Inserts a rule on behalf of a PDP, returning its new id and the
    /// deduplicated ids of existing policies whose derived flow rules must
    /// be flushed from the switches.
    ///
    /// The conflict set includes [`DEFAULT_DENY_ID`] when the new rule is
    /// an Allow **and** default-deny decisions have actually been issued
    /// since cookie 0 was last flushed — flushing an empty cookie on every
    /// Allow insert would send a no-op FlowMod storm to every switch.
    pub fn insert(
        &mut self,
        rule: PolicyRule,
        priority: u32,
        pdp: &str,
    ) -> (PolicyId, Vec<PolicyId>) {
        let id = PolicyId(self.next_id);
        self.next_id += 1;
        let mut flush: Vec<PolicyId> = self
            .rules
            .values()
            .filter(|existing| {
                // The new rule outranks the existing one when its priority
                // is strictly higher, or ties it as a Deny (equal-priority
                // arbitration prefers Deny — an existing Allow's cached
                // decisions are then stale).
                let outranked = existing.priority < priority
                    || (existing.priority == priority && rule.action == PolicyAction::Deny);
                outranked && existing.rule.action != rule.action && existing.rule.overlaps(&rule)
            })
            .map(|e| e.id)
            .collect();
        if rule.action == PolicyAction::Allow && self.default_deny_outstanding {
            // The implicit default-deny has the lowest possible priority
            // and the opposite action; its cached rules always conflict.
            flush.push(DEFAULT_DENY_ID);
            // The caller flushes cookie 0 in response; nothing cached
            // under it remains.
            self.default_deny_outstanding = false;
        }
        flush.sort_unstable();
        flush.dedup();
        let entry = (priority, id);
        let bucket = self.buckets.entry(bucket_key(&rule)).or_default();
        let pos = bucket.partition_point(|e| entry_key(e) < entry_key(&entry));
        bucket.insert(pos, entry);
        let stored = StoredPolicy {
            id,
            rule,
            priority,
            pdp: pdp.to_string(),
        };
        self.rules.insert(id, stored.clone());
        self.record(|| PolicyDelta::Inserted(stored));
        (id, flush)
    }

    /// Revokes a policy. Returns `true` if it existed; its derived flow
    /// rules must then be flushed.
    pub fn revoke(&mut self, id: PolicyId) -> bool {
        let Some(stored) = self.rules.remove(&id) else {
            return false;
        };
        let key = bucket_key(&stored.rule);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.retain(|&(_, bid)| bid != id);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
        self.record(|| PolicyDelta::Revoked(stored));
        true
    }

    /// Changes a stored policy's priority in place, keeping its id (and
    /// therefore its flow-rule cookie). Returns `None` for an unknown id;
    /// otherwise the deduplicated ids of policies whose derived flow rules
    /// must be flushed because arbitration between the re-ranked rule and
    /// an overlapping opposite-action rule just inverted — in either
    /// direction: a newly outranked rule's cached decisions are stale, and
    /// so are the re-ranked rule's own once something newly outranks *it*.
    pub fn re_rank(&mut self, id: PolicyId, new_priority: u32) -> Option<Vec<PolicyId>> {
        let old_priority = self.rules.get(&id)?.priority;
        if old_priority == new_priority {
            return Some(Vec::new());
        }
        // Arbitration rank among a fixed rule pair only depends on
        // (priority, Deny-beats-Allow, id); compute the inversion set
        // before touching the store.
        let me = self.rules[&id].clone();
        let rank = |priority: u32, action: PolicyAction, pid: PolicyId| {
            (
                Reverse(priority),
                u8::from(action == PolicyAction::Allow),
                pid,
            )
        };
        let mut flush: Vec<PolicyId> = Vec::new();
        for other in self.rules.values() {
            if other.id == id
                || other.rule.action == me.rule.action
                || !other.rule.overlaps(&me.rule)
            {
                continue;
            }
            let theirs = rank(other.priority, other.rule.action, other.id);
            let old_mine = rank(old_priority, me.rule.action, id);
            let new_mine = rank(new_priority, me.rule.action, id);
            if new_mine < theirs && old_mine > theirs {
                // We now outrank them: their cached decisions are stale.
                flush.push(other.id);
            } else if theirs < new_mine && theirs > old_mine {
                // They now outrank us: our cached decisions are stale.
                flush.push(id);
            }
        }
        flush.sort_unstable();
        flush.dedup();
        // Re-file the bucket entry under the new priority.
        let key = bucket_key(&me.rule);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.retain(|&(_, bid)| bid != id);
            let entry = (new_priority, id);
            let pos = bucket.partition_point(|e| entry_key(e) < entry_key(&entry));
            bucket.insert(pos, entry);
        }
        let stored = self.rules.get_mut(&id).expect("checked above");
        stored.priority = new_priority;
        let snapshot = stored.clone();
        self.record(|| PolicyDelta::ReRanked {
            policy: snapshot,
            old_priority,
        });
        Some(flush)
    }

    /// Applies an ordered batch of mutations as one commit, each exactly
    /// as its single-mutation method would (an insert sees the rules the
    /// commit inserted before it), and returns the new ids in order plus
    /// the union of the flush lists. The journal records every mutation,
    /// so one certification covers the whole commit.
    pub fn commit(&mut self, mutations: impl IntoIterator<Item = PolicyMutation>) -> CommitOutcome {
        let mut out = CommitOutcome::default();
        for mutation in mutations {
            match mutation {
                PolicyMutation::Insert {
                    rule,
                    priority,
                    pdp,
                } => {
                    let (id, flush) = self.insert(*rule, priority, &pdp);
                    out.inserted.push(id);
                    out.flush.extend(flush);
                }
                PolicyMutation::Revoke(id) => {
                    if !self.revoke(id) {
                        continue;
                    }
                    out.flush.push(id);
                }
                PolicyMutation::ReRank { id, priority } => {
                    let Some(flush) = self.re_rank(id, priority) else {
                        continue;
                    };
                    out.flush.extend(flush);
                }
                PolicyMutation::Restore(snapshot) => out.flush.extend(snapshot.restore_into(self)),
            }
            out.applied += 1;
        }
        out.flush.sort_unstable();
        out.flush.dedup();
        out
    }

    /// Records that a default-deny flow rule (cookie [`DEFAULT_DENY_ID`])
    /// was installed outside a policy query — e.g. the PCP's anti-spoofing
    /// drop — so the next conflicting Allow insert flushes cookie 0.
    pub fn note_default_deny_cached(&mut self) {
        self.default_deny_outstanding = true;
    }

    /// The buckets a flow's identifiers select, as merge cursors.
    fn candidate_cursors(&self, flow: &FlowView) -> MergedCandidates<'_> {
        let mut keys: Vec<BucketKey> = Vec::with_capacity(8);
        keys.push(BucketKey::Scan);
        for u in &flow.dst.usernames {
            keys.push(BucketKey::DstUser(u.to_ascii_lowercase()));
        }
        for h in &flow.dst.hostnames {
            keys.push(BucketKey::DstHost(h.to_ascii_lowercase()));
        }
        if let Some(ip) = flow.dst.ip {
            keys.push(BucketKey::DstIp(ip));
        }
        for u in &flow.src.usernames {
            keys.push(BucketKey::SrcUser(u.to_ascii_lowercase()));
        }
        for h in &flow.src.hostnames {
            keys.push(BucketKey::SrcHost(h.to_ascii_lowercase()));
        }
        if let Some(ip) = flow.src.ip {
            keys.push(BucketKey::SrcIp(ip));
        }
        // Lowercasing can collide distinct bound names; a duplicate key
        // would yield its bucket's entries twice.
        keys.sort_unstable();
        keys.dedup();
        MergedCandidates {
            cursors: keys
                .iter()
                .filter_map(|k| self.buckets.get(k))
                .map(Vec::as_slice)
                .collect(),
        }
    }

    /// Decides a flow against current policy: the highest-priority matching
    /// rule wins; among equal-priority matches a Deny beats an Allow ("err
    /// on the side of stopping unauthorized flows"); no match → default
    /// deny.
    ///
    /// Probes only the flow's candidate buckets and stops at the end of
    /// the first priority group containing a match; equivalent to
    /// [`PolicyManager::query_linear`] by construction and by property
    /// test.
    pub fn query(&mut self, flow: &FlowView) -> Decision {
        self.queries += 1;
        let mut scanned = 0u64;
        let decision = {
            let mut group_pri: Option<u32> = None;
            let mut group_best: Option<&StoredPolicy> = None;
            for (pri, id) in self.candidate_cursors(flow) {
                if group_pri != Some(pri) {
                    if group_best.is_some() {
                        // Leaving a priority group that already produced a
                        // match: lower-priority candidates cannot win.
                        break;
                    }
                    group_pri = Some(pri);
                }
                scanned += 1;
                let sp = &self.rules[&id];
                if !sp.rule.matches(flow) {
                    continue;
                }
                if sp.rule.action == PolicyAction::Deny {
                    // First matching Deny in id order: wins its group
                    // outright, and no higher group matched.
                    group_best = Some(sp);
                    break;
                }
                if group_best.is_none() {
                    group_best = Some(sp);
                }
            }
            match group_best {
                Some(sp) => Decision {
                    action: sp.rule.action,
                    policy: sp.id,
                },
                None => Decision {
                    action: PolicyAction::Deny,
                    policy: DEFAULT_DENY_ID,
                },
            }
        };
        self.candidates_scanned += scanned;
        if decision.policy == DEFAULT_DENY_ID {
            self.default_deny_outstanding = true;
        }
        decision
    }

    /// Reference implementation of [`PolicyManager::query`]: the original
    /// full linear scan. Kept as the differential-testing oracle
    /// (`proptest_policy::indexed_query_matches_linear_reference`) and the
    /// baseline side of the `micro_hotpaths` benches. Does not touch
    /// counters.
    #[must_use]
    pub fn query_linear(&self, flow: &FlowView) -> Decision {
        let mut best: Option<&StoredPolicy> = None;
        for sp in self.rules.values() {
            if !sp.rule.matches(flow) {
                continue;
            }
            best = Some(match best {
                None => sp,
                Some(cur) => {
                    if sp.priority > cur.priority
                        || (sp.priority == cur.priority
                            && sp.rule.action == PolicyAction::Deny
                            && cur.rule.action == PolicyAction::Allow)
                    {
                        sp
                    } else {
                        cur
                    }
                }
            });
        }
        match best {
            Some(sp) => Decision {
                action: sp.rule.action,
                policy: sp.id,
            },
            None => Decision {
                action: PolicyAction::Deny,
                policy: DEFAULT_DENY_ID,
            },
        }
    }

    /// Decides the whole *port-wildcard class* of a flow at once, when that
    /// is provably safe — the core of the CAB-ACME-style wildcard-caching
    /// extension the paper sketches in §III-B.
    ///
    /// The class is "every flow identical to `flow` except for its L4
    /// ports". Returns `Some(decision)` only when every flow in the class
    /// is guaranteed the same verdict under current policy, i.e. when no
    /// policy that could match any class member pins a port (the paper's
    /// "key challenge … to avoid caching wildcarded flow rules that match
    /// packets for which higher-priority policy rules may exist" —
    /// answered conservatively: any port-sensitive overlap disqualifies
    /// the class). Returns `None` when the caller must fall back to an
    /// exact-match decision via [`PolicyManager::query`].
    ///
    /// Uses the same bucket merge as [`PolicyManager::query`]: iteration
    /// stops at the end of the priority group containing the port-free
    /// winner, because lower-priority port-pinning rules can never
    /// override it.
    pub fn query_class(&mut self, flow: &FlowView) -> Option<Decision> {
        self.queries += 1;
        let mut scanned = 0u64;
        let result = {
            // Port-free winner of the highest priority group that has one.
            let mut winner: Option<&StoredPolicy> = None;
            // A port-pinning candidate admitted in a group strictly above
            // the winner's: always overrides some class member.
            let mut pin_above = false;
            // A port-pinning Allow admitted anywhere (splits a class whose
            // port-free verdict is the default deny).
            let mut pin_allow_anywhere = false;
            // Port-pinning Deny in the current group (splits an equal-
            // priority Allow winner).
            let mut group_pin_deny = false;
            let mut group_has_pin = false;
            let mut group_pri: Option<u32> = None;
            for (pri, id) in self.candidate_cursors(flow) {
                if group_pri != Some(pri) {
                    if winner.is_some() {
                        break;
                    }
                    pin_above |= group_has_pin;
                    group_has_pin = false;
                    group_pin_deny = false;
                    group_pri = Some(pri);
                }
                scanned += 1;
                let sp = &self.rules[&id];
                if !rule_admits_ignoring_ports(&sp.rule, flow) {
                    continue;
                }
                if rule_pins_a_port(&sp.rule) {
                    group_has_pin = true;
                    match sp.rule.action {
                        PolicyAction::Deny => group_pin_deny = true,
                        PolicyAction::Allow => pin_allow_anywhere = true,
                    }
                    continue;
                }
                if sp.rule.action == PolicyAction::Deny {
                    // First port-free Deny in id order: final winner (an
                    // equal-priority pin can only override an Allow, and
                    // lower groups are outranked).
                    winner = Some(sp);
                    break;
                }
                if winner.is_none() {
                    winner = Some(sp);
                }
            }
            match winner {
                Some(w) => {
                    // A pin above the winner's group always splits; a pin
                    // in the winner's own group splits an Allow winner
                    // when it denies.
                    if pin_above || (w.rule.action == PolicyAction::Allow && group_pin_deny) {
                        None
                    } else {
                        Some(Decision {
                            action: w.rule.action,
                            policy: w.id,
                        })
                    }
                }
                None => {
                    // Winner is the default deny: a pinned Deny agrees
                    // with it (verdict stays uniform); a pinned Allow
                    // splits the class.
                    if pin_allow_anywhere {
                        None
                    } else {
                        Some(Decision {
                            action: PolicyAction::Deny,
                            policy: DEFAULT_DENY_ID,
                        })
                    }
                }
            }
        };
        self.candidates_scanned += scanned;
        if let Some(d) = &result {
            if d.policy == DEFAULT_DENY_ID {
                self.default_deny_outstanding = true;
            }
        }
        result
    }

    /// Reference implementation of [`PolicyManager::query_class`]: the
    /// original full linear scan, kept as the differential-testing oracle
    /// and bench baseline. Does not touch counters.
    #[must_use]
    pub fn query_class_linear(&self, flow: &FlowView) -> Option<Decision> {
        // Split candidates that admit the flow's non-port identifiers into
        // port-free rules (match every class member) and port-pinning
        // rules (match only the member with their port).
        let mut winner: Option<&StoredPolicy> = None;
        let mut pinned: Vec<&StoredPolicy> = Vec::new();
        for sp in self.rules.values() {
            if !rule_admits_ignoring_ports(&sp.rule, flow) {
                continue;
            }
            if rule_pins_a_port(&sp.rule) {
                pinned.push(sp);
                continue;
            }
            winner = Some(match winner {
                None => sp,
                Some(cur) => {
                    if sp.priority > cur.priority
                        || (sp.priority == cur.priority
                            && sp.rule.action == PolicyAction::Deny
                            && cur.rule.action == PolicyAction::Allow)
                    {
                        sp
                    } else {
                        cur
                    }
                }
            });
        }
        // A port-pinning rule splits the class only if it could override
        // the port-free winner for its port.
        for p in pinned {
            let splits = match winner {
                Some(w) => {
                    p.priority > w.priority
                        || (p.priority == w.priority
                            && p.rule.action == PolicyAction::Deny
                            && w.rule.action == PolicyAction::Allow)
                }
                // Winner is the default deny: a pinned Deny agrees with it
                // (verdict stays uniform); a pinned Allow splits the class.
                None => p.rule.action == PolicyAction::Allow,
            };
            if splits {
                return None;
            }
        }
        Some(match winner {
            Some(sp) => Decision {
                action: sp.rule.action,
                policy: sp.id,
            },
            None => Decision {
                action: PolicyAction::Deny,
                policy: DEFAULT_DENY_ID,
            },
        })
    }

    /// Number of stored rules (excluding the implicit default deny).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when no explicit rules are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Queries served (for utilization accounting).
    #[must_use]
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// Snapshot of the bucket index and its scan accounting.
    pub fn index_stats(&self) -> PolicyIndexStats {
        PolicyIndexStats {
            rules: self.rules.len(),
            buckets: self.buckets.len(),
            scan_bucket_len: self.buckets.get(&BucketKey::Scan).map_or(0, Vec::len),
            candidates_scanned: self.candidates_scanned,
            queries: self.queries,
        }
    }

    /// A stored policy by id.
    #[must_use]
    pub fn get(&self, id: PolicyId) -> Option<&StoredPolicy> {
        self.rules.get(&id)
    }

    /// All stored policies, ascending id.
    pub fn iter(&self) -> impl Iterator<Item = &StoredPolicy> {
        self.rules.values()
    }

    /// An owned snapshot of every stored policy, ascending id — the static
    /// analyzer's input (`dfi-analyze` runs offline over this, without
    /// holding a borrow on the live manager).
    #[must_use]
    pub fn snapshot(&self) -> Vec<StoredPolicy> {
        self.rules.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::model::{EndpointPattern, EndpointView};

    fn flow(src_user: &str, dst_user: &str) -> FlowView {
        FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            src: EndpointView {
                usernames: vec![src_user.to_string()],
                ..EndpointView::default()
            },
            dst: EndpointView {
                usernames: vec![dst_user.to_string()],
                ..EndpointView::default()
            },
        }
    }

    #[test]
    fn default_deny_when_no_rules() {
        let mut pm = PolicyManager::new();
        let d = pm.query(&flow("alice", "bob"));
        assert_eq!(d.action, PolicyAction::Deny);
        assert_eq!(d.policy, DEFAULT_DENY_ID);
        assert!(pm.is_empty());
    }

    #[test]
    fn matching_allow_wins() {
        let mut pm = PolicyManager::new();
        let (id, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
            10,
            "test-pdp",
        );
        let d = pm.query(&flow("alice", "bob"));
        assert_eq!(d.action, PolicyAction::Allow);
        assert_eq!(d.policy, id);
        // Unrelated flow still default-denied.
        assert_eq!(pm.query(&flow("carol", "bob")).action, PolicyAction::Deny);
    }

    #[test]
    fn higher_priority_wins() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 1, "low");
        let (deny_id, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::user("alice"), EndpointPattern::any()),
            50,
            "high",
        );
        let d = pm.query(&flow("alice", "bob"));
        assert_eq!(d.action, PolicyAction::Deny);
        assert_eq!(d.policy, deny_id);
        assert_eq!(pm.query(&flow("carol", "bob")).action, PolicyAction::Allow);
    }

    #[test]
    fn equal_priority_conflict_denies() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 10, "a");
        let (deny_id, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            10,
            "b",
        );
        let d = pm.query(&flow("alice", "bob"));
        assert_eq!(d.action, PolicyAction::Deny);
        assert_eq!(d.policy, deny_id);
    }

    #[test]
    fn insert_reports_conflicting_lower_priority_policies() {
        let mut pm = PolicyManager::new();
        let (low_allow, _) = pm.insert(PolicyRule::allow_all(), 1, "low");
        // A higher-priority deny overlapping the allow: the allow's cached
        // flow rules must be flushed so ongoing flows are re-evaluated.
        let (_, flush) = pm.insert(
            PolicyRule::deny(EndpointPattern::user("alice"), EndpointPattern::any()),
            50,
            "high",
        );
        assert!(flush.contains(&low_allow));
        assert!(
            !flush.contains(&DEFAULT_DENY_ID),
            "deny insert does not flush default deny"
        );
    }

    #[test]
    fn allow_insert_flushes_default_deny_only_when_outstanding() {
        let mut pm = PolicyManager::new();
        // No default-deny decision issued yet: nothing cached under cookie
        // 0, so nothing to flush.
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
            "pdp",
        );
        assert!(
            flush.is_empty(),
            "no outstanding default-deny rules: {flush:?}"
        );
        // A query that falls through to the default deny may now be cached
        // on a switch; the next Allow insert must flush cookie 0.
        assert_eq!(pm.query(&flow("carol", "dave")).policy, DEFAULT_DENY_ID);
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("carol"), EndpointPattern::any()),
            10,
            "pdp",
        );
        assert_eq!(flush, vec![DEFAULT_DENY_ID]);
        // The flush cleared the slate: an immediate further Allow insert
        // has nothing to flush again.
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("erin"), EndpointPattern::any()),
            10,
            "pdp",
        );
        assert!(flush.is_empty(), "{flush:?}");
    }

    #[test]
    fn spoof_install_marks_default_deny_outstanding() {
        let mut pm = PolicyManager::new();
        pm.note_default_deny_cached();
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
            "pdp",
        );
        assert_eq!(flush, vec![DEFAULT_DENY_ID]);
    }

    #[test]
    fn flush_list_is_deduplicated_and_sorted() {
        let mut pm = PolicyManager::new();
        let (a, _) = pm.insert(PolicyRule::allow_all(), 1, "a");
        let (b, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            2,
            "b",
        );
        pm.query(&flow("nobody", "noone"));
        let (_, flush) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            50,
            "high",
        );
        // Both allows conflict; no duplicates; sorted ascending.
        assert_eq!(flush, {
            let mut want = vec![a, b];
            want.sort_unstable();
            want
        });
    }

    #[test]
    fn equal_priority_deny_insert_flushes_overlapping_allow() {
        // Regression: the pre-analyzer check only flagged strictly
        // lower-priority existing rules, so an equal-priority Deny left the
        // Allow's cached flow rules live even though arbitration now
        // prefers the Deny.
        let mut pm = PolicyManager::new();
        let (allow_id, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
            "a",
        );
        let (_, flush) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            10,
            "b",
        );
        assert!(
            flush.contains(&allow_id),
            "equal-priority Deny must flush the overlapping Allow: {flush:?}"
        );
    }

    #[test]
    fn equal_priority_allow_insert_does_not_flush_deny() {
        // The mirror case stays quiet: an equal-priority Allow never
        // outranks an existing Deny (Deny wins ties), so the Deny's cached
        // rules remain exactly right.
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::deny(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
            "a",
        );
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::any()),
            10,
            "b",
        );
        assert!(flush.is_empty(), "{flush:?}");
    }

    #[test]
    fn same_action_overlap_is_not_a_conflict() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 1, "a");
        let (_, flush) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            50,
            "b",
        );
        assert!(flush.is_empty(), "same action never conflicts: {flush:?}");
    }

    #[test]
    fn higher_priority_existing_rule_is_not_flushed() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            100,
            "high",
        );
        let (_, flush) = pm.insert(PolicyRule::allow_all(), 1, "low");
        // The high-priority deny still outranks the new allow, so its
        // cached rules remain valid.
        assert!(flush.is_empty(), "{flush:?}");
    }

    #[test]
    fn revoke_removes_rule() {
        let mut pm = PolicyManager::new();
        let (id, _) = pm.insert(PolicyRule::allow_all(), 10, "pdp");
        assert_eq!(pm.query(&flow("a", "b")).action, PolicyAction::Allow);
        assert!(pm.revoke(id));
        assert_eq!(pm.query(&flow("a", "b")).action, PolicyAction::Deny);
        assert!(!pm.revoke(id), "double revoke is false");
    }

    #[test]
    fn get_and_iter_expose_provenance() {
        let mut pm = PolicyManager::new();
        let (id, _) = pm.insert(PolicyRule::allow_all(), 7, "s-rbac");
        let sp = pm.get(id).unwrap();
        assert_eq!(sp.priority, 7);
        assert_eq!(sp.pdp, "s-rbac");
        assert_eq!(pm.iter().count(), 1);
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn query_class_uniform_allow() {
        let mut pm = PolicyManager::new();
        let (id, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
            10,
            "pdp",
        );
        let d = pm
            .query_class(&flow("alice", "bob"))
            .expect("uniform class");
        assert_eq!(d.action, PolicyAction::Allow);
        assert_eq!(d.policy, id);
    }

    #[test]
    fn query_class_uniform_default_deny() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::user("carol"), EndpointPattern::any()),
            10,
            "pdp",
        );
        // No rule admits alice→bob flows at any port: the whole class is
        // default-denied and may be cached as one rule.
        let d = pm
            .query_class(&flow("alice", "bob"))
            .expect("uniform class");
        assert_eq!(d.policy, DEFAULT_DENY_ID);
    }

    #[test]
    fn query_class_refuses_port_pinning_overlap() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 1, "base");
        // A port-specific deny splits the class: some ports allow, one
        // denies — widening must be refused.
        pm.insert(
            PolicyRule::deny(
                EndpointPattern::any(),
                EndpointPattern::host_port("anyhost", 22),
            ),
            50,
            "pdp",
        );
        let mut f = flow("alice", "bob");
        f.dst.hostnames = vec!["anyhost".into()];
        assert_eq!(
            pm.query_class(&f),
            None,
            "port-pinning overlap blocks widening"
        );
        // A flow class the deny cannot touch is still widenable.
        let g = flow("alice", "bob");
        assert!(pm.query_class(&g).is_some());
    }

    #[test]
    fn query_class_ignores_outranked_port_rules() {
        let mut pm = PolicyManager::new();
        // High-priority port-free deny dominates a low-priority pinned
        // allow: the pinned rule can never win, so widening is safe.
        let (deny_id, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::user("alice"), EndpointPattern::any()),
            50,
            "high",
        );
        pm.insert(
            PolicyRule::allow(
                EndpointPattern::user("alice"),
                EndpointPattern::host_port("bob-host", 443),
            ),
            1,
            "low",
        );
        let mut f = flow("alice", "bob");
        f.dst.hostnames = vec!["bob-host".into()];
        let d = pm.query_class(&f).expect("outranked pin ignored");
        assert_eq!(d.policy, deny_id);
    }

    #[test]
    fn query_class_pinned_deny_agrees_with_default_deny() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::host_port("h", 22)),
            50,
            "pdp",
        );
        // The whole class is denied either way: uniform.
        let mut f = flow("alice", "bob");
        f.dst.hostnames = vec!["h".into()];
        let d = pm.query_class(&f).expect("uniform deny");
        assert_eq!(d.action, PolicyAction::Deny);
        assert_eq!(d.policy, DEFAULT_DENY_ID);
    }

    #[test]
    fn query_class_agrees_with_per_flow_query() {
        let mut pm = PolicyManager::new();
        pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            10,
            "pdp",
        );
        let mut f = flow("alice", "bob");
        let class = pm.query_class(&f).expect("uniform");
        for port in [22u16, 80, 445, 50_000] {
            f.dst.port = Some(port);
            assert_eq!(pm.query(&f), class, "port {port} disagrees with class");
        }
    }

    #[test]
    fn indexed_query_agrees_with_linear_reference() {
        // Hand-built corner cases; the broad randomized proof lives in
        // tests/proptest_policy.rs.
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 5, "wild");
        pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::user("bob")),
            5,
            "deny-bob",
        );
        pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::user("bob")),
            9,
            "alice-bob",
        );
        pm.insert(
            PolicyRule::deny(EndpointPattern::host("srv"), EndpointPattern::any()),
            9,
            "deny-srv",
        );
        let mut flows = vec![
            flow("alice", "bob"),
            flow("carol", "bob"),
            flow("alice", "carol"),
            flow("x", "y"),
        ];
        let mut srv = flow("alice", "bob");
        srv.src.hostnames = vec!["SRV".into()];
        flows.push(srv);
        for f in &flows {
            assert_eq!(pm.query(f), pm.query_linear(f), "flow {f:?}");
            assert_eq!(pm.query_class(f), pm.query_class_linear(f), "class {f:?}");
        }
    }

    #[test]
    fn bucket_index_tracks_insert_and_revoke() {
        let mut pm = PolicyManager::new();
        let (a, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::user("Bob")),
            10,
            "p",
        );
        pm.insert(PolicyRule::allow_all(), 1, "p");
        let stats = pm.index_stats();
        assert_eq!(stats.rules, 2);
        assert_eq!(stats.buckets, 2, "one dst-user bucket + scan bucket");
        assert_eq!(stats.scan_bucket_len, 1);
        pm.revoke(a);
        let stats = pm.index_stats();
        assert_eq!(stats.rules, 1);
        assert_eq!(stats.buckets, 1, "empty buckets are dropped");
    }

    #[test]
    fn selective_query_scans_fewer_candidates_than_rules() {
        let mut pm = PolicyManager::new();
        for i in 0..100 {
            pm.insert(
                PolicyRule::allow(
                    EndpointPattern::user(&format!("u{i}")),
                    EndpointPattern::user(&format!("v{i}")),
                ),
                10,
                "p",
            );
        }
        let d = pm.query(&flow("u7", "v7"));
        assert_eq!(d.action, PolicyAction::Allow);
        let stats = pm.index_stats();
        assert!(
            stats.candidates_scanned <= 4,
            "probed buckets only, scanned {} of {} rules",
            stats.candidates_scanned,
            stats.rules
        );
    }

    #[test]
    fn index_stats_bucket_accounting_survives_revocations() {
        let mut pm = PolicyManager::new();
        // Two rules share one dst-user bucket (case-folded), one sits in
        // its own src-host bucket, two land in the scan bucket.
        let (a, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::user("Bob")),
            10,
            "p",
        );
        let (b, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::user("BOB")),
            20,
            "p",
        );
        let (c, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::host("srv"), EndpointPattern::any()),
            10,
            "p",
        );
        let (d, _) = pm.insert(PolicyRule::allow_all(), 1, "p");
        let (e, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            2,
            "p",
        );
        let stats = pm.index_stats();
        assert_eq!(
            (stats.rules, stats.buckets, stats.scan_bucket_len),
            (5, 3, 2)
        );
        // Removing one of two same-bucket rules keeps the bucket alive.
        pm.revoke(a);
        let stats = pm.index_stats();
        assert_eq!(
            (stats.rules, stats.buckets, stats.scan_bucket_len),
            (4, 3, 2)
        );
        // Removing the last dst-user rule drops that bucket.
        pm.revoke(b);
        let stats = pm.index_stats();
        assert_eq!(
            (stats.rules, stats.buckets, stats.scan_bucket_len),
            (3, 2, 2)
        );
        // Draining the scan bucket drops it too; revoking an already
        // revoked id must not disturb the accounting.
        pm.revoke(d);
        pm.revoke(e);
        assert!(!pm.revoke(d));
        let stats = pm.index_stats();
        assert_eq!(
            (stats.rules, stats.buckets, stats.scan_bucket_len),
            (1, 1, 0)
        );
        pm.revoke(c);
        let stats = pm.index_stats();
        assert_eq!(
            (stats.rules, stats.buckets, stats.scan_bucket_len),
            (0, 0, 0)
        );
        // Counters are cumulative and unaffected by revocation.
        assert_eq!(stats.queries, 0);
        pm.query(&flow("alice", "bob"));
        assert_eq!(pm.index_stats().queries, 1);
    }

    #[test]
    fn snapshot_clones_all_policies_in_id_order() {
        let mut pm = PolicyManager::new();
        let (a, _) = pm.insert(PolicyRule::allow_all(), 3, "x");
        let (b, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::user("eve"), EndpointPattern::any()),
            9,
            "y",
        );
        let snap = pm.snapshot();
        assert_eq!(snap.iter().map(|sp| sp.id).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(snap[1].pdp, "y");
        assert_eq!(snap[1].priority, 9);
    }

    #[test]
    fn re_rank_changes_arbitration_and_reports_inversions() {
        let mut pm = PolicyManager::new();
        let (allow_id, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            50,
            "a",
        );
        let (deny_id, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::any(), EndpointPattern::any()),
            10,
            "b",
        );
        assert_eq!(pm.query(&flow("alice", "bob")).policy, allow_id);
        // Raising the deny above the allow inverts the pair: the allow's
        // cached decisions are stale.
        let flush = pm.re_rank(deny_id, 90).expect("known id");
        assert_eq!(flush, vec![allow_id]);
        assert_eq!(pm.query(&flow("alice", "bob")).policy, deny_id);
        assert_eq!(pm.get(deny_id).unwrap().priority, 90);
        // Lowering it back inverts again — this time the re-ranked rule's
        // own cached decisions are the stale ones.
        let flush = pm.re_rank(deny_id, 10).expect("known id");
        assert_eq!(flush, vec![deny_id]);
        assert_eq!(pm.query(&flow("alice", "bob")).policy, allow_id);
        // No-op and unknown-id cases.
        assert_eq!(pm.re_rank(deny_id, 10), Some(Vec::new()));
        assert_eq!(pm.re_rank(PolicyId(999), 5), None);
        // The indexed query still agrees with the linear oracle afterwards.
        for f in [flow("alice", "bob"), flow("carol", "dave")] {
            assert_eq!(pm.query(&f), pm.query_linear(&f));
        }
    }

    #[test]
    fn re_rank_between_same_action_rules_flushes_nothing() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 10, "a");
        let (b, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("alice"), EndpointPattern::any()),
            20,
            "b",
        );
        // Same action: attribution may shift but no verdict does.
        assert_eq!(pm.re_rank(b, 5), Some(Vec::new()));
    }

    #[test]
    fn delta_journal_records_mutations_only_when_enabled() {
        let mut pm = PolicyManager::new();
        let (a, _) = pm.insert(PolicyRule::allow_all(), 10, "p");
        assert_eq!(pm.revision(), 1);
        assert!(pm.take_deltas().is_empty(), "journal off by default");
        pm.enable_delta_journal();
        let (b, _) = pm.insert(
            PolicyRule::deny(EndpointPattern::user("eve"), EndpointPattern::any()),
            50,
            "p",
        );
        pm.re_rank(b, 60).unwrap();
        pm.revoke(a);
        assert_eq!(pm.revision(), 4);
        let deltas = pm.take_deltas();
        assert_eq!(deltas.len(), 3);
        match &deltas[0] {
            PolicyDelta::Inserted(sp) => assert_eq!(sp.id, b),
            other => panic!("expected insert, got {other:?}"),
        }
        match &deltas[1] {
            PolicyDelta::ReRanked {
                policy,
                old_priority,
            } => {
                assert_eq!((policy.id, policy.priority, *old_priority), (b, 60, 50));
            }
            other => panic!("expected re-rank, got {other:?}"),
        }
        match &deltas[2] {
            PolicyDelta::Revoked(sp) => assert_eq!(sp.id, a),
            other => panic!("expected revoke, got {other:?}"),
        }
        assert!(pm.take_deltas().is_empty(), "drained");
        // Failed mutations do not journal or bump the revision.
        assert!(!pm.revoke(a));
        assert_eq!(pm.re_rank(PolicyId(77), 1), None);
        assert_eq!(pm.revision(), 4);
        assert!(pm.take_deltas().is_empty());
    }

    #[test]
    fn query_class_handles_port_range_rules() {
        let mut pm = PolicyManager::new();
        pm.insert(PolicyRule::allow_all(), 1, "base");
        // A port-range deny splits classes it can touch, exactly like a
        // single-port pin.
        pm.insert(
            PolicyRule::deny(
                EndpointPattern::any(),
                EndpointPattern::host_port_range("h", 8000, 9000),
            ),
            50,
            "pdp",
        );
        let mut f = flow("alice", "bob");
        f.dst.hostnames = vec!["h".into()];
        assert_eq!(pm.query_class(&f), None, "range pin blocks widening");
        assert_eq!(pm.query_class(&f), pm.query_class_linear(&f));
        let g = flow("alice", "bob");
        assert_eq!(pm.query_class(&g), pm.query_class_linear(&g));
        assert!(pm.query_class(&g).is_some());
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut pm = PolicyManager::new();
        let (a, _) = pm.insert(PolicyRule::allow_all(), 1, "p");
        let (b, _) = pm.insert(PolicyRule::allow_all(), 1, "p");
        assert!(b > a);
        assert_ne!(a, DEFAULT_DENY_ID);
    }

    #[test]
    fn commit_equals_the_same_mutations_one_by_one() {
        let mut pm = PolicyManager::new();
        let (allow, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::any(), EndpointPattern::user("bob")),
            5,
            "p",
        );
        let (other, _) = pm.insert(
            PolicyRule::allow(EndpointPattern::user("eve"), EndpointPattern::any()),
            5,
            "p",
        );
        pm.note_default_deny_cached();
        let mut one_by_one = pm.clone();
        let deny = PolicyRule::deny(EndpointPattern::user("alice"), EndpointPattern::any());
        let grant = PolicyRule::allow(EndpointPattern::user("carol"), EndpointPattern::any());

        let outcome = pm.commit([
            PolicyMutation::insert(deny.clone(), 9, "p"),
            PolicyMutation::Revoke(other),
            PolicyMutation::Revoke(PolicyId(999)),
            PolicyMutation::ReRank {
                id: allow,
                priority: 20,
            },
            PolicyMutation::insert(grant.clone(), 5, "p"),
        ]);

        let (d, mut flush) = one_by_one.insert(deny, 9, "p");
        assert!(one_by_one.revoke(other));
        flush.push(other);
        flush.extend(one_by_one.re_rank(allow, 20).unwrap());
        let (g, more) = one_by_one.insert(grant, 5, "p");
        flush.extend(more);
        flush.sort_unstable();
        flush.dedup();
        assert_eq!(outcome.inserted, vec![d, g]);
        assert_eq!(outcome.flush, flush);
        assert_eq!(outcome.applied, 4, "the unknown revoke is skipped");
        assert!(outcome.flush.contains(&DEFAULT_DENY_ID));
        assert_eq!(pm.revision(), one_by_one.revision());
        let ids = |pm: &PolicyManager| pm.iter().map(|p| (p.id, p.priority)).collect::<Vec<_>>();
        assert_eq!(ids(&pm), ids(&one_by_one));
    }
}
