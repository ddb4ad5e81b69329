//! The Entity Resolution Manager: current identifier bindings and
//! low-level → high-level resolution.
//!
//! Paper §III-B: the ERM tracks four binding classes — username ↔ hostname,
//! hostname ↔ IP, IP ↔ MAC, MAC ↔ switch & port — each fed by its
//! *authoritative source* (SIEM, DNS, DHCP, and packet-in events
//! respectively). Bindings are many-to-many and change over time.
//!
//! Resolution happens **at flow-decision time**, mapping the low-level
//! identifiers in the packet *up* to usernames and hostnames. Mapping in
//! this direction (instead of compiling policies down when inserted) keeps
//! decisions correct as bindings churn and lets policy reference users who
//! are not currently logged on anywhere.
//!
//! The ERM also performs anti-spoofing: a packet whose IP↔MAC pairing
//! contradicts the authoritative DHCP binding is flagged and denied without
//! polluting the store.
//!
//! # Lookup performance
//!
//! Every packet-in resolves both endpoints, so `resolve_endpoint` /
//! `resolve_flow` / `spoof_check` are the control plane's hottest reads. A
//! flat pair-set store would make each of them a linear scan over *all*
//! bindings (with a clone and a sort per call), turning the Figure-4 load
//! sweep superlinear in the binding count. The store therefore keeps one
//! index per binding class, each keyed in the direction resolution reads
//! it — `ip→hosts`, `host→users`, `ip→macs`, `(switch, mac)→port` — and
//! nothing else: no index from a name back to the addresses it reaches,
//! since no decision reads one. [`EntityResolver::bind`] /
//! [`EntityResolver::unbind`] maintain them incrementally:
//!
//! * each index value is a `BTreeSet`, so iteration is already sorted and
//!   deterministic — no per-query sort;
//! * lookups are O(1) amortized hash probes returning **borrowed** sets
//!   (`*_of_*_ref` accessors); the PCP path allocates only when it
//!   actually compiles an [`EndpointView`] for a decision;
//! * `bind` and `unbind` return whether the store changed — a new pair, a
//!   moved location, an expired pair — which keeps the per-class pair
//!   counts behind [`EntityResolver::binding_count`] exact and tells a
//!   caller an effective event from a re-delivery (the per-packet
//!   MAC-location refresh is almost always a no-op).
//!
//! The `Vec`-returning accessors serve tests and harnesses; they clone
//! from the same indexes.

use crate::policy::EndpointView;
use dfi_packet::{MacAddr, PacketHeaders};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// The four binding classes the ERM tracks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Binding {
    /// username ↔ hostname (authoritative source: SIEM log-on events).
    UserHost {
        /// The user.
        user: String,
        /// The host.
        host: String,
    },
    /// hostname ↔ IP (authoritative source: DNS).
    HostIp {
        /// The host.
        host: String,
        /// Its address.
        ip: Ipv4Addr,
    },
    /// IP ↔ MAC (authoritative source: DHCP).
    IpMac {
        /// The address.
        ip: Ipv4Addr,
        /// The adapter.
        mac: MacAddr,
    },
    /// MAC ↔ switch & port (authoritative source: packet-in events,
    /// maintained by the PCP).
    MacLocation {
        /// The adapter.
        mac: MacAddr,
        /// The switch.
        dpid: u64,
        /// The port on that switch.
        port: u32,
    },
}

/// Outcome of the anti-spoofing check for one packet side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpoofVerdict {
    /// Identifiers are mutually consistent with current bindings.
    Consistent,
    /// The packet's IP is bound to different MAC(s) than the packet's.
    IpMacMismatch,
}

/// Sizes of the ERM's secondary indexes (observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErmIndexSizes {
    /// Distinct IPs with at least one hostname binding.
    pub ips_with_hosts: usize,
    /// Distinct hosts with at least one logged-on user.
    pub hosts_with_users: usize,
    /// Distinct IPs with at least one DHCP MAC binding.
    pub ips_with_macs: usize,
    /// (switch, MAC) location entries.
    pub mac_locations: usize,
    /// Total pair bindings across all classes.
    pub bindings: usize,
}

/// Inserts `value` into the set at `key`, creating it on demand.
/// Returns `true` when the set changed.
fn index_insert<K: std::hash::Hash + Eq, V: Ord>(
    index: &mut HashMap<K, BTreeSet<V>>,
    key: K,
    value: V,
) -> bool {
    index.entry(key).or_default().insert(value)
}

/// Removes `value` from the set at `key`, dropping empty sets so index
/// sizes reflect live keys. Returns `true` when the set changed.
fn index_remove<K: std::hash::Hash + Eq, V: Ord>(
    index: &mut HashMap<K, BTreeSet<V>>,
    key: &K,
    value: &V,
) -> bool {
    if let Some(set) = index.get_mut(key) {
        let removed = set.remove(value);
        if set.is_empty() {
            index.remove(key);
        }
        removed
    } else {
        false
    }
}

/// The binding store: one resolution-direction index per binding class.
#[derive(Default)]
pub struct EntityResolver {
    /// hostname↔IP, keyed by IP (the resolution direction).
    ip_to_hosts: HashMap<Ipv4Addr, BTreeSet<String>>,
    /// username↔hostname, keyed by host (the resolution direction).
    host_to_users: HashMap<String, BTreeSet<String>>,
    /// IP↔MAC, keyed by IP (the anti-spoofing direction).
    ip_to_macs: HashMap<Ipv4Addr, BTreeSet<MacAddr>>,
    /// (dpid, mac) → port; at most one port per MAC per switch.
    mac_location: HashMap<(u64, MacAddr), u32>,
    /// Pair-binding counts per class (user-host, host-ip, ip-mac).
    n_user_host: usize,
    n_host_ip: usize,
    n_ip_mac: usize,
    resolutions: u64,
}

static EMPTY_NAMES: BTreeSet<String> = BTreeSet::new();

impl EntityResolver {
    /// An empty store.
    #[must_use]
    pub fn new() -> EntityResolver {
        EntityResolver::default()
    }

    /// Applies a binding event (add). Returns `true` when the store
    /// changed (the pair was not already bound / the location moved).
    pub fn bind(&mut self, binding: Binding) -> bool {
        match binding {
            Binding::UserHost { user, host } => {
                let changed = index_insert(&mut self.host_to_users, host, user);
                self.n_user_host += changed as usize;
                changed
            }
            Binding::HostIp { host, ip } => {
                let changed = index_insert(&mut self.ip_to_hosts, ip, host);
                self.n_host_ip += changed as usize;
                changed
            }
            Binding::IpMac { ip, mac } => {
                let changed = index_insert(&mut self.ip_to_macs, ip, mac);
                self.n_ip_mac += changed as usize;
                changed
            }
            Binding::MacLocation { mac, dpid, port } => {
                // "This sensor ensures that each MAC address is associated
                // with at most one port on each switch."
                self.mac_location.insert((dpid, mac), port) != Some(port)
            }
        }
    }

    /// Applies a binding expiration (remove). Returns `true` when the
    /// binding existed.
    pub fn unbind(&mut self, binding: &Binding) -> bool {
        match binding {
            Binding::UserHost { user, host } => {
                let changed = index_remove(&mut self.host_to_users, host, user);
                self.n_user_host -= changed as usize;
                changed
            }
            Binding::HostIp { host, ip } => {
                let changed = index_remove(&mut self.ip_to_hosts, ip, host);
                self.n_host_ip -= changed as usize;
                changed
            }
            Binding::IpMac { ip, mac } => {
                let changed = index_remove(&mut self.ip_to_macs, ip, mac);
                self.n_ip_mac -= changed as usize;
                changed
            }
            Binding::MacLocation { mac, dpid, .. } => {
                self.mac_location.remove(&(*dpid, *mac)).is_some()
            }
        }
    }

    // ------------------------------------------------------------------
    // Borrowing accessors: the PCP hot path
    // ------------------------------------------------------------------

    /// Hostnames currently bound to an IP (borrowed, sorted).
    #[must_use]
    pub fn hosts_of_ip_ref(&self, ip: Ipv4Addr) -> &BTreeSet<String> {
        self.ip_to_hosts.get(&ip).unwrap_or(&EMPTY_NAMES)
    }

    /// Users currently bound to a host (borrowed, sorted).
    #[must_use]
    pub fn users_of_host_ref(&self, host: &str) -> &BTreeSet<String> {
        self.host_to_users.get(host).unwrap_or(&EMPTY_NAMES)
    }

    // ------------------------------------------------------------------
    // Cloning accessors (tests, harnesses, diagnostics)
    // ------------------------------------------------------------------

    /// Hostnames currently bound to an IP.
    #[must_use]
    pub fn hosts_of_ip(&self, ip: Ipv4Addr) -> Vec<String> {
        self.hosts_of_ip_ref(ip).iter().cloned().collect()
    }

    /// Users currently bound to a host.
    #[must_use]
    pub fn users_of_host(&self, host: &str) -> Vec<String> {
        self.users_of_host_ref(host).iter().cloned().collect()
    }

    /// MACs the authoritative DHCP source binds to an IP.
    #[must_use]
    pub fn macs_of_ip(&self, ip: Ipv4Addr) -> Vec<MacAddr> {
        self.ip_to_macs
            .get(&ip)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The switch port a MAC was last located at on a given switch.
    #[must_use]
    pub fn location_of(&self, dpid: u64, mac: MacAddr) -> Option<u32> {
        self.mac_location.get(&(dpid, mac)).copied()
    }

    /// Anti-spoofing check: the packet's (IP, MAC) pairing must not
    /// contradict the authoritative IP↔MAC bindings. An IP with no
    /// recorded binding passes (it may predate DHCP, e.g. static core
    /// services). O(log n) set probe — no allocation.
    #[must_use]
    pub fn spoof_check(&self, ip: Option<Ipv4Addr>, mac: MacAddr) -> SpoofVerdict {
        let Some(ip) = ip else {
            return SpoofVerdict::Consistent;
        };
        match self.ip_to_macs.get(&ip) {
            None => SpoofVerdict::Consistent,
            Some(bound) if bound.contains(&mac) => SpoofVerdict::Consistent,
            Some(_) => SpoofVerdict::IpMacMismatch,
        }
    }

    /// Enriches one side of a packet into an [`EndpointView`]: low-level
    /// identifiers from the packet, high-level identifiers resolved through
    /// the binding chain IP → hostname(s) → username(s). Allocates only
    /// the output view; all lookups are index probes.
    pub fn resolve_endpoint(
        &mut self,
        ip: Option<Ipv4Addr>,
        port: Option<u16>,
        mac: MacAddr,
        switch: Option<(u64, u32)>,
    ) -> EndpointView {
        self.resolutions += 1;
        // DNS records are fully qualified while policies and SIEM events
        // usually use short machine names; expose both forms so either can
        // match.
        let fqdns = match ip {
            Some(ip) => self.hosts_of_ip_ref(ip),
            None => &EMPTY_NAMES,
        };
        let mut hostnames: Vec<String> = fqdns.iter().cloned().collect();
        for fqdn in fqdns {
            let short = short_name(fqdn);
            if !hostnames.iter().any(|h| h == short) {
                hostnames.push(short.to_string());
            }
        }
        let mut usernames: Vec<String> = hostnames
            .iter()
            .flat_map(|h| self.users_of_host_ref(h).iter().cloned())
            .collect();
        usernames.sort();
        usernames.dedup();
        EndpointView {
            usernames,
            hostnames,
            ip,
            port,
            mac: Some(mac),
            switch_port: switch.map(|(_, p)| p),
            switch_dpid: switch.map(|(d, _)| d),
        }
    }

    /// Enriches both sides of a parsed packet received at `(dpid, in_port)`.
    pub fn resolve_flow(
        &mut self,
        headers: &PacketHeaders,
        dpid: u64,
        in_port: u32,
    ) -> (EndpointView, EndpointView) {
        let src = self.resolve_endpoint(
            headers.ipv4_src,
            headers.l4_src(),
            headers.eth_src,
            Some((dpid, in_port)),
        );
        let dst_loc = self.location_of(dpid, headers.eth_dst).map(|p| (dpid, p));
        let dst =
            self.resolve_endpoint(headers.ipv4_dst, headers.l4_dst(), headers.eth_dst, dst_loc);
        (src, dst)
    }

    /// Resolutions performed (utilization accounting).
    #[must_use]
    pub fn resolution_count(&self) -> u64 {
        self.resolutions
    }

    /// Total bindings stored across all classes.
    #[must_use]
    pub fn binding_count(&self) -> usize {
        self.n_user_host + self.n_host_ip + self.n_ip_mac + self.mac_location.len()
    }

    /// Current index sizes (observability; printed by the bench harness).
    #[must_use]
    pub fn index_sizes(&self) -> ErmIndexSizes {
        ErmIndexSizes {
            ips_with_hosts: self.ip_to_hosts.len(),
            hosts_with_users: self.host_to_users.len(),
            ips_with_macs: self.ip_to_macs.len(),
            mac_locations: self.mac_location.len(),
            bindings: self.binding_count(),
        }
    }
}

/// Hostname bindings from DNS are fully qualified (`h1.corp.local`) while
/// SIEM log-on events use short machine names (`h1`); the user lookup
/// bridges the two.
fn short_name(fqdn: &str) -> &str {
    fqdn.split('.').next().unwrap_or(fqdn)
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP1: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 5);
    const IP2: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 9);

    fn mac(i: u32) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn populated() -> EntityResolver {
        let mut e = EntityResolver::new();
        e.bind(Binding::HostIp {
            host: "alice-laptop.corp.local".into(),
            ip: IP1,
        });
        e.bind(Binding::IpMac {
            ip: IP1,
            mac: mac(1),
        });
        e.bind(Binding::UserHost {
            user: "alice".into(),
            host: "alice-laptop".into(),
        });
        e.bind(Binding::MacLocation {
            mac: mac(1),
            dpid: 7,
            port: 3,
        });
        e
    }

    #[test]
    fn binding_chain_resolves_up_to_user() {
        let mut e = populated();
        let v = e.resolve_endpoint(Some(IP1), Some(445), mac(1), Some((7, 3)));
        assert_eq!(
            v.hostnames,
            vec!["alice-laptop.corp.local", "alice-laptop"],
            "both the FQDN and the short name are exposed"
        );
        assert_eq!(v.usernames, vec!["alice"]);
        assert_eq!(v.ip, Some(IP1));
        assert_eq!(v.switch_dpid, Some(7));
        assert_eq!(v.switch_port, Some(3));
    }

    #[test]
    fn unbound_ip_resolves_to_low_level_only() {
        let mut e = populated();
        let v = e.resolve_endpoint(Some(IP2), None, mac(2), None);
        assert!(v.hostnames.is_empty());
        assert!(v.usernames.is_empty());
        assert_eq!(v.mac, Some(mac(2)));
    }

    #[test]
    fn unbind_removes_exactly_one_pair() {
        let mut e = populated();
        e.bind(Binding::UserHost {
            user: "bob".into(),
            host: "alice-laptop".into(),
        });
        assert_eq!(e.users_of_host("alice-laptop"), vec!["alice", "bob"]);
        e.unbind(&Binding::UserHost {
            user: "alice".into(),
            host: "alice-laptop".into(),
        });
        assert_eq!(e.users_of_host("alice-laptop"), vec!["bob"]);
        // Unbinding a host's last address drops the IP's entry, so index
        // sizes reflect live keys.
        e.unbind(&Binding::HostIp {
            host: "alice-laptop.corp.local".into(),
            ip: IP1,
        });
        assert!(e.hosts_of_ip(IP1).is_empty());
        assert_eq!(e.index_sizes().ips_with_hosts, 0);
    }

    #[test]
    fn many_to_many_users_and_hosts() {
        let mut e = EntityResolver::new();
        e.bind(Binding::UserHost {
            user: "alice".into(),
            host: "h1".into(),
        });
        e.bind(Binding::UserHost {
            user: "alice".into(),
            host: "h2".into(),
        });
        e.bind(Binding::UserHost {
            user: "bob".into(),
            host: "h1".into(),
        });
        assert_eq!(e.users_of_host("h1"), vec!["alice", "bob"]);
        assert_eq!(e.users_of_host("h2"), vec!["alice"]);
    }

    #[test]
    fn mac_location_is_exclusive_per_switch() {
        let mut e = populated();
        // The host moves to another port on the same switch: the binding
        // must follow, not accumulate.
        e.bind(Binding::MacLocation {
            mac: mac(1),
            dpid: 7,
            port: 9,
        });
        assert_eq!(e.location_of(7, mac(1)), Some(9));
        // A different switch keeps its own view.
        e.bind(Binding::MacLocation {
            mac: mac(1),
            dpid: 8,
            port: 1,
        });
        assert_eq!(e.location_of(7, mac(1)), Some(9));
        assert_eq!(e.location_of(8, mac(1)), Some(1));
    }

    #[test]
    fn spoof_check_catches_ip_mac_mismatch() {
        let e = populated();
        assert_eq!(e.spoof_check(Some(IP1), mac(1)), SpoofVerdict::Consistent);
        assert_eq!(
            e.spoof_check(Some(IP1), mac(66)),
            SpoofVerdict::IpMacMismatch,
            "someone else claiming alice's IP"
        );
        assert_eq!(
            e.spoof_check(Some(IP2), mac(66)),
            SpoofVerdict::Consistent,
            "unbound IPs pass"
        );
        assert_eq!(e.spoof_check(None, mac(66)), SpoofVerdict::Consistent);
    }

    #[test]
    fn resolve_flow_enriches_both_sides() {
        let mut e = populated();
        e.bind(Binding::HostIp {
            host: "bob-desktop.corp.local".into(),
            ip: IP2,
        });
        e.bind(Binding::UserHost {
            user: "bob".into(),
            host: "bob-desktop".into(),
        });
        e.bind(Binding::MacLocation {
            mac: mac(2),
            dpid: 7,
            port: 5,
        });
        let frame = dfi_packet::headers::build::tcp_syn(mac(1), mac(2), IP1, IP2, 50_000, 25);
        let headers = PacketHeaders::parse(&frame).unwrap();
        let (src, dst) = e.resolve_flow(&headers, 7, 3);
        assert_eq!(src.usernames, vec!["alice"]);
        assert_eq!(dst.usernames, vec!["bob"]);
        assert_eq!(dst.port, Some(25));
        assert_eq!(dst.switch_port, Some(5), "dst located via MAC binding");
        assert_eq!(e.resolution_count(), 2);
    }

    #[test]
    fn fqdn_and_short_names_bridge() {
        assert_eq!(short_name("h1.corp.local"), "h1");
        assert_eq!(short_name("h1"), "h1");
    }

    #[test]
    fn binding_count_tracks_all_classes() {
        let e = populated();
        assert_eq!(e.binding_count(), 4);
    }

    #[test]
    fn bind_reports_effective_change() {
        let mut e = EntityResolver::new();
        let b = Binding::HostIp {
            host: "h1.corp.local".into(),
            ip: IP1,
        };
        assert!(e.bind(b.clone()), "first bind changes the store");
        assert!(!e.bind(b.clone()), "re-bind of the same pair is a no-op");
        assert!(e.unbind(&b), "unbind of a live pair");
        assert!(!e.unbind(&b), "double unbind is a no-op");
        assert_eq!(e.binding_count(), 0);

        // MAC location: same port re-bind is a no-op, a move is a change.
        let loc = Binding::MacLocation {
            mac: mac(1),
            dpid: 7,
            port: 3,
        };
        assert!(e.bind(loc.clone()));
        assert!(!e.bind(loc));
        assert!(e.bind(Binding::MacLocation {
            mac: mac(1),
            dpid: 7,
            port: 9,
        }));
    }

    #[test]
    fn index_sizes_snapshot() {
        let e = populated();
        let s = e.index_sizes();
        assert_eq!(s.ips_with_hosts, 1);
        assert_eq!(s.hosts_with_users, 1);
        assert_eq!(s.ips_with_macs, 1);
        assert_eq!(s.mac_locations, 1);
        assert_eq!(s.bindings, 4);
    }
}
