//! Figure 4 — Time to First Byte (TTFB) for new flows at different flow
//! arrival rates, with and without DFI.
//!
//! Paper: without DFI, TTFB is nearly constant at 4–6 ms. With DFI it
//! starts at ~22 ms, rises to ~85 ms at 700 flows/sec, shows high variance
//! past ~800 flows/sec (queueing), and the mean plateaus around 200 ms
//! once the bounded queue drops flows that must be retransmitted.

use dfi_bench::{header, point, quick, row};
use dfi_cbench::ttfb;
use std::time::Duration;

fn main() {
    header("Figure 4: TTFB vs flow arrival rate");
    let rates: &[f64] = if quick() {
        &[0.0, 300.0, 700.0]
    } else {
        &[
            0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 1000.0, 1200.0, 1400.0,
        ]
    };
    let probes = if quick() { 30 } else { 60 };

    println!("-- condition: without DFI (paper: flat 4-6ms) --");
    for &rate in rates {
        let r = ttfb::run(&ttfb::TtfbConfig {
            with_dfi: false,
            background_rate: rate,
            probes,
            warmup: Duration::from_secs(2),
            ..ttfb::TtfbConfig::default()
        });
        point("ttfb_no_dfi_ms", rate, r.ttfb.mean() * 1e3);
    }

    println!("-- condition: with DFI (paper: 22ms -> ~85ms @700, plateau ~200ms) --");
    for &rate in rates {
        let r = ttfb::run(&ttfb::TtfbConfig {
            with_dfi: true,
            background_rate: rate,
            probes,
            warmup: Duration::from_secs(2),
            ..ttfb::TtfbConfig::default()
        });
        point("ttfb_dfi_ms", rate, r.ttfb.mean() * 1e3);
        if let Some(m) = &r.dfi {
            println!(
                "    (std={:.1}ms dropped={} retx={} failed={})",
                r.ttfb.std_dev() * 1e3,
                m.dropped,
                r.retransmissions,
                r.failed_probes
            );
            println!(
                "    (resolved+classified={} erm ips={})",
                m.decision_cache_misses, m.erm_index.ips_with_hosts,
            );
        }
    }

    // Summary rows mirroring the paper's prose.
    let no_load = ttfb::run(&ttfb::TtfbConfig {
        with_dfi: true,
        probes,
        warmup: Duration::from_secs(1),
        ..ttfb::TtfbConfig::default()
    });
    let no_load_plain = ttfb::run(&ttfb::TtfbConfig {
        with_dfi: false,
        probes,
        warmup: Duration::from_secs(1),
        ..ttfb::TtfbConfig::default()
    });
    row(
        "Added TTFB latency under no load",
        "17.8ms",
        &format!(
            "{:.1}ms ({:.1} - {:.1})",
            (no_load.ttfb.mean() - no_load_plain.ttfb.mean()) * 1e3,
            no_load.ttfb.mean() * 1e3,
            no_load_plain.ttfb.mean() * 1e3
        ),
    );
    // Hot-path internals (not in the paper): resolution and classification
    // never change simulated service times — these rows exist to show the
    // CPU-side machinery is live and consistent.
    if let Some(m) = &no_load.dfi {
        row(
            "Decisions resolved + classified (no load)",
            "n/a",
            &format!("{} of {} packet-ins", m.decision_cache_misses, m.packet_ins),
        );
        row(
            "ERM index sizes (ip->host/host->user/ip->mac)",
            "n/a",
            &format!(
                "{}/{}/{}",
                m.erm_index.ips_with_hosts, m.erm_index.hosts_with_users, m.erm_index.ips_with_macs
            ),
        );
    }
}
