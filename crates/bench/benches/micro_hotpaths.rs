//! Criterion microbenchmarks of the hot paths: wire codecs, flow-table
//! lookup, and policy matching. These measure real CPU time (not virtual
//! time) — the per-packet costs a production deployment of this code
//! would pay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dfi_core::erm::{Binding, EntityResolver};
use dfi_core::policy::{
    EndpointPattern, EndpointView, FlowView, PolicyManager, PolicyRule, PolicySnapshot,
};
use dfi_dataplane::FlowTable;
use dfi_openflow::{Action, FlowMod, Instruction, Match, Message, OfMessage, PacketIn};
use dfi_packet::headers::build;
use dfi_packet::{MacAddr, PacketHeaders};
use dfi_simnet::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn sample_frame(i: u32) -> Vec<u8> {
    build::tcp_syn(
        MacAddr::from_index(i),
        MacAddr::from_index(i + 1),
        Ipv4Addr::from(0x0A00_0000 + i),
        Ipv4Addr::from(0x0A40_0000 + i),
        40_000 + (i % 1000) as u16,
        445,
    )
}

fn sample_flow_mod(i: u32) -> FlowMod {
    let h = PacketHeaders::parse(&sample_frame(i)).unwrap();
    FlowMod {
        cookie: u64::from(i),
        priority: 100,
        mat: Match::exact_from_headers(1 + i % 40, &h),
        instructions: vec![Instruction::ApplyActions(vec![Action::output(2)])],
        ..FlowMod::add()
    }
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("openflow_codec");
    let fm_msg = OfMessage::new(7, Message::FlowMod(sample_flow_mod(1)));
    let fm_bytes = fm_msg.encode();
    g.bench_function("flow_mod_encode", |b| b.iter(|| black_box(fm_msg.encode())));
    g.bench_function("flow_mod_decode", |b| {
        b.iter(|| black_box(OfMessage::decode(black_box(&fm_bytes)).unwrap()));
    });
    let pi_msg = OfMessage::new(
        9,
        Message::PacketIn(PacketIn::table_miss(3, 0, sample_frame(2))),
    );
    let pi_bytes = pi_msg.encode();
    g.bench_function("packet_in_encode", |b| {
        b.iter(|| black_box(pi_msg.encode()));
    });
    g.bench_function("packet_in_decode", |b| {
        b.iter(|| black_box(OfMessage::decode(black_box(&pi_bytes)).unwrap()));
    });
    g.finish();

    let mut g = c.benchmark_group("packet_codec");
    let frame = sample_frame(3);
    g.bench_function("headers_parse", |b| {
        b.iter(|| black_box(PacketHeaders::parse(black_box(&frame)).unwrap()));
    });
    g.bench_function("tcp_syn_build", |b| {
        b.iter(|| black_box(sample_frame(black_box(4))));
    });
    g.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_table");
    for &n in &[100usize, 1_000, 10_000] {
        let mut table = FlowTable::new(1_000_000);
        for i in 0..n as u32 {
            table.add(&sample_flow_mod(i), SimTime::ZERO).unwrap();
        }
        let h = PacketHeaders::parse(&sample_frame((n / 2) as u32)).unwrap();
        let in_port = 1 + (n as u32 / 2) % 40;
        g.bench_function(format!("exact_lookup_{n}_rules"), |b| {
            b.iter_batched_ref(
                || table.clone(),
                |t| black_box(t.lookup(in_port, &h, 64, SimTime::ZERO)),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_manager");
    for &n in &[10usize, 100, 1_000, 10_000] {
        let mut pm = PolicyManager::new();
        for i in 0..n {
            pm.insert(
                PolicyRule::allow(
                    EndpointPattern::host(&format!("h{i}")),
                    EndpointPattern::host(&format!("h{}", i + 1)),
                ),
                10,
                "bench",
            );
        }
        let flow = FlowView {
            ethertype: 0x0800,
            ip_proto: Some(6),
            src: EndpointView {
                hostnames: vec![format!("h{}", n / 2)],
                ..EndpointView::default()
            },
            dst: EndpointView {
                hostnames: vec![format!("h{}", n / 2 + 1)],
                ..EndpointView::default()
            },
        };
        // The decide path and its oracle, same decision (proven by
        // proptest): the compiled immutable snapshot and the full-scan
        // reference.
        let snap = PolicySnapshot::compile(&pm, 1);
        g.bench_function(format!("snapshot_classify_{n}_rules"), |b| {
            b.iter(|| black_box(snap.classify(black_box(&flow))));
        });
        g.bench_function(format!("query_linear_{n}_rules"), |b| {
            b.iter(|| black_box(pm.query_linear(black_box(&flow))));
        });
    }
    g.finish();
}

fn bench_erm(c: &mut Criterion) {
    let mut g = c.benchmark_group("entity_resolver");
    for &n in &[100usize, 10_000] {
        let mut erm = EntityResolver::new();
        for i in 0..n {
            let ip = Ipv4Addr::from(0x0A00_0000 + i as u32);
            erm.bind(Binding::HostIp {
                host: format!("h{i}.corp.local"),
                ip,
            });
            erm.bind(Binding::UserHost {
                user: format!("user{i}"),
                host: format!("h{i}"),
            });
            erm.bind(Binding::IpMac {
                ip,
                mac: MacAddr::from_index(i as u32),
            });
        }
        let ip = Ipv4Addr::from(0x0A00_0000 + (n / 2) as u32);
        let mac = MacAddr::from_index((n / 2) as u32);
        g.bench_function(format!("resolve_endpoint_{n}_bindings"), |b| {
            b.iter(|| {
                black_box(erm.resolve_endpoint(
                    black_box(Some(ip)),
                    Some(445),
                    mac,
                    Some((0xD1, 3)),
                ))
            });
        });
        g.bench_function(format!("spoof_check_{n}_bindings"), |b| {
            b.iter(|| black_box(erm.spoof_check(black_box(Some(ip)), mac)));
        });
    }
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    use dfi_core::rewrite::{
        rewrite_controller_frame_in_place, rewrite_controller_to_switch,
        rewrite_switch_frame_in_place, ControllerFrame, SwitchFrame, Upstream,
    };
    use dfi_core::BufPool;

    let mut g = c.benchmark_group("wire_path");
    let fm_msg = OfMessage::new(7, Message::FlowMod(sample_flow_mod(1)));
    let fm_frame = fm_msg.encode();
    let barrier = OfMessage::new(8, Message::BarrierRequest);

    // encode(): a fresh Vec per message vs encode_into a reused buffer.
    g.bench_function("flow_mod_encode_fresh", |b| {
        b.iter(|| black_box(fm_msg.encode()));
    });
    g.bench_function("flow_mod_encode_into_reused", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            fm_msg.encode_into(&mut buf);
            black_box(buf.len())
        });
    });

    // Table shift, controller→switch: the decode → rewrite → re-encode
    // oracle vs the splice patch (same bytes out, proven by the
    // splice_oracle differential suite).
    g.bench_function("table_shift_oracle", |b| {
        b.iter(|| {
            let msg = OfMessage::decode(&fm_frame).unwrap();
            match rewrite_controller_to_switch(msg, 8) {
                Upstream::Forward(msgs) => {
                    for m in &msgs {
                        black_box(m.encode());
                    }
                }
                Upstream::Reject => unreachable!(),
            }
        });
    });
    g.bench_function("table_shift_splice", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&fm_frame);
            assert_eq!(
                rewrite_controller_frame_in_place(&mut buf, 8),
                ControllerFrame::Forward { spliced: true }
            );
            black_box(buf.len())
        });
    });

    // Tracked install: FlowMod + Barrier as two frames vs one batch buffer.
    g.bench_function("install_two_encodes", |b| {
        b.iter(|| {
            black_box(fm_msg.encode());
            black_box(barrier.encode())
        });
    });
    g.bench_function("install_batched_into_buf", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            fm_msg.encode_into(&mut buf);
            barrier.encode_into(&mut buf);
            black_box(buf.len())
        });
    });

    // The proxy's full per-frame cycle on the switch→controller path:
    // pooled acquire → copy → splice → release (0 allocs once warm; the
    // allocation count itself is gated by `dfi-wiregate --gate`).
    let pi_frame = OfMessage::new(
        3,
        Message::FlowRemoved(dfi_openflow::FlowRemoved {
            cookie: 1,
            priority: 100,
            reason: dfi_openflow::FlowRemovedReason::IdleTimeout,
            table_id: 3,
            duration_sec: 9,
            duration_nsec: 0,
            idle_timeout: 30,
            hard_timeout: 0,
            packet_count: 10,
            byte_count: 640,
            mat: Match::exact_from_headers(4, &PacketHeaders::parse(&sample_frame(6)).unwrap()),
        }),
    )
    .encode();
    g.bench_function("pooled_switch_frame_cycle", |b| {
        let pool = BufPool::default();
        b.iter(|| {
            let mut buf = pool.acquire();
            buf.extend_from_slice(&pi_frame);
            assert_eq!(
                rewrite_switch_frame_in_place(&mut buf),
                SwitchFrame::Forward { spliced: true }
            );
            black_box(buf.len());
            pool.release(buf);
        });
    });
    g.finish();
}

fn bench_sim_kernel(c: &mut Criterion) {
    use dfi_simnet::Sim;
    let mut g = c.benchmark_group("sim_kernel");
    g.bench_function("schedule_and_run_10k_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_nanos(i * 100), |_| {});
            }
            sim.run();
            black_box(sim.events_executed())
        });
    });
    g.bench_function("station_pipeline_1k_jobs", |b| {
        use dfi_simnet::{Dist, Station, StationConfig};
        b.iter(|| {
            let mut sim = Sim::new(2);
            let st = Station::new(StationConfig {
                workers: 8,
                ..StationConfig::simple("b", Dist::normal_ms(1.0, 0.2))
            });
            for _ in 0..1_000 {
                st.submit(&mut sim, |_| {});
            }
            sim.run();
            black_box(st.stats().completed)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_flow_table,
    bench_policy,
    bench_erm,
    bench_wire,
    bench_sim_kernel
);
criterion_main!(benches);
