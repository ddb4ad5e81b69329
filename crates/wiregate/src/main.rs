//! Wire-path allocation and speedup gate.
//!
//! Installs a counting `GlobalAlloc` over `System` and measures the
//! zero-copy OpenFlow wire path against the decode → rewrite → re-encode
//! oracle it replaced:
//!
//! * `encode` — fresh `encode()` per message vs `encode_into` a reused
//!   buffer,
//! * `shift_up` / `shift_down` — the splice in-place table rewrite vs the
//!   full-decode oracle,
//! * `batch` — FlowMod + Barrier framed back-to-back into one buffer vs
//!   two separate encodes,
//! * `steady_state` — the proxy's pooled acquire → copy → splice →
//!   release cycle, which must allocate nothing per flow once warm.
//!
//! Prints a JSON report to stdout (captured into `BENCH_wire.json` by
//! `scripts/check.sh --wire`). With `--gate N` it exits non-zero unless
//! both splice directions are at least `N`× the oracle and the steady
//! state stays at zero allocations per flow.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::process::ExitCode;

use dfi_core::rewrite::{
    rewrite_controller_frame_in_place, rewrite_controller_to_switch, rewrite_switch_frame_in_place,
    rewrite_switch_to_controller, ControllerFrame, SwitchFrame, Upstream,
};
use dfi_core::BufPool;
use dfi_openflow::{
    Action, FlowMod, FlowStatsEntry, Instruction, Match, Message, MultipartReply, OfMessage,
};
use dfi_wiregate::{fmt_measure, measure, provenance_json, CountingAlloc, Measure};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

const N_TABLES: u8 = 8;

/// A representative PCP-style exact-match flow-mod with a goto chain.
fn sample_flow_mod(i: u32) -> FlowMod {
    FlowMod {
        cookie: u64::from(i),
        table_id: 2,
        priority: 100,
        mat: Match {
            in_port: Some(1 + i % 40),
            eth_type: Some(0x0800),
            ip_proto: Some(6),
            ipv4_src: Some(Ipv4Addr::from(0x0A00_0000 + i)),
            ipv4_dst: Some(Ipv4Addr::from(0x0A40_0000 + i)),
            tcp_src: Some(40_000 + (i % 1000) as u16),
            tcp_dst: Some(445),
            ..Match::default()
        },
        instructions: vec![
            Instruction::ApplyActions(vec![Action::output(2)]),
            Instruction::GotoTable(3),
        ],
        ..FlowMod::add()
    }
}

/// A two-entry flow-stats reply the splicer can patch in place.
fn sample_stats_reply() -> OfMessage {
    let entry = |table_id: u8| FlowStatsEntry {
        table_id,
        duration_sec: 12,
        duration_nsec: 0,
        priority: 100,
        idle_timeout: 30,
        hard_timeout: 0,
        flags: 0,
        cookie: u64::from(table_id),
        packet_count: 1_000,
        byte_count: 64_000,
        mat: Match {
            eth_type: Some(0x0800),
            ipv4_dst: Some(Ipv4Addr::new(10, 0, 0, 7)),
            ..Match::default()
        },
        instructions: vec![Instruction::GotoTable(table_id + 1)],
    };
    OfMessage::new(
        5,
        Message::MultipartReply(MultipartReply::Flow(vec![entry(2), entry(5)])),
    )
}

struct Report {
    encode_fresh: Measure,
    encode_pooled: Measure,
    up_oracle: Measure,
    up_splice: Measure,
    down_oracle: Measure,
    down_splice: Measure,
    batch_fresh: Measure,
    batch_pooled: Measure,
    steady: Measure,
}

#[allow(clippy::too_many_lines)]
fn run(iters: u64) -> Report {
    let fm_msg = OfMessage::new(7, Message::FlowMod(sample_flow_mod(1)));
    let fm_frame = fm_msg.encode();
    let stats_msg = sample_stats_reply();
    let stats_frame = stats_msg.encode();
    let barrier = OfMessage::new(8, Message::BarrierRequest);

    // encode: fresh Vec per message vs encode_into a reused buffer.
    let encode_fresh = measure(iters, || {
        black_box(fm_msg.encode());
    });
    let mut buf = Vec::new();
    let encode_pooled = measure(iters, || {
        buf.clear();
        fm_msg.encode_into(&mut buf);
        black_box(buf.len());
    });

    // Controller→switch table shift: full decode oracle vs splice.
    let up_oracle = measure(iters, || {
        let msg = OfMessage::decode(&fm_frame).expect("frame decodes");
        match rewrite_controller_to_switch(msg, N_TABLES) {
            Upstream::Forward(msgs) => {
                for m in &msgs {
                    black_box(m.encode());
                }
            }
            Upstream::Reject => unreachable!("sample flow-mod is in range"),
        }
    });
    let mut buf = Vec::new();
    let up_splice = measure(iters, || {
        buf.clear();
        buf.extend_from_slice(&fm_frame);
        let v = rewrite_controller_frame_in_place(&mut buf, N_TABLES);
        assert_eq!(v, ControllerFrame::Forward { spliced: true });
        black_box(buf.len());
    });

    // Switch→controller table shift on a stats reply.
    let down_oracle = measure(iters, || {
        let msg = OfMessage::decode(&stats_frame).expect("frame decodes");
        let out = rewrite_switch_to_controller(msg).expect("forwarded");
        black_box(out.encode());
    });
    let mut buf = Vec::new();
    let down_splice = measure(iters, || {
        buf.clear();
        buf.extend_from_slice(&stats_frame);
        let v = rewrite_switch_frame_in_place(&mut buf);
        assert_eq!(v, SwitchFrame::Forward { spliced: true });
        black_box(buf.len());
    });

    // Tracked install: FlowMod + Barrier as two encodes vs one batch frame.
    let batch_fresh = measure(iters, || {
        black_box(fm_msg.encode());
        black_box(barrier.encode());
    });
    let mut buf = Vec::new();
    let batch_pooled = measure(iters, || {
        buf.clear();
        fm_msg.encode_into(&mut buf);
        barrier.encode_into(&mut buf);
        black_box(buf.len());
    });

    // The proxy's full per-frame cycle: pooled acquire → copy → splice →
    // release. Must be allocation-free once the pool is warm.
    let pool = BufPool::default();
    let steady = measure(iters, || {
        let mut buf = pool.acquire();
        buf.extend_from_slice(&stats_frame);
        let v = rewrite_switch_frame_in_place(&mut buf);
        assert_eq!(v, SwitchFrame::Forward { spliced: true });
        black_box(buf.len());
        pool.release(buf);
    });

    Report {
        encode_fresh,
        encode_pooled,
        up_oracle,
        up_splice,
        down_oracle,
        down_splice,
        batch_fresh,
        batch_pooled,
        steady,
    }
}

fn main() -> ExitCode {
    let mut gate: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                let v = args.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--gate requires a numeric speedup factor");
                    return ExitCode::FAILURE;
                };
                gate = Some(v);
            }
            other => {
                eprintln!("unknown argument: {other}\nusage: dfi-wiregate [--gate N]");
                return ExitCode::FAILURE;
            }
        }
    }
    let iters: u64 = std::env::var("WIREGATE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);

    let r = run(iters);
    let up_speedup = r.up_oracle.ns_per_op / r.up_splice.ns_per_op;
    let down_speedup = r.down_oracle.ns_per_op / r.down_splice.ns_per_op;
    let fmt = fmt_measure;
    println!("{{");
    println!(
        "  \"config\": {{\"iters\": {iters}, \"required_speedup\": {}}},",
        gate.map_or_else(|| "null".to_string(), |g| format!("{g:.1}"))
    );
    println!("  {},", provenance_json());
    println!(
        "  \"encode\": {{\"fresh\": {}, \"pooled\": {}}},",
        fmt(r.encode_fresh),
        fmt(r.encode_pooled)
    );
    println!(
        "  \"shift_up\": {{\"oracle\": {}, \"splice\": {}, \"speedup\": {up_speedup:.2}}},",
        fmt(r.up_oracle),
        fmt(r.up_splice)
    );
    println!(
        "  \"shift_down\": {{\"oracle\": {}, \"splice\": {}, \"speedup\": {down_speedup:.2}}},",
        fmt(r.down_oracle),
        fmt(r.down_splice)
    );
    println!(
        "  \"batch\": {{\"fresh\": {}, \"pooled\": {}}},",
        fmt(r.batch_fresh),
        fmt(r.batch_pooled)
    );
    println!(
        "  \"steady_state\": {{\"ns_per_flow\": {:.1}, \"allocs_per_flow\": {:.3}}},",
        r.steady.ns_per_op, r.steady.allocs_per_op
    );
    println!(
        "  \"gate\": {{\"required_speedup\": {}, \"pass\": {}}}",
        gate.map_or_else(|| "null".to_string(), |g| format!("{g:.1}")),
        gate.is_none_or(|g| up_speedup >= g && down_speedup >= g && r.steady.allocs_per_op <= 0.01)
    );
    println!("}}");

    if let Some(g) = gate {
        let mut failed = false;
        if up_speedup < g {
            eprintln!("GATE FAIL: shift_up speedup {up_speedup:.2}x < required {g:.1}x");
            failed = true;
        }
        if down_speedup < g {
            eprintln!("GATE FAIL: shift_down speedup {down_speedup:.2}x < required {g:.1}x");
            failed = true;
        }
        if r.steady.allocs_per_op > 0.01 {
            eprintln!(
                "GATE FAIL: steady-state wire path allocates {:.3} allocs/flow (want 0)",
                r.steady.allocs_per_op
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "gate ok: shift_up {up_speedup:.2}x, shift_down {down_speedup:.2}x, \
             steady-state {:.3} allocs/flow",
            r.steady.allocs_per_op
        );
    }
    ExitCode::SUCCESS
}
