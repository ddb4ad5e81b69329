//! Controller-obliviousness of the Packet-In header: an allowed
//! Packet-In reaches the controller under the transaction id the switch
//! gave it. A proxy constant there would tell a controller, from a single
//! Packet-In, that DFI sits in between — the kind of fingerprint that
//! breaks the paper's claim that the controller cannot observe DFI.
//! Checked on the single-flow path (a real punt) and on the burst path
//! (two Packet-Ins in one read).

use dfi_repro::core::policy::PolicyRule;
use dfi_repro::core::Dfi;
use dfi_repro::dataplane::{ByteSink, Network, SwitchConfig};
use dfi_repro::openflow::{Message, OfMessage, PacketIn};
use dfi_repro::packet::headers::build;
use dfi_repro::packet::MacAddr;
use dfi_repro::simnet::Sim;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

const LAT: Duration = Duration::from_micros(50);

fn syn(sport: u16) -> Vec<u8> {
    build::tcp_syn(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        sport,
        80,
    )
}

/// The xids of every Packet-In framed in `bytes`, in order.
fn packet_in_xids(bytes: &[u8]) -> Vec<u32> {
    let mut xids = Vec::new();
    let mut offset = 0;
    while let Some(len) = OfMessage::frame_length(&bytes[offset..]) {
        if len < 8 || offset + len > bytes.len() {
            break;
        }
        if let Ok(msg) = OfMessage::decode(&bytes[offset..offset + len]) {
            if matches!(msg.body, Message::PacketIn(_)) {
                xids.push(msg.xid);
            }
        }
        offset += len;
    }
    xids
}

/// A sink that records the Packet-In xids it sees, then passes the bytes
/// on to `next` (if any).
fn xid_tap(log: &Rc<RefCell<Vec<u32>>>, next: Option<ByteSink>) -> ByteSink {
    let log = Rc::clone(log);
    Rc::new(move |sim: &mut Sim, bytes: &[u8]| {
        log.borrow_mut().extend(packet_in_xids(bytes));
        if let Some(next) = &next {
            next(sim, bytes);
        }
    })
}

#[test]
fn allowed_packet_ins_reach_the_controller_under_the_switch_xid() {
    let mut sim = Sim::new(21);
    let mut net = Network::new();
    let sw = net.add_switch(SwitchConfig::new(1));
    let tx = net.attach_host(&sw, 1, LAT, Rc::new(|_, _| {}));
    let _rx = net.attach_host(&sw, 2, LAT, Rc::new(|_, _| {}));
    let dfi = Dfi::with_defaults();
    dfi.insert_policy(&mut sim, PolicyRule::allow_all(), 1, "test");
    let sent = Rc::new(RefCell::new(Vec::new()));
    let received = Rc::new(RefCell::new(Vec::new()));
    let conn = dfi.attach_switch_channel(sw.control_ingress(), sw.dpid());
    sw.connect_control(&mut sim, xid_tap(&sent, Some(dfi.from_switch_sink(conn))));
    dfi.set_controller_sink(conn, xid_tap(&received, None));
    sim.run();

    // One punt: the controller sees the switch's own numbering.
    tx.send(&mut sim, syn(40_000));
    sim.run();
    assert_eq!(sent.borrow().len(), 1, "the flow punted once");
    assert_eq!(
        *received.borrow(),
        *sent.borrow(),
        "single path keeps the xid"
    );

    // Two Packet-Ins in one read take the burst path.
    received.borrow_mut().clear();
    let xids = [0x0102_0304, 0x0102_0305];
    let mut burst = Vec::new();
    for (xid, sport) in xids.into_iter().zip([40_001, 40_002]) {
        let pi = PacketIn::table_miss(1, 0, syn(sport));
        OfMessage::new(xid, Message::PacketIn(pi)).encode_into(&mut burst);
    }
    dfi.from_switch_sink(conn)(&mut sim, &burst);
    sim.run();
    assert_eq!(dfi.metrics().packet_in_bursts, 1, "the read was one burst");
    assert_eq!(*received.borrow(), xids, "burst path keeps each xid");
}
