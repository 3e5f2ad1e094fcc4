//! Partial-I/O torture for the kvstore framing and event loop.
//!
//! The epoll server must be indifferent to how bytes are sliced by the
//! transport: requests arriving one byte at a time (maximally fragmented
//! frames), and responses drained by a peer whose kernel receive buffer is
//! tiny (forcing the server through many short `writev` passes and
//! `EPOLLOUT` re-arms).  Blob values large enough to span several read and
//! write passes make the fragmentation bite mid-value, not just mid-header.

use kvstore::proto::{self, Request, Response};
use kvstore::{Cmd, CmdOut, Server, ServerConfig};
use pmem::Value;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Drives a raw socket: writes `dribbled` one byte at a time and then
/// `burst` with a single `write`, then reads every response frame, returning
/// `(req_id, response)` pairs in arrival order.
fn dribble_roundtrip(
    addr: std::net::SocketAddr,
    dribbled: &[u8],
    burst: &[u8],
    expect: usize,
) -> Vec<(u32, Response)> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    // A tiny receive buffer keeps the server's responses from landing in
    // one kernel-buffered push: its write side hits WouldBlock and must
    // finish over multiple EPOLLOUT wakeups.
    kvstore::sys::set_rcvbuf(&sock, 2048).expect("SO_RCVBUF");

    // Maximal fragmentation on the request path: one byte per write.  No
    // flushes or sleeps needed — each write is its own TCP segment boundary
    // as far as the server's reader is concerned.
    for chunk in dribbled.chunks(1) {
        sock.write_all(chunk).expect("dribble write");
    }
    // The burst lands in one segment, so the server reads its requests in
    // one pass and queues all their responses before its next flush.
    sock.write_all(burst).expect("burst write");

    let mut got = Vec::new();
    let mut buf = Vec::new();
    let mut pos = 0usize;
    let mut chunk = [0u8; 512];
    while got.len() < expect {
        let n = sock.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed early: got {} of {expect}", got.len());
        buf.extend_from_slice(&chunk[..n]);
        while let Some(frame) = proto::take_frame(&buf, &mut pos).expect("valid frame") {
            got.push(proto::decode_response(frame).expect("decodable response"));
        }
    }
    assert_eq!(pos, buf.len(), "no trailing bytes after the last frame");
    got
}

#[test]
fn one_byte_writes_and_tiny_rcvbuf_preserve_framing_and_order() {
    let server = Server::start(&ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Blob values spanning multiple 2 KiB receive windows (and multiple
    // 512 B client read passes).
    let big_a: Vec<u8> = (0..48_000usize).map(|i| (i % 251) as u8).collect();
    let big_b: Vec<u8> = (0..30_000usize).map(|i| (i % 241) as u8).collect();

    // The two PUTBs are dribbled byte by byte.  The four requests with
    // large responses follow in one write: if they trickled in too, a 48 KB
    // response could fit the server's kernel send buffer in one
    // single-buffer write before the next request completed, and no two
    // responses would ever share a flush.
    let mut puts = Vec::new();
    proto::encode_request(
        &mut puts,
        1,
        &Request::Cmd(Cmd::PutB(10, Value::from_bytes(&big_a))),
    );
    proto::encode_request(
        &mut puts,
        2,
        &Request::Cmd(Cmd::PutB(11, Value::from_bytes(&big_b))),
    );
    let mut reads = Vec::new();
    proto::encode_request(&mut reads, 3, &Request::Cmd(Cmd::GetB(10)));
    proto::encode_request(&mut reads, 4, &Request::Cmd(Cmd::MGetB(vec![10, 11, 12])));
    proto::encode_request(&mut reads, 5, &Request::Cmd(Cmd::GetB(11)));
    proto::encode_request(&mut reads, 6, &Request::Cmd(Cmd::DelB(10)));

    let got = dribble_roundtrip(addr, &puts, &reads, 6);

    // Responses arrive strictly in request order with the ids echoed.
    let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);

    assert_eq!(got[0].1, Response::Ok(CmdOut::PrevB(None)));
    assert_eq!(got[1].1, Response::Ok(CmdOut::PrevB(None)));
    assert_eq!(
        got[2].1,
        Response::Ok(CmdOut::ValueB(Some(Value::from_bytes(&big_a)))),
        "a blob spanning many read passes must reassemble byte-exactly"
    );
    assert_eq!(
        got[3].1,
        Response::Ok(CmdOut::ValuesB(vec![
            Some(Value::from_bytes(&big_a)),
            Some(Value::from_bytes(&big_b)),
            None,
        ]))
    );
    assert_eq!(
        got[4].1,
        Response::Ok(CmdOut::ValueB(Some(Value::from_bytes(&big_b))))
    );
    assert_eq!(
        got[5].1,
        Response::Ok(CmdOut::RemovedB(Some(Value::from_bytes(&big_a))))
    );

    // The slow-draining peer must have forced partial writes: the server
    // saw more than one epoll pass, dispatched real events, and — with the
    // burst's ~200 KB of blob responses queued at once behind a 2 KiB
    // receive window — flushed multi-segment chains with vectored writes.
    let ev = server.event_stats();
    assert!(
        ev.events_dispatched > 1,
        "dribbled frames arrive as many events"
    );
    assert!(
        ev.writev_saved > 0,
        "a backed-up multi-segment chain must batch into one writev"
    );
    let store = server.shutdown();
    drop(store);
}

#[test]
fn dribbled_word_pipeline_interleaves_with_legacy_ops() {
    // Same torture on the fixed-width family, mixing in a CAS and a
    // TRANSFER so transactional paths cross the fragmented transport too.
    let server = Server::start(&ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    let mut wire = Vec::new();
    proto::encode_request(
        &mut wire,
        7,
        &Request::Cmd(Cmd::MSet(vec![(1, 100), (2, 50)])),
    );
    proto::encode_request(
        &mut wire,
        8,
        &Request::Cmd(Cmd::Cas {
            key: 1,
            expected: 100,
            desired: 90,
        }),
    );
    proto::encode_request(
        &mut wire,
        9,
        &Request::Cmd(Cmd::Transfer {
            from: 1,
            to: 2,
            amount: 40,
        }),
    );
    proto::encode_request(&mut wire, 10, &Request::Cmd(Cmd::MGet(vec![1, 2])));

    let got = dribble_roundtrip(addr, &wire, &[], 4);
    let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![7, 8, 9, 10]);
    assert_eq!(got[0].1, Response::Ok(CmdOut::Done));
    assert_eq!(
        got[1].1,
        Response::Ok(CmdOut::Cas {
            success: true,
            current: Some(90)
        })
    );
    assert_eq!(
        got[2].1,
        Response::Ok(CmdOut::Transferred {
            from_after: 50,
            to_after: 90
        })
    );
    assert_eq!(
        got[3].1,
        Response::Ok(CmdOut::Values(vec![Some(50), Some(90)]))
    );
    server.shutdown();
}
