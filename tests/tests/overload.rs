//! Overload-robustness integration tests: admission control, load
//! shedding, and backpressure on the kvstore server, driven over real
//! loopback TCP.
//!
//! The deterministic tests run the server with `shed_high = 0`, which makes
//! every worker shed every transactional command from its first pass — no
//! timing is involved, so the semantics of `ABORT_OVERLOAD` (no partial
//! effects, preserved pipelining order, bounded client retries) are checked
//! exactly.  The flood test exercises the byte-level backpressure
//! watermarks: a peer that never reads its responses must stop being read
//! long before it can buffer unbounded memory server-side, while a
//! well-behaved connection on the *same worker* keeps being served.

use kvstore::{
    Client, Cmd, ErrCode, KvError, OverloadConfig, Request, Response, Server, ServerConfig,
    StoreConfig, ERROR_LABELS,
};
use pmem::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A server whose every transactional command is shed deterministically.
fn always_shedding_server(workers: usize) -> Server {
    Server::start(&always_shedding(workers)).expect("start always-shedding server")
}

/// The configuration of [`always_shedding_server`].
fn always_shedding(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        store: StoreConfig {
            shards: 2,
            ..Default::default()
        },
        overload: OverloadConfig {
            shed_high: 0,
            shed_low: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn shed_transfer_has_no_partial_effects() {
    const ACCOUNTS: u64 = 6;
    const INITIAL: u64 = 1000;
    let server = always_shedding_server(2);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // Preload through single-key PUTBs: those are never shed (they cost
    // about as much as the shed response would).
    for k in 0..ACCOUNTS {
        c.put_b(k, &INITIAL.to_le_bytes()).expect("preload put");
    }

    // Every transfer is refused at admission — before execution — so no
    // partial debit/credit can exist, even across many attempts.
    for i in 0..20u64 {
        let from = i % ACCOUNTS;
        let to = (i + 1) % ACCOUNTS;
        match c
            .call(&Request::Cmd(Cmd::Transfer {
                from,
                to,
                amount: 7,
            }))
            .expect("transport")
        {
            Response::Err(ErrCode::Overload) => {}
            other => panic!("expected ABORT_OVERLOAD, got {other:?}"),
        }
    }

    // Audit through single-key GETBs (an MGETB would itself be shed): every
    // balance is exactly the preload value.
    for k in 0..ACCOUNTS {
        assert_eq!(
            c.get_b(k).expect("audit get"),
            Some(Value::U64(INITIAL)),
            "shed transfer must leave key {k} untouched"
        );
    }
    server.shutdown();
}

#[test]
fn typed_client_retries_overload_with_bounded_budget() {
    let server = always_shedding_server(1);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.put_b(1, &10u64.to_le_bytes()).expect("put");
    c.put_b(2, &10u64.to_le_bytes()).expect("put");

    // The typed API absorbs Overload with jittered resends, but the budget
    // is bounded: against a permanently shedding server the error must
    // surface instead of retrying forever.
    let started = Instant::now();
    match c.transfer(1, 2, 1) {
        Err(KvError::Server(ErrCode::Overload)) => {}
        other => panic!("expected bounded retry then Overload, got {other:?}"),
    }
    assert!(
        c.overload_retries() > 0,
        "the bounded retry path must have been exercised"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "retry budget must bound the stall"
    );
    // The connection stays healthy for non-shed traffic afterwards.
    assert_eq!(c.get_b(1).expect("get"), Some(Value::U64(10)));
    server.shutdown();
}

#[test]
fn pipelined_req_ids_stay_ordered_across_shed_responses() {
    let server = always_shedding_server(1);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for k in 0..4u64 {
        c.put_b(k, &5u64.to_le_bytes()).expect("preload put");
    }

    // Pipeline a mix where shed (transactional) and served (single-key)
    // requests interleave, then receive them all.  `Client::recv` checks
    // the echoed req-id against the oldest in-flight id, so a shed
    // response answered out of arrival order would fail the pairing.
    let mut expected = Vec::new();
    for i in 0..40u64 {
        match i % 4 {
            0 => {
                c.send(&Request::Cmd(Cmd::GetB(i % 4))).expect("send");
                expected.push("ok");
            }
            1 => {
                c.send(&Request::Cmd(Cmd::Transfer {
                    from: 0,
                    to: 1,
                    amount: 1,
                }))
                .expect("send");
                expected.push("overload");
            }
            2 => {
                c.send(&Request::Cmd(Cmd::MGetB(vec![0, 1]))).expect("send");
                expected.push("overload");
            }
            _ => {
                c.send(&Request::Cmd(Cmd::Contains(i % 4))).expect("send");
                expected.push("ok");
            }
        }
    }
    for (i, want) in expected.iter().enumerate() {
        let resp = c.recv().expect("recv in order");
        match (*want, &resp) {
            ("ok", Response::Ok(_)) => {}
            ("overload", Response::Err(ErrCode::Overload)) => {}
            (w, got) => panic!("position {i}: wanted {w}, got {got:?}"),
        }
    }
    assert_eq!(c.in_flight(), 0);
    server.shutdown();
}

#[test]
fn stats_report_shed_and_load_counters() {
    let overload = ERROR_LABELS
        .iter()
        .position(|&l| l == "overload")
        .expect("an overload abort reason");
    for enabled in [true, false] {
        let mut cfg = always_shedding(1);
        cfg.telemetry.enabled = enabled;
        let server = Server::start(&cfg).expect("start always-shedding server");
        let mut c = Client::connect(server.local_addr()).expect("connect");
        c.put_b(1, &1u64.to_le_bytes()).expect("put");
        for _ in 0..5 {
            match c
                .call(&Request::Cmd(Cmd::MGetB(vec![1])))
                .expect("transport")
            {
                Response::Err(ErrCode::Overload) => {}
                other => panic!("expected shed, got {other:?}"),
            }
        }
        // STATS is admin traffic: answered even while shedding, and it
        // carries the load section only a live server (not a bare store)
        // can fill.
        let stats = c.stats().expect("stats");
        let load = stats
            .load
            .expect("server stats must carry the load section");
        assert!(load.shed_requests >= 5, "sheds: {}", load.shed_requests);
        assert_eq!(load.accept_retries, 0);
        // STATS and METRICS read one counter set: the shed count is the
        // `overload` abort column, with the clock on or off.
        let metrics = c.metrics().expect("metrics");
        let aborted: u64 = metrics.ops.iter().map(|o| o.aborts[overload]).sum();
        assert_eq!(load.shed_requests, aborted, "telemetry {enabled}");
        // The in-process view agrees with the wire view.
        assert!(server.load_stats().shed_requests >= load.shed_requests);
        server.shutdown();
    }
}

/// One `GETB(0)` request frame (length prefix, req id, opcode, key: 17
/// bytes, which the flood bounds below count on) — the flood payload.
fn getb_frame(req_id: u32) -> Vec<u8> {
    let mut f = Vec::with_capacity(17);
    kvstore::proto::encode_request(&mut f, req_id, &Request::Cmd(Cmd::GetB(0)));
    assert_eq!(f.len(), 17, "the flood bounds assume 17-byte frames");
    f
}

/// The largest buffer TCP autotuning may give a socket, from
/// `/proc/sys/net/ipv4/tcp_{rmem,wmem}` (`min default max`).
fn tcp_buffer_max(which: &str) -> u64 {
    let path = format!("/proc/sys/net/ipv4/tcp_{which}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.split_whitespace()
        .nth(2)
        .and_then(|max| max.parse().ok())
        .unwrap_or_else(|| panic!("{path}: no maximum in {text:?}"))
}

#[test]
fn flooding_connection_is_bounded_and_does_not_starve_others() {
    // One worker, tight watermarks: the flooder and the well-behaved client
    // share the same worker thread, so fairness cannot come from scheduling
    // luck.
    let cfg = ServerConfig {
        workers: 1,
        store: StoreConfig {
            shards: 2,
            ..Default::default()
        },
        overload: OverloadConfig {
            wbuf_high: 8 << 10,
            wbuf_low: 2 << 10,
            rbuf_high: 16 << 10,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let addr = server.local_addr();

    // The flooder writes request frames as fast as the socket accepts them
    // and never reads a byte of response.  Once its response buffer passes
    // `wbuf_high` the server stops reading it; from then on the kernel
    // socket buffers fill and writes stall: the loop must end by stalling,
    // with no more accepted than those buffers hold.
    let flooder = TcpStream::connect(addr).expect("flood connect");
    flooder.set_nonblocking(true).expect("nonblocking");
    let mut flooder = flooder;
    let mut accepted: u64 = 0;
    let mut req_id: u32 = 1;
    // The frame being written and how much of it the socket took: a short
    // write keeps the tail for the next pass, or the stream loses its
    // framing and the server closes it as hostile.
    let (mut frame, mut sent) = (getb_frame(req_id), 0);
    let mut stalled_passes = 0u32;
    let deadline = Instant::now() + Duration::from_secs(10);
    while stalled_passes < 40 && Instant::now() < deadline {
        match flooder.write(&frame[sent..]) {
            Ok(n) => {
                accepted += n as u64;
                sent += n;
                if sent == frame.len() {
                    req_id = req_id.wrapping_add(1);
                    (frame, sent) = (getb_frame(req_id), 0);
                }
                stalled_passes = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stalled_passes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("flood write failed: {e}"),
        }
    }
    assert!(
        stalled_passes >= 40,
        "backpressure never engaged: the flood was still writing after 10 s ({accepted} bytes)"
    );
    // What the flooder got rid of sits in kernel buffers or the server's
    // watermarked ones.  Unread requests: its send buffer, the server's
    // receive buffer, `rbuf_high` plus one read.  Served ones: each left a
    // response of at least 10 bytes (length, req id, status, opcode) for
    // every 17 request bytes, in `wbuf_high` plus one pass, the server's
    // send buffer and the flooder's receive buffer.  Kernel buffers are the
    // autotuning maxima, so the bound follows the host, not a constant.
    let (rmem, wmem) = (tcp_buffer_max("rmem"), tcp_buffer_max("wmem"));
    let (rbuf_high, wbuf_high) = (cfg.overload.rbuf_high as u64, cfg.overload.wbuf_high as u64);
    let frame_max = kvstore::proto::MAX_FRAME as u64;
    let unread = wmem + rmem + rbuf_high + frame_max;
    let served = (wbuf_high + frame_max + wmem + rmem) * 17 / 10;
    assert!(
        accepted <= unread + served,
        "server accepted {accepted} bytes from a peer that reads nothing, \
         more than kernel buffers and watermarks hold ({})",
        unread + served
    );

    // While the flooder is wedged (its backlog parked server-side), a
    // well-behaved connection on the same worker still gets full service.
    let mut c = Client::connect(addr).expect("connect");
    for k in 0..50u64 {
        let v = k + 1;
        c.put_b(k, &v.to_le_bytes()).expect("put during flood");
        assert_eq!(c.get_b(k).expect("get during flood"), Some(Value::U64(v)));
    }
    assert!(
        c.transfer(1, 2, 1).is_ok(),
        "transactional traffic must still be served during the flood"
    );

    // Resolve the flood: read what the server owes, then the server-side
    // buffers drain and stay bounded.
    flooder.set_nonblocking(false).expect("blocking for drain");
    flooder
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    let mut sink = [0u8; 64 << 10];
    let mut drained = 0u64;
    while let Ok(n) = flooder.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n as u64;
        // A `GETB` response is at most 19 bytes (key 0 holds a word) for
        // each 17-byte request.
        if drained > 2 * accepted {
            panic!("server wrote more response bytes than the flood asked for");
        }
    }
    drop(flooder);
    let load = server.load_stats();
    assert!(
        load.peak_inflight_bytes <= rbuf_high + wbuf_high + 2 * frame_max,
        "peak backlog {} must stay within the watermarks",
        load.peak_inflight_bytes
    );
    server.shutdown();
}
