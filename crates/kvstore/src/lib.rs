//! # kvstore — a transactional KV service on the NBTC runtime
//!
//! Everything below PR 5 exercised Medley/txMontage composition from
//! in-process harnesses.  This crate puts the runtime behind a socket: a
//! thread-per-core TCP service whose *product feature* is multi-key
//! atomicity — `TRANSFER`, `MSET`, `MGET`, and a batch-transaction IR are
//! each one Medley transaction spanning however many sharded nonblocking
//! structures the keys hash to.
//!
//! Layers (each its own module):
//!
//! * [`store`] — the sharded table namespace and command executor
//!   ([`Store`]): Michael hash table or skiplist per shard, transient
//!   Medley or durable txMontage backend, each command written once over
//!   `medley::Ctx` and executed standalone (`NonTx`) when it is a read or a
//!   blob write and transactionally (`run_with`) otherwise;
//! * [`proto`] — the length-prefixed binary wire format and its
//!   abort-code mapping (rustdoc there documents every frame layout);
//! * [`server`] — the acceptor + fixed worker pool ([`Server`]); each
//!   worker owns one `TxManager` slot and multiplexes pipelined
//!   connections over it nonblockingly, with graceful drain on shutdown,
//!   `STATS` (aggregated [`medley::TxManager::stats_snapshot`] +
//!   `DomainStats`) and `SYNC` (wait-free durability cut) admin commands;
//! * [`client`] — a blocking pipelining [`Client`] used by the tests and
//!   the `kvbench` load generator in the `bench` crate.
//!
//! ```
//! use kvstore::{Client, Server, ServerConfig};
//!
//! let server = Server::start(&ServerConfig::default()).unwrap();
//! let mut c = Client::connect(server.local_addr()).unwrap();
//! c.mset(&[(1, 100), (2, 50)]).unwrap();
//! // One atomic action across two shards (distinct nonblocking maps):
//! let (from_after, to_after) = c.transfer(1, 2, 30).unwrap();
//! assert_eq!((from_after, to_after), (70, 80));
//! assert_eq!(c.mget(&[1, 2]).unwrap(), vec![Some(70), Some(80)]);
//! drop(c);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod store;
pub mod sys;
pub mod telemetry;

pub use cache::{CacheCounters, TxCache};
pub use client::{Client, KvError, KvResult};
pub use proto::{
    CacheStats, ErrCode, EventStats, LoadStats, MetricsReply, OpMetrics, PartitionScheme, Request,
    Response, ShardKind, ShardStats, StatsReply, TableStats, TraceReply, WorkerEvents,
};
pub use server::{OverloadConfig, Server, ServerConfig};
pub use store::{
    Cmd, CmdOut, ConfigError, Store, StoreBackend, StoreConfig, TableKind,
    DEFAULT_BUCKETS_PER_SHARD, ELASTIC_BOOT_BUCKETS, MAX_SCAN_LIMIT,
};
pub use telemetry::{Telemetry, TelemetryConfig, ERROR_LABELS, OP_LABELS, PHASE_LABELS};

#[cfg(test)]
mod tests {
    use super::*;

    fn start(cfg: ServerConfig) -> (Server, Client) {
        let server = Server::start(&cfg).unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        (server, client)
    }

    #[test]
    fn end_to_end_over_loopback() {
        let (server, mut c) = start(ServerConfig::default());
        assert_eq!(c.get(1).unwrap(), None);
        assert_eq!(c.put(1, 10).unwrap(), None);
        assert_eq!(c.put(1, 11).unwrap(), Some(10));
        assert!(c.contains(1).unwrap());
        assert_eq!(c.cas(1, 11, 12).unwrap(), (true, Some(12)));
        assert_eq!(c.cas(1, 99, 0).unwrap(), (false, Some(12)));
        assert_eq!(c.del(1).unwrap(), Some(12));
        assert_eq!(c.del(1).unwrap(), None);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (server, mut c) = start(ServerConfig::default());
        // Queue a deep pipeline without reading a single response.
        for k in 0..200u64 {
            c.send(&Request::Cmd(Cmd::Put(k, k * 2))).unwrap();
        }
        for k in 0..200u64 {
            c.send(&Request::Cmd(Cmd::Get(k))).unwrap();
        }
        assert_eq!(c.in_flight(), 400);
        for _ in 0..200 {
            match c.recv().unwrap() {
                Response::Ok(CmdOut::Prev(None)) => {}
                other => panic!("unexpected put response: {other:?}"),
            }
        }
        for k in 0..200u64 {
            match c.recv().unwrap() {
                Response::Ok(CmdOut::Value(Some(v))) => assert_eq!(v, k * 2),
                other => panic!("unexpected get response: {other:?}"),
            }
        }
        drop(c);
        server.shutdown();
    }

    #[test]
    fn transfer_and_stats_over_the_wire() {
        let (server, mut c) = start(ServerConfig::default());
        c.mset(&[(7, 100), (8, 0)]).unwrap();
        assert_eq!(c.transfer(7, 8, 60).unwrap(), (40, 60));
        match c.transfer(7, 8, 1000) {
            Err(KvError::Server(ErrCode::Insufficient)) => {}
            other => panic!("expected Insufficient, got {other:?}"),
        }
        match c.transfer(1234, 8, 1) {
            Err(KvError::Server(ErrCode::NotFound)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
        let stats = c.stats().unwrap();
        assert!(stats.tx.commits > 0);
        assert!(stats.domain.is_none(), "transient server has no domain");
        // Transient SYNC is an acknowledged no-op.
        assert_eq!(c.sync().unwrap(), 0);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn durable_server_reports_domain_and_syncs() {
        let cfg = ServerConfig {
            store: StoreConfig {
                backend: StoreBackend::Durable,
                advancer_period: None,
                ..Default::default()
            },
            ..Default::default()
        };
        let (server, mut c) = start(cfg);
        c.mset(&[(1, 10), (2, 20)]).unwrap();
        let epoch = c.sync().unwrap();
        assert!(epoch >= 1, "sync must move the durability horizon: {epoch}");
        let stats = c.stats().unwrap();
        let d = stats.domain.expect("durable server reports domain stats");
        assert_eq!(d.live_payloads, 2);
        drop(c);
        let store = server.shutdown();
        let rec = store.recover();
        assert_eq!(rec.get(&1), Some(&pmem::Value::U64(10)));
        assert_eq!(rec.get(&2), Some(&pmem::Value::U64(20)));
    }

    #[test]
    fn blob_values_and_event_stats_over_the_wire() {
        use pmem::Value;
        let (server, mut c) = start(ServerConfig::default());
        // A value big enough to span several read/write passes.
        let blob: Vec<u8> = (0..100_000usize).map(|i| (i * 31) as u8).collect();
        assert_eq!(c.put_b(5, &blob).unwrap(), None);
        assert_eq!(c.get_b(5).unwrap(), Some(Value::from_bytes(&blob)));
        // Word interop: the blob family reads fixed-width writes and an
        // 8-byte blob IS a word.
        assert_eq!(c.put(6, 42).unwrap(), None);
        assert_eq!(c.get_b(6).unwrap(), Some(Value::U64(42)));
        assert_eq!(
            c.put_b(6, &43u64.to_le_bytes()).unwrap(),
            Some(Value::U64(42))
        );
        assert_eq!(c.get(6).unwrap(), Some(43));
        // A fixed-width GET on a blob is refused, not truncated.
        match c.get(5) {
            Err(KvError::Server(ErrCode::Malformed)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Byte-exact CAS and multi-key blob ops.
        assert!(c.cas_b(5, &blob, b"small now").unwrap().0);
        c.mset_b(&[(7, b"abc".as_slice()), (8, b"defg".as_slice())])
            .unwrap();
        assert_eq!(
            c.mget_b(&[5, 7, 8, 9]).unwrap(),
            vec![
                Some(Value::from_bytes(b"small now")),
                Some(Value::from_bytes(b"abc")),
                Some(Value::from_bytes(b"defg")),
                None,
            ]
        );
        assert_eq!(c.del_b(7).unwrap(), Some(Value::from_bytes(b"abc")));
        // The event-loop section is observable over the wire and the traffic
        // above must have exercised it.
        let stats = c.stats().unwrap();
        let ev = stats.events.expect("server reports event-loop stats");
        assert!(ev.epoll_waits > 0, "worker loops wait on epoll");
        assert!(
            ev.events_dispatched > 0,
            "traffic arrives as readiness events"
        );
        drop(c);
        server.shutdown();
    }

    #[test]
    fn transfer_credit_overflow_is_rejected() {
        let (server, mut c) = start(ServerConfig::default());
        c.mset(&[(1, 5), (2, u64::MAX)]).unwrap();
        match c.transfer(1, 2, 1) {
            Err(KvError::Server(ErrCode::Insufficient)) => {}
            other => panic!("overflowing credit must be rejected, got {other:?}"),
        }
        // Nothing changed.
        assert_eq!(c.mget(&[1, 2]).unwrap(), vec![Some(5), Some(u64::MAX)]);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn oversized_client_command_errors_without_breaking_the_pipeline() {
        let (server, mut c) = start(ServerConfig::default());
        let huge: Vec<(u64, u64)> = (0..70_000u64).map(|k| (k, k)).collect();
        match c.mset(&huge) {
            Err(KvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("oversized MSET must be refused client-side, got {other:?}"),
        }
        // The refusal buffered nothing: the connection still works.
        assert_eq!(c.put(1, 10).unwrap(), None);
        assert_eq!(c.get(1).unwrap(), Some(10));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn poisoned_connection_still_flushes_owed_responses() {
        use std::io::{Read, Write};
        let (server, mut c) = start(ServerConfig::default());
        // Raw socket: one valid PUT, then an oversized length prefix.
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = Vec::new();
        proto::encode_request(&mut wire, 11, &Request::Cmd(Cmd::Put(77, 7)));
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // poison
        raw.write_all(&wire).unwrap();
        // The PUT executed and its response must arrive before the close.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        let mut pos = 0;
        let frame = proto::take_frame(&buf, &mut pos)
            .unwrap()
            .expect("owed response must be flushed before the close");
        let (id, resp) = proto::decode_response(frame).unwrap();
        assert_eq!(id, 11);
        assert_eq!(resp, Response::Ok(CmdOut::Prev(None)));
        // The write really committed (visible through a healthy client).
        assert_eq!(c.get(77).unwrap(), Some(7));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_an_error_but_keep_the_connection() {
        use std::io::Write;
        let (server, mut c) = start(ServerConfig::default());
        // Hand-write a frame with an unknown opcode.
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let payload = [9u8, 0, 0, 0, 0xEE];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        raw.write_all(&wire).unwrap();
        // The regular client still works throughout.
        assert_eq!(c.put(3, 33).unwrap(), None);
        assert_eq!(c.get(3).unwrap(), Some(33));
        drop(raw);
        drop(c);
        server.shutdown();
    }
}
