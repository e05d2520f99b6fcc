//! The full serving stack over TCP loopback, and the client connections
//! that drive it.
//!
//! The stack is the production one: a write-ahead-logged `EngineHandle`
//! (plus the spill tier where the workload asks for it) behind
//! `serve_tcp` on `127.0.0.1`. Each client connection is one thread that
//! keeps a fixed window of pre-encoded frames in flight and reads the
//! replies in order.

use crate::report::Tally;
use crate::workload::{ConnPlan, Frame, Plan, Workload, QUEUE_DEPTH, SHARDS};
use pir_engine::wire::{self, WireError};
use pir_engine::{
    serve_tcp, CrashProfile, EngineHandle, IngressConfig, Reply, SimDisk, SpillOptions, TcpFront,
    WalOptions,
};
use pir_geometry::ConvexSet;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A running engine with its TCP front, logging into `dir/wal` (and,
/// with a spill tier, spilling to an in-memory disk).
pub struct Stack {
    pub handle: EngineHandle,
    pub front: TcpFront,
}

impl Stack {
    /// Engine and WAL start (production `WalOptions::new` defaults, a
    /// fresh directory), then the listener bind.
    pub fn start(w: &Workload, plan: &Plan, dir: &Path) -> Result<Stack, String> {
        let handle = engine(w, plan, dir, true, w.has_spill())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let front =
            serve_tcp(handle.submit_handle(), listener).map_err(|e| format!("serve: {e}"))?;
        Ok(Stack { handle, front })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }
}

/// A pipelined engine for `plan`, optionally write-ahead logged into
/// `dir/wal` and spilling to an in-memory disk.
pub fn engine(
    w: &Workload,
    plan: &Plan,
    dir: &Path,
    wal: bool,
    spill: bool,
) -> Result<EngineHandle, String> {
    let config =
        IngressConfig { num_shards: SHARDS, seed: plan.engine_seed, queue_depth: QUEUE_DEPTH };
    // Spilled sessions go to the engine's in-memory `SimDisk`, not the
    // file system: on a shared host the file system's cost for creating
    // and deleting tens of thousands of small files swings by 2x between
    // runs, which would drown the state tier's own cost (snapshot
    // encode/decode, the LRU and its bookkeeping). Spill files are never
    // synced, so the simulated disk behaves as a RAM-backed spill volume.
    let spill_opts = w.resident_cap.filter(|_| spill).map(|cap| SpillOptions {
        resident_cap: cap,
        storage: SimDisk::new(plan.engine_seed, CrashProfile::KeepAll).handle(),
        ..SpillOptions::new(dir.join("spill"))
    });
    let wal_opts = WalOptions::new(dir.join("wal"));
    let built = match (wal, &spill_opts) {
        (false, None) => EngineHandle::new(config),
        (false, Some(s)) => EngineHandle::with_spill(config, s),
        (true, None) => EngineHandle::with_wal(config, &wal_opts).map(|(h, _)| h),
        (true, Some(s)) => EngineHandle::with_wal_and_spill(config, &wal_opts, s).map(|(h, _)| h),
    };
    built.map_err(|e| format!("engine start: {e}"))
}

/// Bytes in the WAL segment files under `dir/wal`.
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("wal"))
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Check an observe reply for `frame`: one finite release of dimension
/// `d` per point, each inside `C`. Returns the releases.
pub fn check_releases(
    w: &Workload,
    set: &dyn ConvexSet,
    frame_sid: u64,
    points: usize,
    reply: Reply,
) -> Result<Vec<Vec<f64>>, String> {
    match reply {
        Reply::Releases { session_id, thetas } => {
            if session_id != frame_sid || thetas.len() != points {
                return Err(format!(
                    "session {frame_sid:#x}: reply for {session_id:#x} with {} releases, want {points}",
                    thetas.len()
                ));
            }
            for theta in &thetas {
                if theta.len() != w.dim || !theta.iter().all(|v| v.is_finite()) {
                    return Err(format!("session {frame_sid:#x}: malformed release"));
                }
                if !set.contains(theta, 1e-9) {
                    return Err(format!("session {frame_sid:#x}: release outside C"));
                }
            }
            Ok(thetas)
        }
        other => Err(format!("session {frame_sid:#x}: unexpected reply {other:?}")),
    }
}

/// How many frames a pump sends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Exactly this many frames, cycling the slice.
    Count(usize),
    /// Until this instant; frames in flight at the deadline are drained.
    Until(Instant),
}

/// Client-side spans of one pump: each write (of one or more frames)
/// and the read of each reply, in nanoseconds. Only recorded when
/// tracing.
#[derive(Debug, Default)]
pub struct Spans {
    pub write_ns: Vec<f64>,
    pub read_ns: Vec<f64>,
}

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Frames written, `CLOSE` included.
    pub frames_sent: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            writer.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        Ok(Client { writer, reader, frames_sent: 0 })
    }

    fn recv(&mut self) -> Result<Reply, String> {
        match wire::read_reply(&mut self.reader) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("connection closed early".to_string()),
            Err(e) => Err(format!("read reply: {e}")),
        }
    }

    /// Keep up to `window` frames of `frames` in flight until `limit`,
    /// handing every reply to `on_reply(index, frame, reply, sent, done)`.
    /// Returns the number of frames sent.
    ///
    /// Frames that fit the window are queued in `out` and written with one
    /// `write` just before the client would block on a read, so a burst of
    /// buffered replies is answered with one burst of frames. A frame's
    /// latency starts when it is written.
    pub fn pump(
        &mut self,
        frames: &[Frame],
        limit: Limit,
        window: usize,
        mut spans: Option<&mut Spans>,
        mut on_reply: impl FnMut(usize, &Frame, Reply, Instant, Instant),
    ) -> Result<usize, String> {
        let mut inflight: VecDeque<(usize, Option<Instant>)> = VecDeque::with_capacity(window);
        let mut out = Vec::new();
        let mut next = 0usize;
        loop {
            while inflight.len() < window
                && match limit {
                    Limit::Count(n) => next < n,
                    Limit::Until(deadline) => Instant::now() < deadline,
                }
            {
                out.extend_from_slice(&frames[next % frames.len()].bytes);
                inflight.push_back((next, None));
                next += 1;
            }
            if !out.is_empty() && self.reader.buffer().is_empty() {
                let sent = Instant::now();
                self.writer.write_all(&out).map_err(|e| format!("write: {e}"))?;
                out.clear();
                if let Some(s) = spans.as_deref_mut() {
                    s.write_ns.push(sent.elapsed().as_nanos() as f64);
                }
                for slot in inflight.iter_mut().rev().take_while(|(_, t)| t.is_none()) {
                    slot.1 = Some(sent);
                    self.frames_sent += 1;
                }
            }
            let Some((idx, sent)) = inflight.pop_front() else { break };
            // Replies arrive in order, and buffered bytes are replies to
            // written frames, so the oldest frame in flight was written.
            let sent = sent.ok_or("reply awaited for a frame not yet written")?;
            let read_start = Instant::now();
            let reply = self.recv()?;
            let done = Instant::now();
            if let Some(s) = spans.as_deref_mut() {
                s.read_ns.push((done - read_start).as_nanos() as f64);
            }
            on_reply(idx, &frames[idx % frames.len()], reply, sent, done);
        }
        Ok(next)
    }

    /// Open every session of `conn` over the wire; each must answer
    /// `Opened`.
    pub fn open_all(&mut self, conn: &ConnPlan, tally: &mut Tally) -> Result<(), String> {
        tally.attempt(conn.opens.len() as u64);
        self.pump(&conn.opens, Limit::Count(conn.opens.len()), 64, None, |_, f, reply, _, _| {
            if reply != (Reply::Opened { session_id: f.sid }) {
                tally.fail(format!("open {:#x}: {reply:?}", f.sid));
            }
        })?;
        Ok(())
    }

    /// Send `frames` once with `window` in flight, checking every reply;
    /// returns every release, flattened in frame order.
    pub fn observe_all(
        &mut self,
        w: &Workload,
        set: &dyn ConvexSet,
        frames: &[Frame],
        window: usize,
        spans: Option<&mut Spans>,
        tally: &mut Tally,
    ) -> Result<Vec<f64>, String> {
        let points: usize = frames.iter().map(|f| f.points.len()).sum();
        let mut out = Vec::with_capacity(points * w.dim);
        tally.attempt(frames.len() as u64);
        self.pump(frames, Limit::Count(frames.len()), window, spans, |_, f, reply, _, _| {
            match check_releases(w, set, f.sid, f.points.len(), reply) {
                Ok(thetas) => thetas.iter().for_each(|t| out.extend_from_slice(t)),
                Err(e) => tally.fail(e),
            }
        })?;
        Ok(out)
    }

    /// Say goodbye: `CLOSE` must be answered `CLOSED`, then the server
    /// ends the stream.
    pub fn close(mut self, tally: &mut Tally) -> Result<u64, String> {
        let mut bytes = Vec::new();
        wire::encode_command_into(&mut bytes, &pir_engine::Command::Close)
            .map_err(|e: WireError| e.to_string())?;
        self.writer.write_all(&bytes).map_err(|e| format!("write close: {e}"))?;
        self.frames_sent += 1;
        tally.attempt(2);
        match self.recv() {
            Ok(Reply::Closed) => {}
            other => tally.fail(format!("close: {other:?}")),
        }
        if !matches!(wire::read_reply(&mut self.reader), Ok(None)) {
            tally.fail("stream not ended after CLOSED".to_string());
        }
        Ok(self.frames_sent)
    }
}

/// Per-client results of a timed, closed-loop pump.
#[derive(Debug, Default)]
pub struct Timed {
    /// `(completion, latency)` of every frame answered before the
    /// deadline: seconds since the start, and milliseconds from send to
    /// reply.
    pub samples: Vec<(f64, f64)>,
    /// Frames and points sent in the timed phase, drained ones included.
    pub frames_sent: u64,
    pub points_sent: u64,
}

/// Cycle `frames` from `start` until `deadline` with `window` frames in
/// flight, checking every reply and adding each acknowledged point to
/// `acked` as it arrives.
#[allow(clippy::too_many_arguments)]
pub fn timed_pump(
    client: &mut Client,
    w: &Workload,
    set: &dyn ConvexSet,
    frames: &[Frame],
    start: Instant,
    deadline: Instant,
    acked: &AtomicU64,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let sent =
        client.pump(frames, Limit::Until(deadline), w.window, None, |_, f, reply, s, d| {
            if d <= deadline {
                t.samples.push(((d - start).as_secs_f64(), (d - s).as_secs_f64() * 1e3));
                acked.fetch_add(f.points.len() as u64, Ordering::Relaxed);
            }
            if let Err(e) = check_releases(w, set, f.sid, f.points.len(), reply) {
                tally.fail(e);
            }
        })?;
    tally.attempt(sent as u64);
    t.frames_sent = sent as u64;
    t.points_sent = (0..sent).map(|i| frames[i % frames.len()].points.len() as u64).sum();
    Ok(t)
}
