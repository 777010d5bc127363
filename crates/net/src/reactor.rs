//! The readiness reactor: one thread, one epoll instance, N connections.
//!
//! A [`Reactor`] owns a [`Service`] — the application logic — and drives
//! it with callbacks from a single event loop: frames decoded from
//! edge-triggered reads, timer expirations from the wheel, and messages
//! injected by other threads through a [`Remote`] (an mpsc sender paired
//! with an eventfd waker). The service mutates connections through
//! [`Ctx`], never by touching sockets directly, which keeps all
//! buffering, backpressure and teardown in one place:
//!
//! - **Reads** drain until `WouldBlock` (edge-triggered contract) and
//!   stream through a bounded [`FrameReader`]; framing errors are typed
//!   callbacks, not connection teardown.
//! - **Writes** go through a [`WriteQueue`]; past a high watermark the
//!   reactor stops *reading* from that connection (backpressure), and a
//!   peer that stalls a pending write past `write_stall_timeout` is
//!   disconnected by an internal timer.
//! - **Closes** are deferred: callbacks run reentrancy-free, and a
//!   generation tag in [`ConnId`] makes stale handles inert.

use crate::frame::{FrameError, FrameReader, WriteQueue};
use crate::poll::{Event, Interest, Poller, Waker};
use crate::sys;
use crate::timer::{TimerId, TimerWheel};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const WAKER_DATA: u64 = u64::MAX;
const LISTENER_DATA: u64 = u64::MAX - 1;
/// Bit 63 of timer data marks reactor-internal (write-stall) timers.
/// Service timer data must keep it clear; [`Ctx::schedule`] asserts so.
const INTERNAL_TIMER: u64 = 1 << 63;

/// Generation-tagged connection handle. Slot indices are reused, so the
/// generation makes a handle to a closed connection permanently inert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    index: u32,
    gen: u32,
}

impl ConnId {
    /// Pack into a `u64` (always < 2^63 in practice: the index would
    /// need to exceed 2^31 live slots to set the top bit), usable as
    /// epoll data or timer payload.
    pub fn as_u64(self) -> u64 {
        (self.index as u64) << 32 | self.gen as u64
    }

    pub fn from_u64(raw: u64) -> ConnId {
        ConnId { index: (raw >> 32) as u32, gen: raw as u32 }
    }
}

/// Tuning knobs for a reactor instance.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Longest accepted request line; longer lines become
    /// [`FrameError::Oversized`] and the connection resynchronises.
    pub max_line_bytes: usize,
    /// Bytes per `read(2)` call.
    pub read_chunk: usize,
    /// Queued-write level above which reading from that connection is
    /// paused until the queue drains (per-connection backpressure).
    pub write_high_watermark: usize,
    /// Disconnect a peer that leaves queued writes unmoved this long.
    pub write_stall_timeout: Option<Duration>,
    /// Timer wheel resolution.
    pub timer_granularity: Duration,
    pub timer_slots: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_line_bytes: 1 << 20,
            read_chunk: 64 * 1024,
            write_high_watermark: 256 * 1024,
            write_stall_timeout: Some(Duration::from_secs(30)),
            timer_granularity: Duration::from_millis(4),
            timer_slots: 512,
        }
    }
}

/// Application logic driven by a [`Reactor`]. All callbacks run on the
/// reactor thread; `Msg` is the cross-thread mailbox type.
pub trait Service: Sized {
    type Msg: Send + 'static;

    /// Runs once before the first poll.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A listener produced a connection. The default adopts it into
    /// this reactor; override to route streams elsewhere.
    fn on_accept(&mut self, ctx: &mut Ctx<'_>, stream: TcpStream, _peer: SocketAddr) {
        let _ = ctx.adopt(stream);
    }

    /// A complete frame (without its newline) arrived.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: String);

    /// A typed framing failure; the connection stays usable.
    fn on_frame_error(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _err: FrameError) {}

    /// A timer scheduled via [`Ctx::schedule`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerId, _data: u64) {}

    /// A message arrived from a [`Remote`].
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Self::Msg) {}

    /// The write queue for `conn` just fully drained.
    fn on_flush(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {}

    /// `conn` is gone (peer EOF, error, or [`Ctx::close`]); its handle
    /// is already inert.
    fn on_close(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {}
}

/// Cross-thread handle: enqueue a message and wake the reactor.
pub struct Remote<M> {
    tx: mpsc::Sender<M>,
    waker: Waker,
}

impl<M> Clone for Remote<M> {
    fn clone(&self) -> Self {
        Remote { tx: self.tx.clone(), waker: self.waker.clone() }
    }
}

impl<M> Remote<M> {
    /// Returns `false` once the reactor has exited.
    pub fn send(&self, msg: M) -> bool {
        if self.tx.send(msg).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: WriteQueue,
    /// Service asked to stop reading (awaiting a downstream reply).
    paused: bool,
    /// Reading is suspended because the write queue is over the
    /// high watermark.
    write_stalled: bool,
    /// Readiness (or buffered bytes) observed while reading was
    /// suspended; triggers a pump when reading resumes.
    read_pending: bool,
    /// Peer sent EOF; close once the write queue drains.
    eof: bool,
    /// Teardown requested; the slot is freed by the deferred pass.
    closing: bool,
    close_after_flush: bool,
    stall_timer: Option<TimerId>,
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn conn_mut(slots: &mut [Slot], id: ConnId) -> Option<&mut Conn> {
    let slot = slots.get_mut(id.index as usize)?;
    if slot.gen != id.gen {
        return None;
    }
    slot.conn.as_mut()
}

/// Reactor internals shared with the service through [`Ctx`].
struct Core {
    cfg: ReactorConfig,
    poll: Poller,
    waker: Waker,
    timers: TimerWheel,
    slots: Vec<Slot>,
    free: Vec<u32>,
    conn_count: usize,
    listener: Option<TcpListener>,
    /// Deferred work queues — callbacks never recurse into each other;
    /// anything a callback triggers is parked here and run afterwards.
    pending_pump: Vec<ConnId>,
    pending_flush: Vec<ConnId>,
    pending_close: Vec<ConnId>,
    scratch: Vec<u8>,
    stopped: bool,
}

/// The service's window into the reactor. Every operation on a stale
/// [`ConnId`] is a safe no-op.
pub struct Ctx<'a> {
    core: &'a mut Core,
}

impl Ctx<'_> {
    /// Take ownership of a connected stream: non-blocking, registered
    /// edge-triggered, framing state allocated.
    pub fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        self.core.adopt(stream)
    }

    /// Queue `frame` for writing (the caller includes any terminator)
    /// and flush as far as the kernel allows right now. Returns `false`
    /// if the connection is unknown or closing.
    pub fn send(&mut self, conn: ConnId, frame: Vec<u8>) -> bool {
        let core = &mut *self.core;
        match conn_mut(&mut core.slots, conn) {
            Some(c) if !c.closing => c.writer.push(frame),
            _ => return false,
        }
        core.pump_write(conn);
        true
    }

    /// Tear the connection down after pending callbacks finish. Queued
    /// writes are dropped; see [`Ctx::close_after_flush`] to drain first.
    pub fn close(&mut self, conn: ConnId) {
        self.core.request_close(conn);
    }

    /// Close once the write queue drains (immediately if already empty).
    pub fn close_after_flush(&mut self, conn: ConnId) {
        let core = &mut *self.core;
        let drain_now = match conn_mut(&mut core.slots, conn) {
            Some(c) if !c.closing => {
                if c.writer.is_empty() {
                    true
                } else {
                    c.close_after_flush = true;
                    false
                }
            }
            _ => false,
        };
        if drain_now {
            core.request_close(conn);
        }
    }

    /// Stop delivering frames from `conn`; bytes already in flight stay
    /// buffered (bounded by `max_line_bytes` + one read chunk).
    pub fn pause_reading(&mut self, conn: ConnId) {
        if let Some(c) = conn_mut(&mut self.core.slots, conn) {
            c.paused = true;
        }
    }

    /// Resume frame delivery; buffered frames are pumped before the
    /// socket is read again.
    pub fn resume_reading(&mut self, conn: ConnId) {
        let core = &mut *self.core;
        if let Some(c) = conn_mut(&mut core.slots, conn) {
            if c.paused {
                c.paused = false;
                core.pending_pump.push(conn);
            }
        }
    }

    pub fn is_open(&self, conn: ConnId) -> bool {
        let slot = match self.core.slots.get(conn.index as usize) {
            Some(s) if s.gen == conn.gen => s,
            _ => return false,
        };
        slot.conn.as_ref().is_some_and(|c| !c.closing)
    }

    /// Live connections owned by this reactor.
    pub fn conn_count(&self) -> usize {
        self.core.conn_count
    }

    /// Bytes queued for write on `conn` (0 if unknown).
    pub fn write_queue_len(&self, conn: ConnId) -> usize {
        let slot = match self.core.slots.get(conn.index as usize) {
            Some(s) if s.gen == conn.gen => s,
            _ => return 0,
        };
        slot.conn.as_ref().map_or(0, |c| c.writer.len())
    }

    /// Arm a timer; `data` is handed back to [`Service::on_timer`].
    /// Bit 63 of `data` is reserved for the reactor.
    pub fn schedule(&mut self, after: Duration, data: u64) -> TimerId {
        debug_assert_eq!(data & INTERNAL_TIMER, 0, "timer data bit 63 is reserved");
        self.core.timers.schedule(Instant::now(), after, data & !INTERNAL_TIMER)
    }

    pub fn cancel_timer(&mut self, timer: TimerId) -> bool {
        self.core.timers.cancel(timer)
    }

    /// Ask the event loop to exit after the current dispatch pass. Open
    /// connections are dropped (peers see EOF/RST).
    pub fn stop(&mut self) {
        self.core.stopped = true;
    }
}

impl Core {
    fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                (self.slots.len() - 1) as u32
            }
        };
        let id = ConnId { index, gen: self.slots[index as usize].gen };
        if let Err(e) = self.poll.add(
            std::os::fd::AsRawFd::as_raw_fd(&stream),
            id.as_u64(),
            Interest::READ_WRITE_EDGE,
        ) {
            self.free.push(index);
            return Err(e);
        }
        self.slots[index as usize].conn = Some(Conn {
            stream,
            reader: FrameReader::new(self.cfg.max_line_bytes),
            writer: WriteQueue::new(),
            paused: false,
            write_stalled: false,
            read_pending: false,
            eof: false,
            closing: false,
            close_after_flush: false,
            stall_timer: None,
        });
        self.conn_count += 1;
        // Bytes may have raced registration: pump once after adoption
        // even if no edge is reported.
        self.pending_pump.push(id);
        Ok(id)
    }

    fn request_close(&mut self, id: ConnId) {
        if let Some(c) = conn_mut(&mut self.slots, id) {
            if !c.closing {
                c.closing = true;
                self.pending_close.push(id);
            }
        }
    }

    /// Flush the write queue as far as the kernel allows; manages the
    /// stall timer, backpressure flag, flush notifications and deferred
    /// close-on-drain. Never invokes service callbacks directly.
    fn pump_write(&mut self, id: ConnId) {
        let Some(c) = conn_mut(&mut self.slots, id) else { return };
        if c.closing {
            return;
        }
        if c.writer.is_empty() {
            return;
        }
        match c.writer.write_to(&mut c.stream) {
            Ok((_, true)) => {
                if let Some(t) = c.stall_timer.take() {
                    self.timers.cancel(t);
                }
                self.pending_flush.push(id);
                if c.close_after_flush || c.eof {
                    c.closing = true;
                    self.pending_close.push(id);
                } else if c.write_stalled {
                    c.write_stalled = false;
                    if c.read_pending {
                        self.pending_pump.push(id);
                    }
                }
            }
            Ok((wrote, false)) => {
                if c.writer.len() > self.cfg.write_high_watermark {
                    c.write_stalled = true;
                }
                if let Some(stall) = self.cfg.write_stall_timeout {
                    // (Re)arm on progress so only a fully wedged peer
                    // — not a slow reader — is disconnected.
                    if wrote > 0 || c.stall_timer.is_none() {
                        if let Some(t) = c.stall_timer.take() {
                            self.timers.cancel(t);
                        }
                        let t = self.timers.schedule(
                            Instant::now(),
                            stall,
                            INTERNAL_TIMER | id.as_u64(),
                        );
                        c.stall_timer = Some(t);
                    }
                }
            }
            Err(_) => {
                c.closing = true;
                self.pending_close.push(id);
            }
        }
    }
}

/// Owns a `Core` and a [`Service`]; `run` is the event loop.
pub struct Reactor<S: Service> {
    core: Core,
    service: S,
    rx: mpsc::Receiver<S::Msg>,
}

impl<S: Service> Reactor<S> {
    pub fn new(cfg: ReactorConfig, service: S) -> io::Result<(Reactor<S>, Remote<S::Msg>)> {
        let poll = Poller::new()?;
        let waker = Waker::new()?;
        waker.register(&poll, WAKER_DATA)?;
        let (tx, rx) = mpsc::channel();
        let scratch = vec![0u8; cfg.read_chunk.max(512)];
        let timers = TimerWheel::new(cfg.timer_granularity, cfg.timer_slots, Instant::now());
        let core = Core {
            cfg,
            poll,
            waker: waker.clone(),
            timers,
            slots: Vec::new(),
            free: Vec::new(),
            conn_count: 0,
            listener: None,
            pending_pump: Vec::new(),
            pending_flush: Vec::new(),
            pending_close: Vec::new(),
            scratch,
            stopped: false,
        };
        Ok((Reactor { core, service, rx }, Remote { tx, waker }))
    }

    /// Accept connections on `listener` (delivered to
    /// [`Service::on_accept`]). At most one listener per reactor.
    pub fn listen(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        // std binds with a fixed backlog of 128; connect bursts larger
        // than that overflow the SYN queue and retransmit after ~1 s.
        let _ = sys::set_listen_backlog(std::os::fd::AsRawFd::as_raw_fd(&listener), 1024);
        self.core.poll.add(
            std::os::fd::AsRawFd::as_raw_fd(&listener),
            LISTENER_DATA,
            Interest { readable: true, writable: false, edge: true },
        )?;
        self.core.listener = Some(listener);
        Ok(())
    }

    /// Run the event loop until [`Ctx::stop`]; returns the service for
    /// final-state inspection.
    pub fn run(self) -> io::Result<S> {
        let Reactor { mut core, mut service, rx } = self;
        service.on_start(&mut Ctx { core: &mut core });
        process_deferred(&mut core, &mut service);

        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(TimerId, u64)> = Vec::new();
        while !core.stopped {
            let timeout = core.timers.next_timeout(Instant::now());
            events.clear();
            core.poll.wait(&mut events, timeout)?;
            for &ev in &events {
                match ev.data {
                    WAKER_DATA => {
                        core.waker.drain();
                        while let Ok(msg) = rx.try_recv() {
                            service.on_message(&mut Ctx { core: &mut core }, msg);
                            process_deferred(&mut core, &mut service);
                            if core.stopped {
                                break;
                            }
                        }
                    }
                    LISTENER_DATA => accept_ready(&mut core, &mut service),
                    data => {
                        let id = ConnId::from_u64(data);
                        if ev.readable || ev.hangup || ev.error {
                            pump_read(&mut core, &mut service, id);
                        }
                        if ev.writable {
                            core.pump_write(id);
                        }
                    }
                }
                process_deferred(&mut core, &mut service);
                if core.stopped {
                    break;
                }
            }
            if core.stopped {
                break;
            }
            fired.clear();
            core.timers.poll(Instant::now(), &mut fired);
            for &(timer, data) in &fired {
                if data & INTERNAL_TIMER != 0 {
                    stall_expired(&mut core, ConnId::from_u64(data & !INTERNAL_TIMER), timer);
                } else {
                    service.on_timer(&mut Ctx { core: &mut core }, timer, data);
                }
                process_deferred(&mut core, &mut service);
                if core.stopped {
                    break;
                }
            }
        }
        drop(core);
        Ok(service)
    }
}

/// A write-stall timer fired: if the connection still has queued bytes
/// under that timer, the peer is wedged — disconnect it.
fn stall_expired(core: &mut Core, id: ConnId, timer: TimerId) {
    let wedged = match conn_mut(&mut core.slots, id) {
        Some(c) if c.stall_timer == Some(timer) && !c.writer.is_empty() => {
            c.stall_timer = None;
            true
        }
        _ => false,
    };
    if wedged {
        core.request_close(id);
    }
}

fn accept_ready<S: Service>(core: &mut Core, service: &mut S) {
    loop {
        let accepted = match &core.listener {
            Some(l) => l.accept(),
            None => return,
        };
        match accepted {
            Ok((stream, peer)) => {
                service.on_accept(&mut Ctx { core: &mut *core }, stream, peer);
                process_deferred(core, service);
                if core.stopped {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection accept failures (ECONNABORTED
            // etc.): skip the broken one, keep accepting.
            Err(_) => continue,
        }
    }
}

/// Drain readable bytes and deliver frames until `WouldBlock`, pause,
/// or teardown. The only function that invokes `on_frame`.
fn pump_read<S: Service>(core: &mut Core, service: &mut S, id: ConnId) {
    loop {
        // Deliver frames already buffered.
        loop {
            let frame = {
                let Some(c) = conn_mut(&mut core.slots, id) else { return };
                if c.closing {
                    return;
                }
                if c.paused || c.write_stalled {
                    c.read_pending = true;
                    return;
                }
                c.reader.next_frame()
            };
            match frame {
                Some(Ok(line)) => service.on_frame(&mut Ctx { core: &mut *core }, id, line),
                Some(Err(err)) => service.on_frame_error(&mut Ctx { core: &mut *core }, id, err),
                None => break,
            }
        }
        // Refill from the socket.
        let read = {
            let Some(c) = conn_mut(&mut core.slots, id) else { return };
            if c.closing || c.eof {
                return;
            }
            c.stream.read(&mut core.scratch)
        };
        match read {
            Ok(0) => {
                // EOF: deliver the unterminated tail, then close once
                // any queued response has flushed.
                let tail = {
                    let Some(c) = conn_mut(&mut core.slots, id) else { return };
                    c.eof = true;
                    c.reader.finish()
                };
                match tail {
                    Some(Ok(line)) => service.on_frame(&mut Ctx { core: &mut *core }, id, line),
                    Some(Err(e)) => service.on_frame_error(&mut Ctx { core: &mut *core }, id, e),
                    None => {}
                }
                let drained = conn_mut(&mut core.slots, id)
                    .is_some_and(|c| !c.closing && c.writer.is_empty());
                if drained {
                    core.request_close(id);
                }
                return;
            }
            Ok(n) => {
                let Some(c) = conn_mut(&mut core.slots, id) else { return };
                c.reader.push(&core.scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(c) = conn_mut(&mut core.slots, id) {
                    c.read_pending = false;
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                core.request_close(id);
                return;
            }
        }
    }
}

/// Run work parked by callbacks until all queues are empty. Pumps may
/// park flushes, flushes may park closes, closes may cascade — loop to
/// a fixed point.
fn process_deferred<S: Service>(core: &mut Core, service: &mut S) {
    loop {
        if core.stopped {
            return;
        }
        if let Some(id) = core.pending_pump.pop() {
            pump_read(core, service, id);
            continue;
        }
        if let Some(id) = core.pending_flush.pop() {
            let open = conn_mut(&mut core.slots, id).is_some();
            if open {
                service.on_flush(&mut Ctx { core: &mut *core }, id);
            }
            continue;
        }
        if let Some(id) = core.pending_close.pop() {
            finish_close(core, service, id);
            continue;
        }
        return;
    }
}

fn finish_close<S: Service>(core: &mut Core, service: &mut S, id: ConnId) {
    let Some(slot) = core.slots.get_mut(id.index as usize) else { return };
    if slot.gen != id.gen {
        return;
    }
    let Some(conn) = slot.conn.take() else { return };
    slot.gen = slot.gen.wrapping_add(1);
    core.free.push(id.index);
    core.conn_count -= 1;
    let _ = core.poll.remove(std::os::fd::AsRawFd::as_raw_fd(&conn.stream));
    if let Some(t) = conn.stall_timer {
        core.timers.cancel(t);
    }
    drop(conn); // closes the fd
    service.on_close(&mut Ctx { core: &mut *core }, id);
}
