//! The server under test — fit, persist, reload, engine, listener — and
//! the load generator that drives it over loopback.

use crate::frames::{self, FrameSet};
use crate::trace::{CallLog, TracedValidator};
use crate::wait;
use crate::workload::{Wire, Workload, HIDDEN, LAYERS, MIN_CYCLE_VERDICTS, TRAIN_BATCH};
use dquag_core::{BackpressurePolicy, DquagConfig, ServingConfig};
use dquag_persist::{load_validator, save_validator};
use dquag_sources::{NetListenerSource, SourceRuntime};
use dquag_stream::{IngestHandle, StreamEngine, StreamOutcome, StreamStats, VerdictStream};
use dquag_validate::{DquagBackend, Validator};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub type BenchResult<T> = Result<T, String>;

/// Share of the clean rows held out to calibrate the detection threshold:
/// half (the most the pipeline allows), so the 95th-percentile threshold
/// rests on thousands of rows and detection quality is steady from seed to
/// seed.
const CALIBRATION_FRACTION: f64 = 0.5;

/// The pipeline configuration every fit uses: paper hyper-parameters,
/// single-threaded validation (replicas, not threads, give parallelism).
fn config(w: &Workload, seed: u64) -> DquagConfig {
    DquagConfig::builder()
        .calibration_fraction(CALIBRATION_FRACTION)
        .hidden_dim(HIDDEN)
        .n_layers(LAYERS)
        .batch_size(TRAIN_BATCH)
        .epochs(w.epochs)
        .validation_threads(1)
        .seed(seed)
        .stream_replicas(w.replicas)
        .stream_backpressure(BackpressurePolicy::Block)
        .source_bind_addr("127.0.0.1:0")
        .source_poll_interval(Duration::from_millis(5))
        .build()
        .expect("benchmark configuration is in range")
}

/// Timings of one set-up, process side.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: Duration,
    pub fit: Duration,
    pub save: Duration,
    pub load: Duration,
    pub train_samples: usize,
}

/// A running server: engine, listener and the verdict stream.
pub struct Stack {
    engine: StreamEngine,
    runtime: SourceRuntime,
    verdicts: VerdictStream,
    addr: SocketAddr,
}

/// Set up once: generate the clean training data, fit, save, load, start
/// the engine over the loaded model and bind the listener.
pub fn setup(
    w: &Workload,
    seed: u64,
    model_path: &Path,
    calls: Option<&CallLog>,
) -> BenchResult<(Stack, SetupTimes)> {
    let started = Instant::now();
    let config = config(w, seed);
    let clean = w.dataset.generate_clean(w.train_rows, seed);
    let fit_started = Instant::now();
    let mut backend = DquagBackend::new(config.clone());
    backend.fit(&clean).map_err(|e| format!("fit: {e}"))?;
    let fit = fit_started.elapsed();
    let save_started = Instant::now();
    save_validator(model_path, &backend).map_err(|e| format!("save: {e}"))?;
    let save = save_started.elapsed();
    let load_started = Instant::now();
    let loaded = load_validator(model_path).map_err(|e| format!("load: {e}"))?;
    let load = load_started.elapsed();
    let served: Box<dyn Validator> = match calls {
        Some(log) => Box::new(TracedValidator::new(loaded, Arc::clone(log))),
        None => loaded,
    };
    let (engine, ingest, verdicts) = StreamEngine::builder()
        .stream_config(&config.stream)
        .start(served)
        .map_err(|e| format!("engine start: {e}"))?;
    let (runtime, addr) = listen(w, &config, ingest)?;
    let total = started.elapsed();
    // Rows that received gradient updates: the calibration slice is held out.
    let n_train = backend
        .trained()
        .map_or(0, |v| v.training_summary().n_train_rows);
    let train_samples = n_train * w.epochs;
    Ok((
        Stack {
            engine,
            runtime,
            verdicts,
            addr,
        },
        SetupTimes {
            total,
            fit,
            save,
            load,
            train_samples,
        },
    ))
}

fn listen(
    w: &Workload,
    config: &DquagConfig,
    ingest: IngestHandle,
) -> BenchResult<(SourceRuntime, SocketAddr)> {
    let serving = ServingConfig {
        workers: w.connections,
        max_connections: 4 * w.connections,
        keep_alive: w.wire == Wire::HttpAlternating,
        max_requests_per_connection: usize::MAX,
        idle_timeout: Duration::from_secs(120),
    };
    let source = NetListenerSource::from_config(&config.source, w.dataset.schema())
        .map_err(|e| format!("bind: {e}"))?
        .with_serving(serving);
    let addr = source.local_addr();
    let runtime = SourceRuntime::builder()
        .config(&config.source)
        .source(Box::new(source))
        .start(ingest)
        .map_err(|e| format!("source runtime: {e}"))?;
    Ok((runtime, addr))
}

impl Stack {
    /// Stop the listener, drain the engine and return its final stats.
    pub fn shutdown(self) -> BenchResult<StreamStats> {
        let Stack {
            engine,
            runtime,
            verdicts,
            ..
        } = self;
        runtime
            .shutdown()
            .map_err(|e| format!("runtime shutdown: {e}"))?;
        drop(verdicts);
        Ok(engine.shutdown())
    }
}

/// Phase of the serving run a frame was sent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Closed,
    Saturation,
}

/// One frame sent by the load generator.
#[derive(Debug, Clone)]
pub struct Send {
    pub frame: usize,
    pub format: usize,
    pub rows: usize,
    pub phase: Phase,
    /// Measurement cycle the frame was sent in (0 during warm-up).
    pub cycle: usize,
    /// When the schedule said to send it (closed loop and saturation: when
    /// sent).
    pub due: Instant,
    pub sent: Instant,
    pub acked: Option<Instant>,
    pub seq: Option<u64>,
}

/// One outcome taken off the verdict stream.
#[derive(Debug, Clone)]
pub struct Received {
    pub seq: u64,
    pub at: Instant,
    /// `None` when the engine failed the frame or missed its deadline.
    pub verdict: Option<(bool, Vec<usize>)>,
}

/// The load-generator side of one connection.
struct Client {
    stream: TcpStream,
    wire: Wire,
    inbuf: Vec<u8>,
    outstanding: VecDeque<usize>,
    sends: Vec<Send>,
    refused: u64,
    bytes_out: u64,
}

impl Client {
    fn connect(addr: SocketAddr, wire: Wire) -> BenchResult<Self> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            wire,
            inbuf: Vec::with_capacity(4096),
            outstanding: VecDeque::new(),
            sends: Vec::new(),
            refused: 0,
            bytes_out: 0,
        })
    }

    fn send(&mut self, bytes: &[u8], mut record: Send) -> BenchResult<()> {
        record.sent = Instant::now();
        let mut offset = 0;
        while offset < bytes.len() {
            match self.stream.write(&bytes[offset..]) {
                Ok(0) => return Err("connection closed while sending".to_string()),
                Ok(n) => offset += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.pump()?;
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.bytes_out += bytes.len() as u64;
        self.outstanding.push_back(self.sends.len());
        self.sends.push(record);
        Ok(())
    }

    /// Read whatever replies are available; returns how many completed.
    fn pump(&mut self) -> BenchResult<usize> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let now = Instant::now();
        let mut completed = 0;
        while let Some(reply) = self.take_reply()? {
            let index = self
                .outstanding
                .pop_front()
                .ok_or("reply without an outstanding frame")?;
            match reply {
                Some(seq) => {
                    self.sends[index].acked = Some(now);
                    self.sends[index].seq = Some(seq);
                }
                None => self.refused += 1,
            }
            completed += 1;
        }
        Ok(completed)
    }

    /// Parse one complete reply off the input buffer: `Some(Some(seq))` for
    /// an ACK / 202, `Some(None)` for any refusal, `None` if incomplete.
    fn take_reply(&mut self) -> BenchResult<Option<Option<u64>>> {
        match self.wire {
            Wire::RawCsv => {
                let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') else {
                    return Ok(None);
                };
                let line: Vec<u8> = self.inbuf.drain(..=end).collect();
                let line = String::from_utf8_lossy(&line);
                let mut parts = line.split_whitespace();
                Ok(Some(match (parts.next(), parts.next()) {
                    (Some("ACK"), Some(seq)) => {
                        Some(seq.parse().map_err(|_| format!("bad ACK `{line}`"))?)
                    }
                    _ => None,
                }))
            }
            Wire::HttpAlternating => {
                let Some(head_end) = find(&self.inbuf, b"\r\n\r\n") else {
                    return Ok(None);
                };
                let head = String::from_utf8_lossy(&self.inbuf[..head_end]).to_string();
                let length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .ok_or_else(|| format!("response without Content-Length: {head}"))?;
                let total = head_end + 4 + length;
                if self.inbuf.len() < total {
                    return Ok(None);
                }
                let body = String::from_utf8_lossy(&self.inbuf[head_end + 4..total]).to_string();
                self.inbuf.drain(..total);
                let accepted = head.starts_with("HTTP/1.1 202");
                Ok(Some(if accepted {
                    let seq = body
                        .split("\"seq\":")
                        .nth(1)
                        .and_then(|rest| {
                            rest.trim_start()
                                .split(|c: char| !c.is_ascii_digit())
                                .next()?
                                .parse()
                                .ok()
                        })
                        .ok_or_else(|| format!("202 without a seq: {body}"))?;
                    Some(seq)
                } else {
                    None
                }))
            }
        }
    }

    /// Wait for every outstanding reply.
    fn drain(&mut self, timeout: Duration) -> BenchResult<()> {
        let deadline = Instant::now() + timeout;
        while !self.outstanding.is_empty() {
            if self.pump()? == 0 {
                if Instant::now() > deadline {
                    return Err(format!("{} replies never arrived", self.outstanding.len()));
                }
                wait::readable(&self.stream, Duration::from_millis(1));
            }
        }
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// What a serving run produced.
pub struct Served {
    pub sends: Vec<Send>,
    pub received: Vec<Received>,
    pub refused: u64,
    pub bytes_out: u64,
    /// Start and end of each cycle's saturation segment.
    pub saturation: Vec<(Instant, Instant)>,
    /// Per-connection send interval of the open-loop schedule.
    pub interval: Duration,
    pub queue_depth_max: usize,
    pub stats: StreamStats,
}

/// Shape of a serving run: an open-loop warm-up, then `cycles` cycles of
/// an open-loop, a closed-loop and a saturation segment. Interleaving
/// spreads every metric's samples over the whole run, so a slow spell of
/// the shared host lands in a few cycles rather than in all of one phase.
pub struct Plan {
    pub warmup: Duration,
    /// Length of each cycle's open-loop segment.
    pub open: Duration,
    /// Length of each cycle's closed-loop segment.
    pub closed: Duration,
    /// Length of each cycle's saturation segment.
    pub saturation: Duration,
    pub cycles: usize,
}

const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Drive the stack: the open-loop warm-up, then each cycle's open-loop
/// segment at the workload's offered rate, its closed-loop segment and its
/// saturation segment, settling (every reply and verdict in) after each. `between` runs once,
/// with the server idle, after the middle cycle's open-loop segment.
/// Consumes the stack.
pub fn serve(
    stack: Stack,
    w: &Workload,
    set: &FrameSet,
    plan: &Plan,
    watch_queue: bool,
    mut between: impl FnMut() -> BenchResult<()>,
) -> BenchResult<Served> {
    let Stack {
        engine,
        runtime,
        mut verdicts,
        addr,
    } = stack;
    let wires: Vec<[Vec<u8>; 2]> = set
        .frames
        .iter()
        .map(|f| {
            [
                frames::wire_bytes(w.wire, frames::CSV, &f.payloads[frames::CSV]),
                frames::wire_bytes(w.wire, frames::NDJSON, &f.payloads[frames::NDJSON]),
            ]
        })
        .collect();

    let progress = Arc::new(Progress::default());
    let consumer = {
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            let mut out = Vec::new();
            while let Some(item) = verdicts.recv() {
                let at = Instant::now();
                let verdict = match item.outcome {
                    StreamOutcome::Verdict(v) => {
                        Some((v.is_dirty, v.flagged_instances.unwrap_or_default()))
                    }
                    _ => None,
                };
                out.push(Received {
                    seq: item.seq,
                    at,
                    verdict,
                });
                progress.add_one();
            }
            out
        })
    };

    type Driven = (Vec<Send>, u64, u64, Vec<(Instant, Instant)>, usize);
    let result = (|| -> BenchResult<Driven> {
        let mut clients: Vec<Client> = (0..w.connections)
            .map(|_| Client::connect(addr, w.wire))
            .collect::<BenchResult<_>>()?;
        let driver = Driver {
            w,
            set,
            wires: &wires,
            engine: &engine,
            watch_queue,
            queue_max: Mutex::new(0),
            received: &progress,
        };
        clients = driver.open_loop(clients, Phase::Warmup, 0, plan.warmup)?;
        let mut saturation = Vec::with_capacity(plan.cycles);
        for cycle in 0..plan.cycles {
            clients = driver.open_loop(clients, Phase::Open, cycle, plan.open)?;
            if cycle == plan.cycles / 2 {
                between()?;
            }
            clients = driver.closed_loop(clients, cycle, plan.closed)?;
            let (next, segment) = driver.saturate(clients, cycle, plan.saturation)?;
            clients = next;
            saturation.push(segment);
        }

        let refused = clients.iter().map(|c| c.refused).sum();
        let bytes_out = clients.iter().map(|c| c.bytes_out).sum();
        let mut sends = Vec::new();
        for client in clients {
            sends.extend(client.sends);
        }
        let queue_depth_max = *driver
            .queue_max
            .lock()
            .expect("queue watcher mutex poisoned");
        Ok((sends, refused, bytes_out, saturation, queue_depth_max))
    })();

    // Always stop the server and join the consumer, even after an error.
    let runtime_result = runtime.shutdown();
    let stats = engine.shutdown();
    let received = consumer.join().map_err(|_| "verdict consumer panicked")?;
    let (sends, refused, bytes_out, saturation, queue_depth_max) = result?;
    runtime_result.map_err(|e| format!("runtime shutdown: {e}"))?;
    Ok(Served {
        sends,
        received,
        refused,
        bytes_out,
        saturation,
        interval: Duration::from_secs_f64(w.connections as f64 / w.open_rate),
        queue_depth_max,
        stats,
    })
}

/// What the load generator needs to drive one segment.
struct Driver<'a> {
    w: &'a Workload,
    set: &'a FrameSet,
    wires: &'a [[Vec<u8>; 2]],
    engine: &'a StreamEngine,
    watch_queue: bool,
    queue_max: Mutex<usize>,
    received: &'a Progress,
}

impl Driver<'_> {
    /// Send on the open-loop schedule for `length`, then settle. Each
    /// segment restarts the schedule; the frame sequence carries on.
    fn open_loop(
        &self,
        clients: Vec<Client>,
        phase: Phase,
        cycle: usize,
        length: Duration,
    ) -> BenchResult<Vec<Client>> {
        let w = self.w;
        let base = clients.iter().map(|c| c.sends.len()).sum::<usize>();
        let t0 = Instant::now() + Duration::from_millis(1);
        let end = t0 + length;
        let clients = self.run_clients(clients, |c, client| {
            let mut k = c;
            loop {
                let due = t0 + Duration::from_secs_f64(k as f64 / w.open_rate);
                if due >= end {
                    break;
                }
                // Sleep until due, waking to stamp every reply as it lands.
                loop {
                    client.pump()?;
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    wait::readable(&client.stream, left);
                }
                let (frame, format) = self.set.pick(base + k, w.wire);
                let record = new_send(self.set, frame, format, phase, cycle, due);
                client.send(&self.wires[frame][format], record)?;
                k += w.connections;
            }
            client.drain(REPLY_TIMEOUT)
        })?;
        self.settle(clients)
    }

    /// One frame in flight for `length`, and for `MIN_CYCLE_VERDICTS`
    /// frames at least: the first connection sends the next frame as soon
    /// as the previous one's verdict is received, so the server is never
    /// idle and never queues. Settles.
    fn closed_loop(
        &self,
        mut clients: Vec<Client>,
        cycle: usize,
        length: Duration,
    ) -> BenchResult<Vec<Client>> {
        let w = self.w;
        let mut k = clients.iter().map(|c| c.sends.len()).sum::<usize>();
        let mut judged = self.received.count();
        let end = Instant::now() + length;
        let client = &mut clients[0];
        let first = client.sends.len();
        while Instant::now() < end || client.sends.len() - first < MIN_CYCLE_VERDICTS {
            let (frame, format) = self.set.pick(k, w.wire);
            let record = new_send(
                self.set,
                frame,
                format,
                Phase::Closed,
                cycle,
                Instant::now(),
            );
            client.send(&self.wires[frame][format], record)?;
            client.drain(REPLY_TIMEOUT)?;
            if client.sends.last().is_some_and(|s| s.seq.is_some()) {
                judged += 1;
                self.received.wait_for(judged)?;
            }
            k += 1;
        }
        self.settle(clients)
    }

    /// Lossless `Block` backpressure for `length`: each connection keeps
    /// `window` frames outstanding and sends as ACKs return. Settles, and
    /// returns the segment's start and end.
    fn saturate(
        &self,
        clients: Vec<Client>,
        cycle: usize,
        length: Duration,
    ) -> BenchResult<(Vec<Client>, (Instant, Instant))> {
        let w = self.w;
        let base = clients.iter().map(|c| c.sends.len()).sum::<usize>();
        let start = Instant::now();
        let end = start + length;
        let clients = self.run_clients(clients, |c, client| {
            let mut k = base + c;
            while Instant::now() < end {
                if client.outstanding.len() >= w.window {
                    if client.pump()? == 0 {
                        wait::readable(&client.stream, Duration::from_millis(1));
                    }
                    continue;
                }
                let (frame, format) = self.set.pick(k, w.wire);
                let record = new_send(
                    self.set,
                    frame,
                    format,
                    Phase::Saturation,
                    cycle,
                    Instant::now(),
                );
                client.send(&self.wires[frame][format], record)?;
                k += w.connections;
            }
            client.drain(REPLY_TIMEOUT)
        })?;
        Ok((self.settle(clients)?, (start, end)))
    }

    /// Wait until every acknowledged frame's verdict has been received.
    fn settle(&self, clients: Vec<Client>) -> BenchResult<Vec<Client>> {
        let acked: u64 = clients.iter().map(acked_count).sum();
        self.received.wait_for(acked)?;
        Ok(clients)
    }

    /// Run one closure per connection on its own thread (the load
    /// generator's whole thread budget); the calling thread optionally
    /// samples the engine's queue depth meanwhile. Returns the clients for
    /// the next segment.
    fn run_clients<F>(&self, clients: Vec<Client>, body: F) -> BenchResult<Vec<Client>>
    where
        F: Fn(usize, &mut Client) -> BenchResult<()> + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let body = &body;
                    scope.spawn(move || {
                        wait::tight_timer_slack();
                        body(c, &mut client).map(|()| client)
                    })
                })
                .collect();
            if self.watch_queue {
                while handles.iter().any(|h| !h.is_finished()) {
                    let depth = self.engine.stats().queue_depth;
                    let mut max = self.queue_max.lock().expect("queue watcher mutex poisoned");
                    *max = (*max).max(depth);
                    drop(max);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "load generator thread panicked".to_string())?
                })
                .collect()
        })
    }
}

fn new_send(
    set: &FrameSet,
    frame: usize,
    format: usize,
    phase: Phase,
    cycle: usize,
    due: Instant,
) -> Send {
    Send {
        frame,
        format,
        rows: set.frames[frame].df.n_rows(),
        phase,
        cycle,
        due,
        sent: due,
        acked: None,
        seq: None,
    }
}

fn acked_count(client: &Client) -> u64 {
    client.sends.iter().filter(|s| s.seq.is_some()).count() as u64
}

/// Verdicts taken off the stream so far, with a wake-up for waiters.
#[derive(Default)]
struct Progress {
    received: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn add_one(&self) {
        *self.received.lock().expect("progress mutex poisoned") += 1;
        self.changed.notify_all();
    }

    fn count(&self) -> u64 {
        *self.received.lock().expect("progress mutex poisoned")
    }

    /// Block until `target` verdicts have been received.
    fn wait_for(&self, target: u64) -> BenchResult<()> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut received = self.received.lock().expect("progress mutex poisoned");
        while *received < target {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("only {} of {target} verdicts arrived", *received));
            }
            received = self
                .changed
                .wait_timeout(received, left)
                .expect("progress mutex poisoned")
                .0;
        }
        Ok(())
    }
}
