//! Single-connection load generator.
//!
//! Requests are timed from the instant they were *due* (the Poisson
//! schedule for an open loop, the triggering answer for a closed loop)
//! to the instant their answer frame arrives. A reader drains the socket
//! through `wire::FrameBuffer` and stamps each frame as it arrives, so a
//! slow answer never delays the timing of the ones behind it. Two threads
//! at most: the open-loop generator and its reader, or one closed-loop
//! thread that reads and resubmits.

use crate::check::Answer;
use crate::workload::SeededSource;
use eugene_net::wire::{self, FrameBuffer};
use eugene_net::{Frame, SubmitRequest, WireError, PROTOCOL_VERSION};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Open loop: Poisson arrivals at `rps`, regardless of answers.
    Poisson { rps: f64 },
    /// Closed loop: `in_flight` requests outstanding; each answer
    /// triggers the next submit.
    Closed { in_flight: usize },
}

/// Highest rate a closed loop can record: its records have room for this
/// many requests per second of the drive. A drive that fills its records
/// stops submitting and is invalid.
pub const CLOSED_LOOP_MAX_RPS: f64 = 20_000.0;

/// One request to send: which class, which payload, which routing key.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub class: usize,
    pub item: usize,
    pub key: Option<u64>,
}

/// A class as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientClass {
    pub name: String,
    pub budget_ms: u64,
}

/// One sent request.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub class: usize,
    pub item: usize,
    pub due: Instant,
    pub sent: Instant,
}

/// One terminal frame as it arrived.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub tag: u64,
    pub answer: Answer,
    pub at: Instant,
}

/// Room for the records of one drive, reserved before set-up with every
/// page already written. Filling it leaves the resident set where it was,
/// so the client's own records weigh the same however fast the server
/// answers, and [`Records::bytes`] can be taken off the process's peak.
pub struct Records {
    sent: Vec<Sent>,
    arrivals: Vec<Arrival>,
}

impl Records {
    /// Room for a drive of `duration`: the schedule with a margin in the
    /// open loop, [`CLOSED_LOOP_MAX_RPS`] in the closed loop.
    pub fn reserve(traffic: Traffic, duration: Duration) -> Self {
        let secs = duration.as_secs_f64();
        let capacity = match traffic {
            Traffic::Poisson { rps } => (rps * secs * 1.2) as usize + 1024,
            Traffic::Closed { in_flight } => (CLOSED_LOOP_MAX_RPS * secs) as usize + in_flight,
        };
        let now = Instant::now();
        let sent = Sent {
            class: 0,
            item: 0,
            due: now,
            sent: now,
        };
        let arrival = Arrival {
            tag: 0,
            answer: Answer::Rejected,
            at: now,
        };
        Self {
            sent: written(capacity, sent),
            arrivals: written(capacity, arrival),
        }
    }

    /// Bytes reserved.
    pub fn bytes(&self) -> usize {
        self.sent.capacity() * std::mem::size_of::<Sent>()
            + self.arrivals.capacity() * std::mem::size_of::<Arrival>()
    }
}

/// An empty vector with room for `capacity` items, every page written.
fn written<T: Copy>(capacity: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; capacity];
    std::hint::black_box(&mut v);
    v.clear();
    v
}

/// Everything one drive observed.
#[derive(Debug)]
pub struct Record {
    /// Origin of the schedule.
    pub start: Instant,
    pub sent: Vec<Sent>,
    pub arrivals: Vec<Arrival>,
    /// Wire errors, write failures and unexpected frames.
    pub protocol_errors: usize,
    /// The drive filled its records and stopped submitting.
    pub full: bool,
}

/// Opens a connection and completes the `Hello` handshake.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            max_version: PROTOCOL_VERSION,
        },
    )
    .map_err(to_io)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    match wire::read_frame(&mut stream).map_err(to_io)? {
        Frame::HelloAck { .. } => {}
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected HelloAck, got {other:?}"),
            ))
        }
    }
    stream.set_read_timeout(Some(Duration::from_millis(2)))?;
    Ok(stream)
}

fn to_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}")),
    }
}

fn submit(
    stream: &TcpStream,
    tag: u64,
    planned: Planned,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
) -> io::Result<()> {
    let mut w = stream;
    w.write_all(&submit_frame(tag, planned, classes, payloads))
}

fn submit_frame(
    tag: u64,
    planned: Planned,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
) -> Vec<u8> {
    let class = &classes[planned.class];
    let frame = Frame::Submit(SubmitRequest {
        client_tag: tag,
        class: class.name.clone(),
        budget_ms: class.budget_ms,
        want_progress: false,
        payload: payloads[planned.item].clone(),
        routing_key: planned.key,
        model: None,
        tenant: None,
        epoch: None,
    });
    wire::encode_frame(&frame)
}

/// Tags of priming requests, far from the `0..` tags of a drive.
const PRIME_TAGS: u64 = 1 << 62;
/// Bursts per batch size when priming.
const PRIME_ROUNDS: usize = 3;

/// Sends bursts of every size from 1 to `max_batch` (payloads `0..size`,
/// first class), one write per burst, and waits for each burst's answers,
/// so each batch shape the runtime fuses has run, and its compiled plan
/// is cached, before timing starts. Returns the `(payload, answer)` pairs
/// for the correctness gate and the number of requests sent; a burst that
/// is not fully answered within `timeout` ends priming early.
pub fn prime(
    stream: &TcpStream,
    max_batch: usize,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
    timeout: Duration,
) -> io::Result<(Vec<(usize, Answer)>, usize)> {
    let mut buf = FrameBuffer::new();
    let mut reader = stream;
    let mut answers = Vec::new();
    let mut tag = PRIME_TAGS;
    for size in (1..=max_batch).flat_map(|size| std::iter::repeat_n(size, PRIME_ROUNDS)) {
        let first = tag;
        let mut burst = Vec::new();
        for item in 0..size.min(payloads.len()) {
            let planned = Planned {
                class: 0,
                item,
                key: None,
            };
            burst.extend(submit_frame(tag, planned, classes, payloads));
            tag += 1;
        }
        let mut w = stream;
        w.write_all(&burst)?;
        let give_up = Instant::now() + timeout;
        let mut outstanding = tag - first;
        while outstanding > 0 {
            if Instant::now() > give_up {
                return Ok((answers, (tag - PRIME_TAGS) as usize));
            }
            let frame = buf.poll(&mut reader).map_err(to_io)?;
            if let Some((t, answer)) = frame.and_then(terminal) {
                let item = t.checked_sub(first).filter(|&i| i < tag - first);
                let item = item.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("answer for unknown tag {t}"),
                    )
                })?;
                answers.push((item as usize, answer));
                outstanding -= 1;
            }
        }
    }
    Ok((answers, (tag - PRIME_TAGS) as usize))
}

/// Terminal answer carried by `frame`, if it is one.
fn terminal(frame: Frame) -> Option<(u64, Answer)> {
    match frame {
        Frame::Final {
            client_tag,
            response,
        } => Some((
            client_tag,
            Answer::Final {
                predicted: response.predicted,
                confidence: response.confidence,
                stages: response.stages_executed,
                expired: response.expired,
                degraded: response.degraded,
                server_us: response.latency_us,
            },
        )),
        Frame::Reject { client_tag, .. } => Some((client_tag, Answer::Rejected)),
        _ => None,
    }
}

/// Drives one connection for `duration` of schedule, then waits up to
/// `grace` for the answers still outstanding.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    stream: &TcpStream,
    traffic: Traffic,
    records: Records,
    source: &mut SeededSource,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
    duration: Duration,
    grace: Duration,
) -> Record {
    match traffic {
        Traffic::Poisson { rps } => open_loop(
            stream, rps, records, source, classes, payloads, duration, grace,
        ),
        Traffic::Closed { in_flight } => closed_loop(
            stream, in_flight, records, source, classes, payloads, duration, grace,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn open_loop(
    stream: &TcpStream,
    rps: f64,
    records: Records,
    source: &mut SeededSource,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
    duration: Duration,
    grace: Duration,
) -> Record {
    // `expected` stays at MAX until the generator knows how many it sent.
    let expected = Arc::new(AtomicUsize::new(usize::MAX));
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stream = stream.try_clone().expect("clone client socket");
    let Records { mut sent, arrivals } = records;
    let reader = {
        let expected = Arc::clone(&expected);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("perfbench-reader".to_owned())
            .spawn(move || read_answers(reader_stream, arrivals, &expected, &stop))
            .expect("spawn reader")
    };

    let start = Instant::now();
    let end = start + duration;
    let mut protocol_errors = 0;
    let mut full = false;
    let mut due = start + source.next_gap(rps);
    while due < end {
        if sent.len() == sent.capacity() {
            full = true;
            break;
        }
        let planned = source.next_request();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        if submit(stream, sent.len() as u64, planned, classes, payloads).is_err() {
            protocol_errors += 1;
            break;
        }
        sent.push(Sent {
            class: planned.class,
            item: planned.item,
            due,
            sent: at,
        });
        due += source.next_gap(rps);
    }
    expected.store(sent.len(), Ordering::SeqCst);
    let give_up = Instant::now() + grace;
    while !reader.is_finished() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::SeqCst);
    let (arrivals, errors) = reader.join().expect("reader thread panicked");
    Record {
        start,
        sent,
        arrivals,
        protocol_errors: protocol_errors + errors,
        full,
    }
}

/// Reads terminal frames into `arrivals` until `expected` of them arrived
/// or `stop` is set.
fn read_answers(
    mut stream: TcpStream,
    mut arrivals: Vec<Arrival>,
    expected: &AtomicUsize,
    stop: &AtomicBool,
) -> (Vec<Arrival>, usize) {
    let mut buf = FrameBuffer::new();
    let mut errors = 0;
    while arrivals.len() < expected.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst) {
        match buf.poll(&mut stream) {
            Ok(Some(frame)) => {
                let at = Instant::now();
                match terminal(frame) {
                    Some((tag, answer)) => arrivals.push(Arrival { tag, answer, at }),
                    None => errors += 1,
                }
            }
            Ok(None) => {}
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    (arrivals, errors)
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    stream: &TcpStream,
    in_flight: usize,
    records: Records,
    source: &mut SeededSource,
    classes: &[ClientClass],
    payloads: &[Vec<f32>],
    duration: Duration,
    grace: Duration,
) -> Record {
    let start = Instant::now();
    let mut record = Record {
        start,
        sent: records.sent,
        arrivals: records.arrivals,
        protocol_errors: 0,
        full: false,
    };
    let mut buf = FrameBuffer::new();
    let mut reader = stream;
    let end = start + duration;
    let mut send = |record: &mut Record, due: Instant| -> bool {
        if record.sent.len() == record.sent.capacity() {
            record.full = true;
            return false;
        }
        let planned = source.next_request();
        let at = Instant::now();
        if submit(stream, record.sent.len() as u64, planned, classes, payloads).is_err() {
            record.protocol_errors += 1;
            return false;
        }
        record.sent.push(Sent {
            class: planned.class,
            item: planned.item,
            due,
            sent: at,
        });
        true
    };
    let mut outstanding = 0usize;
    for _ in 0..in_flight {
        if send(&mut record, start) {
            outstanding += 1;
        }
    }
    let give_up = end + grace;
    while outstanding > 0 && Instant::now() < give_up {
        match buf.poll(&mut reader) {
            Ok(Some(frame)) => {
                let at = Instant::now();
                let Some((tag, answer)) = terminal(frame) else {
                    record.protocol_errors += 1;
                    continue;
                };
                record.arrivals.push(Arrival { tag, answer, at });
                outstanding -= 1;
                if at < end && send(&mut record, at) {
                    outstanding += 1;
                }
            }
            Ok(None) => {}
            Err(_) => {
                record.protocol_errors += 1;
                break;
            }
        }
    }
    record
}
