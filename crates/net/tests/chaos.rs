//! Chaos suite: the server survives hostile and broken clients without
//! hanging, leaking connection-pool slots, or producing a wrong (rather
//! than typed-error) answer.
//!
//! Faults are injected by [`ff_net::fault::FaultyStream`] from seeded
//! [`FaultPlan`]s, so every run replays the same fault schedule — a failure
//! here reproduces from its seed alone. Chaos rounds run under a watchdog:
//! "no hang" is an assertion, not a hope.

use ff_models::small_mlp;
use ff_net::fault::{FaultPlan, FaultyStream};
use ff_net::protocol::{encode_frame, read_frame, write_frame, Frame};
use ff_net::{Client, ErrorCode, NetConfig, NetError, NetServer, DEFAULT_MAX_FRAME_BYTES};
use ff_serve::{FrozenModel, ServeConfig, TraceSettings};
use ff_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const FEATURES: usize = 16;
const CLASSES: usize = 4;

fn frozen(seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrozenModel::freeze(&small_mlp(FEATURES, &[12], CLASSES, &mut rng), CLASSES).unwrap()
}

fn chaos_config() -> NetConfig {
    NetConfig {
        conn_threads: 3,
        read_timeout: Duration::from_millis(50),
        // Short reap so stalled/abandoned chaotic connections free their
        // pool slots within the test's patience.
        idle_timeout: Duration::from_millis(300),
        drain_budget: Duration::from_secs(2),
        serve: ServeConfig {
            workers: 2,
            // Trace every request: the suite asserts that killed, stalled
            // and corrupted connections never leak a live (uncommitted)
            // trace, which only bites if every request carries one.
            trace: TraceSettings {
                sample_per_sec: u32::MAX,
                ..TraceSettings::default()
            },
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

/// Asserts that every begun trace was committed (no half-stamped trace is
/// still live) once in-flight replies finish, and that everything the
/// flight recorder retained has monotonic stamps.
fn assert_no_trace_leaks(server: &NetServer) {
    let recorder = server.handle().flight_recorder();
    // Commits happen when the last handle drops — reply writers may still
    // be finishing; give them a bounded moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while recorder.live() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        recorder.live(),
        0,
        "chaos leaked live traces: a faulty connection dropped neither its \
         handles nor its permit"
    );
    for trace in recorder.recent(0) {
        assert!(trace.is_monotonic(), "torn trace committed: {trace:?}");
    }
}

/// Runs `body` on a worker thread and panics if it does not finish within
/// `limit` — the suite's "never hangs" teeth.
fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("chaos worker panicked");
            value
        }
        // The sender dropped without sending: the worker panicked —
        // propagate its payload instead of mislabeling it a hang.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("worker finished without sending"),
        },
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos run exceeded the {limit:?} watchdog: server hang")
        }
    }
}

/// One chaotic session against `addr`: speaks real FF8P through a faulty
/// transport, returns the labels it managed to obtain (id → label).
fn chaotic_session(
    addr: std::net::SocketAddr,
    plan: FaultPlan,
    rows: &[Vec<f32>],
) -> Vec<(u64, u32)> {
    let Ok(stream) = TcpStream::connect(addr) else {
        return Vec::new();
    };
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    let mut faulty = FaultyStream::new(stream, plan);
    let mut answered = Vec::new();
    for (index, row) in rows.iter().enumerate() {
        let id = index as u64 + 1;
        let frame = Frame::Predict {
            id,
            deadline_micros: 0,
            features: row.clone(),
        };
        if write_frame(&mut faulty, &frame, DEFAULT_MAX_FRAME_BYTES).is_err() {
            break; // injected cut / stall-timeout: abandon the session
        }
        match read_frame(&mut faulty, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Frame::Labels {
                id: reply_id,
                labels,
            }) if labels.len() == 1 => {
                answered.push((reply_id, labels[0]));
            }
            Ok(_) | Err(_) => break, // typed error or corrupted reply: bail
        }
    }
    answered
}

#[test]
fn seeded_chaos_never_hangs_leaks_slots_or_corrupts_answers() {
    let model = frozen(11);
    let x = init::uniform(&[8, FEATURES], -1.0, 1.0, &mut StdRng::seed_from_u64(2));
    let direct = model.predict_logits(&x).unwrap();
    let rows: Vec<Vec<f32>> = (0..8).map(|r| x.row(r).to_vec()).collect();

    let server = NetServer::bind(model, "127.0.0.1:0", chaos_config()).unwrap();
    let addr = server.local_addr();

    // Phase 1: three seeded waves of chaotic sessions, concurrently per
    // wave: fragmented-but-honest traffic, mid-stream cuts, and reply
    // corruption. Sessions may fail; the invariant is that every label any
    // of them DID receive matches the direct model answer for its row.
    let answered = with_watchdog(Duration::from_secs(30), move || {
        let mut answered = Vec::new();
        for round in 0..3u64 {
            std::thread::scope(|scope| {
                let mut sessions = Vec::new();
                for lane in 0..4u64 {
                    let seed = round * 100 + lane;
                    // Lane 2 corrupts *replies* client-side; FF8P carries no
                    // checksum, so a payload flip can decode to a valid but
                    // wrong label — that lane exercises robustness only and
                    // its answers are excluded from the integrity check.
                    let (plan, trusted) = match lane {
                        0 => (FaultPlan::rough_network(seed), true),
                        1 => (
                            FaultPlan {
                                cut_at_op: Some(3 + round),
                                ..FaultPlan::rough_network(seed)
                            },
                            true,
                        ),
                        2 => (
                            FaultPlan {
                                corrupt_read: 0.4,
                                ..FaultPlan::rough_network(seed)
                            },
                            false,
                        ),
                        _ => (
                            FaultPlan {
                                stall: 0.5,
                                stall_for: Duration::from_millis(20),
                                cut_at_op: Some(9),
                                ..FaultPlan::benign(seed)
                            },
                            true,
                        ),
                    };
                    let rows = &rows;
                    sessions.push((
                        trusted,
                        scope.spawn(move || chaotic_session(addr, plan, rows)),
                    ));
                }
                for (trusted, session) in sessions {
                    let got = session.join().expect("chaotic session panicked");
                    if trusted {
                        answered.extend(got);
                    }
                }
            });
        }
        answered
    });
    // Every answer an honest-transport session received must be the exact
    // label a direct in-memory call produces for that row.
    assert!(!answered.is_empty(), "no chaotic session got any answer");
    for (id, label) in &answered {
        let row = (*id - 1) as usize;
        assert_eq!(*label as usize, direct[row], "row {row}: wrong answer");
    }

    // Phase 2: raw garbage streams — not even FF8P — must be answered with
    // a typed error or a close, never a hang.
    with_watchdog(Duration::from_secs(10), move || {
        for seed in 0..4u64 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let garbage: Vec<u8> = (0..256)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            let _ = stream.write_all(&garbage);
            let _ = stream.flush();
            // Read whatever comes back (an error frame or EOF); both fine.
            let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES);
        }
    });

    // Phase 3: no leaked pool slots — after all that, as many *clean*
    // concurrent clients as there are handler threads must all be served
    // with bit-exact answers (abandoned chaotic connections were reaped).
    let rows: Vec<Vec<f32>> = (0..8).map(|r| x.row(r).to_vec()).collect();
    let direct_clone = direct.clone();
    with_watchdog(Duration::from_secs(20), move || {
        std::thread::scope(|scope| {
            for _ in 0..chaos_config().conn_threads {
                let rows = &rows;
                let direct = &direct_clone;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("clean connect after chaos");
                    for (row, expected) in rows.iter().zip(direct.iter()) {
                        assert_eq!(client.predict(row).unwrap(), *expected);
                    }
                    client.close();
                });
            }
        });
    });

    assert_no_trace_leaks(&server);
    server.shutdown();
}

#[test]
fn half_frames_then_death_free_their_slot() {
    // A client that sends a length prefix promising a frame, delivers half
    // of it, and dies must not pin a pool slot past the reap window.
    let server = NetServer::bind(frozen(12), "127.0.0.1:0", chaos_config()).unwrap();
    let addr = server.local_addr();

    with_watchdog(Duration::from_secs(15), move || {
        let frame_bytes = encode_frame(&Frame::Predict {
            id: 1,
            deadline_micros: 0,
            features: vec![0.5; FEATURES],
        });
        // Wedge every pool slot with a half-frame, then hang up abruptly on
        // some and stay silent on others.
        let mut wedged = Vec::new();
        for index in 0..chaos_config().conn_threads {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&(frame_bytes.len() as u32).to_le_bytes())
                .unwrap();
            stream
                .write_all(&frame_bytes[..frame_bytes.len() / 2])
                .unwrap();
            stream.flush().unwrap();
            if index % 2 == 0 {
                drop(stream); // mid-frame death: EOF for the server
            } else {
                wedged.push(stream); // mid-frame stall: reap must fire
            }
        }
        // EOF-killed slots free immediately; stalled ones after
        // idle_timeout. A clean client must then be served.
        let mut client = Client::connect(addr).expect("connect after wedging");
        let label = client
            .predict(&[0.25; FEATURES])
            .expect("served after reap");
        assert!(label < CLASSES);
        client.close();
        drop(wedged);
    });

    assert_no_trace_leaks(&server);
    server.shutdown();
}

#[test]
fn corrupted_requests_get_typed_errors_not_crashes() {
    // Flip one byte in an otherwise-valid request frame at every offset in
    // the header/metadata region: the server must answer each with a typed
    // Protocol/FrameTooLarge error (or close on the undecodable ones), and
    // must still serve a clean request afterwards.
    let server = NetServer::bind(frozen(13), "127.0.0.1:0", chaos_config()).unwrap();
    let addr = server.local_addr();

    with_watchdog(Duration::from_secs(30), move || {
        let frame_bytes = encode_frame(&Frame::Predict {
            id: 7,
            deadline_micros: 0,
            features: vec![0.5; FEATURES],
        });
        for offset in 0..32usize.min(frame_bytes.len()) {
            let mut corrupted = frame_bytes.clone();
            corrupted[offset] ^= 0xA5;
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            ff_codec::wire::write_frame(&mut stream, &corrupted, DEFAULT_MAX_FRAME_BYTES).unwrap();
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
                // A flip in the feature payload still decodes: a real label.
                Ok(Frame::Labels { .. }) => {}
                // Structural flips: typed error frame. (A flip in the
                // deadline field arrives already-expired; a flip in the
                // width metadata is a bad request; a flip in the v3 flags
                // word addresses a model that is not registered.)
                Ok(Frame::Error { code, .. }) => assert!(
                    matches!(
                        code,
                        ErrorCode::Protocol
                            | ErrorCode::FrameTooLarge
                            | ErrorCode::BadRequest
                            | ErrorCode::DeadlineExceeded
                            | ErrorCode::UnknownModel
                    ),
                    "offset {offset}: unexpected code {code:?}"
                ),
                Ok(other) => panic!("offset {offset}: unexpected reply {other:?}"),
                // Or the server closed after answering/mid-handshake.
                Err(NetError::Closed | NetError::Timeout | NetError::FrameTooLarge { .. }) => {}
                Err(other) => panic!("offset {offset}: unexpected error {other:?}"),
            }
        }
        // The server is still healthy.
        let mut client = Client::connect(addr).unwrap();
        assert!(client.predict(&[0.1; FEATURES]).unwrap() < CLASSES);
        client.close();
    });

    assert_no_trace_leaks(&server);
    server.shutdown();
}
