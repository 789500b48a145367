//! Overload, deadline, drain, reaping, and restart behavior over a real
//! socket: the server sheds load with typed answers instead of queueing to
//! death, finishes in-flight work on drain, reclaims wedged connection
//! slots, and a retrying client rides through a server death-and-restart
//! on the same port.

use ff_models::small_mlp;
use ff_net::protocol::{read_frame, write_frame, Frame};
use ff_net::{
    AdmissionConfig, Client, ClientConfig, ErrorCode, NetConfig, NetError, NetServer, RetryPolicy,
    WireHealthState, DEFAULT_MAX_FRAME_BYTES,
};
use ff_serve::{BatchPolicy, FrozenModel, ServeConfig};
use ff_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const FEATURES: usize = 20;
const CLASSES: usize = 5;

fn frozen(seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrozenModel::freeze(&small_mlp(FEATURES, &[12], CLASSES, &mut rng), CLASSES).unwrap()
}

fn base_config() -> NetConfig {
    NetConfig {
        conn_threads: 4,
        read_timeout: Duration::from_millis(100),
        serve: ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

#[test]
fn overload_is_answered_with_a_typed_hint_not_a_queue() {
    // Capacity of ONE row, and a batch policy that parks a lone request for
    // 600 ms waiting for batch-mates: while the first request camps in the
    // batcher holding the only slot, a second request must be refused
    // immediately with Overloaded + retry-after — not queued behind it.
    let retry_after = Duration::from_millis(35);
    let config = NetConfig {
        admission: AdmissionConfig {
            max_in_flight_rows: 1,
            retry_after,
            ..AdmissionConfig::default()
        },
        serve: ServeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 32,
                max_wait: Duration::from_millis(600),
            },
            ..ServeConfig::default()
        },
        ..base_config()
    };
    let model = frozen(21);
    let x = init::uniform(&[1, FEATURES], -1.0, 1.0, &mut StdRng::seed_from_u64(3));
    let direct = model.predict_logits(&x).unwrap();
    let server = NetServer::bind(model, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let row: Vec<f32> = x.row(0).to_vec();
    let camper_row = row.clone();
    let camper = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let label = client.predict(&camper_row).unwrap();
        client.close();
        label
    });
    // Give the camper time to occupy the slot, then collide with it.
    std::thread::sleep(Duration::from_millis(150));
    let mut client = Client::connect(addr).unwrap();
    let started = Instant::now();
    match client.predict(&row) {
        Err(NetError::Remote {
            code,
            retry_after: hint,
            ..
        }) => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(code.is_retryable(), "Overloaded must invite a retry");
            assert_eq!(hint, Some(retry_after), "hint should echo the config");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "overload answer must be immediate, not queued behind the camper"
    );

    // The camper's admitted request still completed, bit-identically.
    assert_eq!(camper.join().unwrap(), direct[0]);
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.requests, 1, "only the admitted request was served");
    client.close();
    server.shutdown();
}

#[test]
fn expired_deadlines_are_shed_before_the_gemm() {
    // A 1 ms budget against a batcher that parks lone requests for 300 ms:
    // the deadline expires in the batch queue, so the server must answer
    // DeadlineExceeded without spending a GEMM slot on it.
    let config = NetConfig {
        serve: ServeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 32,
                max_wait: Duration::from_millis(300),
            },
            ..ServeConfig::default()
        },
        ..base_config()
    };
    let server = NetServer::bind(frozen(22), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let doomed = Frame::Predict {
        id: 5,
        deadline_micros: 1_000,
        features: vec![0.5; FEATURES],
    };
    write_frame(&mut stream, &doomed, DEFAULT_MAX_FRAME_BYTES).unwrap();
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap() {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 5);
            assert_eq!(code, ErrorCode::DeadlineExceeded);
            assert!(
                !code.is_retryable(),
                "retrying an expired deadline is futile: the budget is gone"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.shed_expired + stats.rejected_deadline,
        1,
        "the doomed request must show up as shed or refused"
    );
    // An unbounded request on the same server still gets served.
    assert!(client.predict(&[0.5; FEATURES]).unwrap() < CLASSES);
    client.close();
    server.shutdown();
}

#[test]
fn drain_finishes_in_flight_work_and_refuses_new_predictions() {
    let config = NetConfig {
        drain_budget: Duration::from_secs(3),
        serve: ServeConfig {
            workers: 1,
            policy: BatchPolicy {
                max_batch: 32,
                // Parks the in-flight request long enough for the probes
                // below to observe the Draining window.
                max_wait: Duration::from_millis(600),
            },
            ..ServeConfig::default()
        },
        ..base_config()
    };
    let model = frozen(23);
    let x = init::uniform(&[1, FEATURES], -1.0, 1.0, &mut StdRng::seed_from_u64(9));
    let direct = model.predict_logits(&x).unwrap();
    let server = NetServer::bind(model, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Connections must exist BEFORE drain starts: draining stops accepting.
    let mut controller = Client::connect(addr).unwrap();
    let mut probe = Client::connect(addr).unwrap();
    probe.health().unwrap(); // force the lazy connect now

    let row: Vec<f32> = x.row(0).to_vec();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let label = client.predict(&row).unwrap();
        client.close();
        label
    });
    std::thread::sleep(Duration::from_millis(150));
    controller.shutdown_server().unwrap();
    assert!(server.is_shutting_down());

    // The probe's existing connection sees the Draining health state and a
    // typed, retryable refusal for new prediction work.
    let info = probe.health().unwrap();
    assert_eq!(info.state, WireHealthState::Draining);
    match probe.predict(&[0.5; FEATURES]) {
        Err(NetError::Remote {
            code, retry_after, ..
        }) => {
            assert_eq!(code, ErrorCode::Draining);
            assert!(code.is_retryable(), "another replica may take it");
            assert!(retry_after.is_some(), "hint tells clients when to look");
        }
        other => panic!("expected a Draining refusal, got {other:?}"),
    }

    // The request admitted before drain still completes, bit-identically.
    assert_eq!(in_flight.join().unwrap(), direct[0]);
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drain should end as soon as in-flight work finishes, not eat the budget"
    );
    controller.close();
    probe.close();
}

#[test]
fn idle_connections_are_reaped_freeing_their_slot() {
    // One handler thread and a slow-loris client that connects and sends
    // nothing: without reaping, the slot is wedged until the client deigns
    // to speak and every later connection starves behind it.
    let config = NetConfig {
        conn_threads: 1,
        read_timeout: Duration::from_millis(50),
        idle_timeout: Duration::from_millis(250),
        ..base_config()
    };
    let server = NetServer::bind(frozen(24), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Give the handler time to adopt the idle connection, then let the
    // idle_timeout elapse.
    std::thread::sleep(Duration::from_millis(500));

    // The reaped slot must now serve a well-behaved client promptly.
    let started = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.predict(&[0.25; FEATURES]).unwrap() < CLASSES);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "slow-loris connection starved the pool"
    );
    // And the loris observes its connection closed (EOF), not limbo.
    assert_eq!(loris.read(&mut [0u8; 8]).unwrap(), 0);
    client.close();
    server.shutdown();
}

#[test]
fn a_previous_version_frame_is_refused_by_name() {
    let server = NetServer::bind(frozen(25), "127.0.0.1:0", base_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // A hand-built FF8P version-2 `Stats { id: 1 }`, valid in that dialect:
    // magic, version, reserved flags, one body record of kind byte + id.
    let mut frame = b"FF8P\x02\x00\x00\x00\x09\x00\x00\x00\x03".to_vec();
    frame.extend_from_slice(&1u64.to_le_bytes());
    ff_codec::wire::write_frame(&mut stream, &frame, DEFAULT_MAX_FRAME_BYTES).unwrap();

    // One typed reply naming the version, then a closed stream.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap() {
        Frame::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(
                message.contains("unsupported format version 2"),
                "{message}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "stream stays open");

    // The server still serves the next connection.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.health().unwrap().input_features, FEATURES);
    client.close();
    server.shutdown();
}

#[test]
fn retries_ride_through_a_mid_frame_server_death_and_restart() {
    // A fake server accepts one connection, reads the request, then dies
    // mid-reply: length prefix promising 64 bytes, 10 bytes delivered,
    // connection and listener dropped. A real server then binds the SAME
    // port. The client's seeded retry policy must carry the request through
    // the gap to a correct answer, with no wrong answer surfaced in between.
    let model = frozen(26);
    let x = init::uniform(&[1, FEATURES], -1.0, 1.0, &mut StdRng::seed_from_u64(6));
    let direct = model.predict_logits(&x).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let row: Vec<f32> = x.row(0).to_vec();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect_with(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_attempts: 10,
                    base_backoff: Duration::from_millis(25),
                    max_backoff: Duration::from_millis(400),
                    jitter_seed: 42,
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let label = client.predict(&row).unwrap();
        client.close();
        label
    });

    // Fake-server half: accept, read some request bytes, die mid-reply.
    let (mut victim, _) = listener.accept().unwrap();
    let mut sink = [0u8; 32];
    let _ = victim.read(&mut sink);
    victim.write_all(&64u32.to_le_bytes()).unwrap();
    victim.write_all(&[0xEE; 10]).unwrap();
    victim.flush().unwrap();
    drop(victim);
    drop(listener);

    // Rebind the SAME address with a real server (std listeners set
    // SO_REUSEADDR on Unix, but give the kernel a moment if it needs one).
    let mut rebound = None;
    for _ in 0..100 {
        match NetServer::bind(model.clone(), addr, base_config()) {
            Ok(server) => {
                rebound = Some(server);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let server = rebound.expect("could not rebind the fake server's port");

    assert_eq!(
        client_thread.join().expect("client gave up or panicked"),
        direct[0],
        "the retried answer must match a direct call"
    );
    server.shutdown();
}
