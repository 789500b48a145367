//! The multi-model serving gate (`scripts/check.sh`): train two models,
//! serve both from one port behind one micro-batcher, prove per-model
//! **bit-exact parity** against direct [`FrozenModel`] calls, hot-swap one
//! entry from a rotating `FF8C` checkpoint via the training session's
//! `on_checkpoint` hook while traffic flows, and verify the auth model —
//! missing/wrong/out-of-scope tokens get typed `Unauthorized` replies, an
//! unknown model id gets `UnknownModel`, and shutdown itself requires a
//! credential.

use ff_core::checkpoint::latest;
use ff_core::{Algorithm, Checkpoint, TrainOptions, TrainSession};
use ff_data::{synthetic_mnist, SyntheticConfig};
use ff_models::small_mlp;
use ff_net::protocol::{read_frame_meta, write_frame_meta};
use ff_net::{
    AuthPolicy, AuthToken, Client, ClientConfig, ErrorCode, Frame, FrameMeta, NetConfig, NetError,
    NetServer, DEFAULT_MAX_FRAME_BYTES,
};
use ff_serve::{FrozenModel, ModelRegistry, ServeConfig, ServeMode, DEFAULT_MODEL_ID};
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FEATURES: usize = 784;
const CLASSES: usize = 10;
const CANDIDATE_ID: u16 = 7;
const ADMIN_TOKEN: &str = "ops-master-key";
const TENANT_TOKEN: &str = "tenant-candidate-key";

fn dataset() -> (ff_data::Dataset, ff_data::Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size: 64,
        test_size: 32,
        noise_std: 0.2,
        max_shift: 0,
        seed: 14,
    })
}

/// Trains `steps` mini-batches from `seed` and returns the frozen result.
fn trained_model(hidden: usize, seed: u64, steps: usize) -> FrozenModel {
    let (train_set, test_set) = dataset();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = small_mlp(FEATURES, &[hidden], CLASSES, &mut rng);
    let mut session = TrainSession::new(
        &mut net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: true },
        &TrainOptions::fast_test(),
    )
    .unwrap();
    for _ in 0..steps {
        session.step().unwrap();
    }
    drop(session);
    FrozenModel::freeze(&net, CLASSES).unwrap()
}

fn probe_rows(count: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(3);
    ff_tensor::init::uniform(&[count, FEATURES], -1.0, 1.0, &mut rng)
}

fn client_for(addr: std::net::SocketAddr, model: u16, token: &str) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            model,
            token: Some(token.to_string()),
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

fn remote_code(error: NetError) -> ErrorCode {
    match error {
        NetError::Remote { code, .. } => code,
        other => panic!("expected a typed remote error, got {other:?}"),
    }
}

#[test]
fn two_models_one_port_with_hot_swap_and_auth() {
    let model_a = trained_model(4, 1, 2);
    let model_b = trained_model(6, 2, 2);
    let x = probe_rows(16);
    let direct_a = model_a.predict_logits(&x).unwrap();
    let direct_b = model_b.predict_logits(&x).unwrap();
    assert_ne!(
        direct_a, direct_b,
        "the two trained models must be distinguishable for routing proof"
    );

    let registry = ModelRegistry::new(model_a);
    registry
        .register(CANDIDATE_ID, "candidate", model_b)
        .unwrap();
    let server = NetServer::bind_registry(
        registry.clone(),
        "127.0.0.1:0",
        NetConfig {
            auth: AuthPolicy::with_tokens(vec![
                AuthToken::new(ADMIN_TOKEN),
                AuthToken::for_models(TENANT_TOKEN, &[CANDIDATE_ID]),
            ]),
            // The test keeps several probe clients open at once; the pool
            // bound must cover them or the extras queue unserviced.
            conn_threads: 8,
            serve: ServeConfig {
                workers: 2,
                mode: ServeMode::Logits,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // --- Per-model parity: both models, one port, bit-exact vs direct. ---
    let rows: Vec<&[f32]> = (0..x.rows()).map(|i| x.row(i)).collect();
    let mut default_client = client_for(addr, DEFAULT_MODEL_ID, ADMIN_TOKEN);
    let mut candidate_client = client_for(addr, CANDIDATE_ID, TENANT_TOKEN);
    let served_a = default_client
        .predict_pipelined(rows.iter().copied())
        .unwrap();
    let served_b = candidate_client
        .predict_pipelined(rows.iter().copied())
        .unwrap();
    assert_eq!(
        served_a, direct_a,
        "default model diverged from direct calls"
    );
    assert_eq!(
        served_b, direct_b,
        "candidate model diverged from direct calls"
    );
    // Batch frames route identically.
    assert_eq!(
        candidate_client.predict_batch(FEATURES, x.row(0)).unwrap(),
        vec![direct_b[0]]
    );

    // Health reports the addressed model: shapes and swap generation.
    let info = candidate_client.health().unwrap();
    assert_eq!(info.input_features, FEATURES);
    assert_eq!(info.model_version, 1);

    // On the wire, a reply echoes the request's model id, never its token.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let presented = FrameMeta {
        model_id: CANDIDATE_ID,
        token: Some(TENANT_TOKEN.to_string()),
    };
    let probe = Frame::Health { id: 1 };
    write_frame_meta(&mut raw, &probe, &presented, DEFAULT_MAX_FRAME_BYTES).unwrap();
    let (_, echoed) = read_frame_meta(&mut raw, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(echoed, FrameMeta::for_model(CANDIDATE_ID));
    drop(raw);

    // --- Auth: typed Unauthorized, never a served prediction. ---
    // No token at all.
    let mut anonymous = Client::connect_with(
        addr,
        ClientConfig {
            model: DEFAULT_MODEL_ID,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let code = remote_code(anonymous.predict(x.row(0)).unwrap_err());
    assert_eq!(code, ErrorCode::Unauthorized);
    // Wrong token.
    let mut wrong = client_for(addr, DEFAULT_MODEL_ID, "not-a-real-token");
    assert_eq!(
        remote_code(wrong.predict(x.row(0)).unwrap_err()),
        ErrorCode::Unauthorized
    );
    drop(wrong);
    // A valid token outside its model ACL.
    let mut out_of_scope = client_for(addr, DEFAULT_MODEL_ID, TENANT_TOKEN);
    assert_eq!(
        remote_code(out_of_scope.predict(x.row(0)).unwrap_err()),
        ErrorCode::Unauthorized
    );
    drop(out_of_scope);
    // Stats and Health stay open for operators even without a token.
    anonymous.health().unwrap();
    assert!(anonymous.stats().unwrap().requests >= 16);
    // Shutdown requires a credential.
    assert_eq!(
        remote_code(anonymous.shutdown_server().unwrap_err()),
        ErrorCode::Unauthorized
    );
    assert!(
        !server.is_shutting_down(),
        "rejected shutdown must not drain"
    );
    // An unknown model id is a typed error, not a hijacked default.
    let mut unknown = client_for(addr, 9, ADMIN_TOKEN);
    assert_eq!(
        remote_code(unknown.predict(x.row(0)).unwrap_err()),
        ErrorCode::UnknownModel
    );
    drop(unknown);

    // --- Hot-swap the candidate from a rotating checkpoint, live. ---
    // A fresh training run auto-checkpoints every step; its on_checkpoint
    // hook reloads each rotated artifact straight into the serving
    // registry while clients keep querying between steps.
    let dir = std::env::temp_dir().join("ff8p_multimodel_swap_it");
    std::fs::remove_dir_all(&dir).ok();
    let (train_set, test_set) = dataset();
    let mut rng = StdRng::seed_from_u64(5);
    let mut training_net = small_mlp(FEATURES, &[6], CLASSES, &mut rng);
    let mut session = TrainSession::new(
        &mut training_net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: true },
        &TrainOptions::fast_test(),
    )
    .unwrap();
    session
        .auto_checkpoint(ff_core::AutoCheckpoint::new(&dir, 1, 2))
        .unwrap();
    let swap_registry = registry.clone();
    let mut scratch = {
        let mut rng = StdRng::seed_from_u64(6);
        small_mlp(FEATURES, &[6], CLASSES, &mut rng)
    };
    session.on_checkpoint(move |path| {
        let checkpoint = Checkpoint::load(path).expect("hook path is a live artifact");
        swap_registry
            .swap_from_checkpoint(CANDIDATE_ID, &checkpoint, &mut scratch, CLASSES)
            .expect("rotated artifact must swap in");
    });
    for _ in 0..3 {
        session.step().unwrap();
        // Live traffic between swaps: requests must keep succeeding and
        // the default model must be untouched by candidate rollouts.
        assert_eq!(
            default_client
                .predict_pipelined(rows.iter().copied())
                .unwrap(),
            direct_a
        );
        assert!(candidate_client.predict(x.row(0)).is_ok());
    }
    drop(session);

    // The served candidate now answers exactly like the newest rotated
    // artifact restored directly.
    let newest = latest(&dir).unwrap().expect("rotation kept artifacts");
    let checkpoint = Checkpoint::load(&newest).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fresh = small_mlp(FEATURES, &[6], CLASSES, &mut rng);
    let direct_swapped = FrozenModel::from_checkpoint(&checkpoint, &mut fresh, CLASSES)
        .unwrap()
        .predict_logits(&x)
        .unwrap();
    assert_eq!(
        candidate_client
            .predict_pipelined(rows.iter().copied())
            .unwrap(),
        direct_swapped,
        "hot-swapped candidate diverged from the checkpoint it came from"
    );
    assert_eq!(
        candidate_client.health().unwrap().model_version,
        4, // registered at 1, three checkpoint swaps
    );
    // The default model never moved.
    assert_eq!(default_client.health().unwrap().model_version, 1);

    // Per-model stats made it to the wire.
    let stats = anonymous.stats().unwrap();
    let candidate = stats
        .models
        .iter()
        .find(|m| m.id == CANDIDATE_ID)
        .expect("candidate stats on the wire");
    assert_eq!(candidate.name, "candidate");
    assert_eq!(candidate.swaps, 3);
    assert!(candidate.requests > 0);

    // An authorized shutdown drains for real.
    let mut admin = client_for(addr, DEFAULT_MODEL_ID, ADMIN_TOKEN);
    admin.shutdown_server().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auth_rotation_applies_to_new_connections_without_restart() {
    let model = trained_model(4, 5, 2);
    let x = probe_rows(2);
    let server = NetServer::bind_registry(
        ModelRegistry::new(model),
        "127.0.0.1:0",
        NetConfig {
            auth: AuthPolicy::with_tokens(vec![AuthToken::new("old-key")]),
            conn_threads: 4,
            serve: ServeConfig {
                workers: 1,
                mode: ServeMode::Logits,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A connection established before the rotation...
    let mut veteran = client_for(addr, DEFAULT_MODEL_ID, "old-key");
    veteran.predict(x.row(0)).unwrap();

    // ...rotate the fleet's tokens in place, no restart...
    server.set_auth(AuthPolicy::with_tokens(vec![AuthToken::new("new-key")]));

    // ...the in-flight connection finishes under the policy it started
    // with (a rotation never cuts a conversation mid-stream)...
    veteran.predict(x.row(1)).unwrap();

    // ...while new connections see only the rotated policy: the old token
    // is dead, the new one works.
    let mut stale = client_for(addr, DEFAULT_MODEL_ID, "old-key");
    assert_eq!(
        remote_code(stale.predict(x.row(0)).unwrap_err()),
        ErrorCode::Unauthorized,
        "the retired token must be refused on new connections"
    );
    let mut fresh = client_for(addr, DEFAULT_MODEL_ID, "new-key");
    fresh.predict(x.row(0)).unwrap();

    // Rotating back to open restores anonymous access for new connections.
    server.set_auth(AuthPolicy::open());
    let mut anonymous = Client::connect_with(
        addr,
        ClientConfig {
            model: DEFAULT_MODEL_ID,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    anonymous.predict(x.row(0)).unwrap();
    server.shutdown();
}
