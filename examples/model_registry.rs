//! Multi-model serving walkthrough: train two FF-INT8 models, serve both
//! from one port behind a [`ModelRegistry`], gate access with per-model
//! auth tokens, then hot-swap the candidate model from rotating `FF8C`
//! checkpoints — live, with zero downtime — using the training session's
//! `on_checkpoint` hook.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example model_registry
//! ```

use ff_int8::core::{Algorithm, AutoCheckpoint, Checkpoint, TrainOptions, TrainSession};
use ff_int8::data::{synthetic_mnist, SyntheticConfig};
use ff_int8::models::small_mlp;
use ff_int8::net::{AuthPolicy, AuthToken, Client, ClientConfig, NetConfig, NetServer};
use ff_int8::serve::{FrozenModel, ModelRegistry, ServeConfig, ServeMode, DEFAULT_MODEL_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CANDIDATE_ID: u16 = 1;
const ADMIN_TOKEN: &str = "ops-admin";
const TENANT_TOKEN: &str = "tenant-key";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the stable production model and freeze it.
    println!("== training the production model ==");
    let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
        train_size: 600,
        test_size: 200,
        noise_std: 0.15,
        max_shift: 0,
        seed: 3,
    });
    let mut rng = StdRng::seed_from_u64(1);
    let mut stable = small_mlp(784, &[64], 10, &mut rng);
    let session = TrainSession::new(
        &mut stable,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: true },
        &TrainOptions {
            epochs: 2,
            learning_rate: 0.2,
            max_eval_samples: 200,
            ..TrainOptions::default()
        },
    )?;
    session.run()?;
    let production = FrozenModel::freeze(&stable, 10)?;

    // 2. One registry, two entries: the production model is the default
    //    (served to any client that does not pick a model), and a fresh
    //    candidate starts from random weights.
    let mut rng = StdRng::seed_from_u64(2);
    let mut candidate_net = small_mlp(784, &[64], 10, &mut rng);
    let registry = ModelRegistry::new(production);
    registry.register(
        CANDIDATE_ID,
        "candidate",
        FrozenModel::freeze(&candidate_net, 10)?,
    )?;

    // 3. Serve both behind one port. The admin token reaches every model
    //    (and may shut the server down); the tenant token is scoped to the
    //    candidate only.
    let server = NetServer::bind_registry(
        registry.clone(),
        "127.0.0.1:0",
        NetConfig {
            auth: AuthPolicy::with_tokens(vec![
                AuthToken::new(ADMIN_TOKEN),
                AuthToken::for_models(TENANT_TOKEN, &[CANDIDATE_ID]),
            ]),
            serve: ServeConfig {
                workers: 2,
                mode: ServeMode::Logits,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("== serving {} models on {addr} ==", registry.len());

    // 4. While the candidate trains, every rotated checkpoint hot-swaps
    //    straight into the serving registry: the epoch pointer flips
    //    atomically, in-flight waves finish on the epoch they started on,
    //    and clients never see a torn model or a dropped request.
    let swap_registry = registry.clone();
    let mut rng = StdRng::seed_from_u64(4);
    let mut scratch = small_mlp(784, &[64], 10, &mut rng);
    let dir = std::env::temp_dir().join("ff8_model_registry_example");
    std::fs::remove_dir_all(&dir).ok();
    let mut session = TrainSession::new(
        &mut candidate_net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: true },
        &TrainOptions {
            epochs: 2,
            learning_rate: 0.2,
            max_eval_samples: 200,
            ..TrainOptions::default()
        },
    )?;
    session.auto_checkpoint(AutoCheckpoint::new(&dir, 10, 2))?;
    session.on_checkpoint(move |path| {
        let checkpoint = Checkpoint::load(path).expect("rotated artifact is live");
        let version = swap_registry
            .swap_from_checkpoint(CANDIDATE_ID, &checkpoint, &mut scratch, 10)
            .expect("same-shape checkpoint swaps in");
        println!(
            "  hot-swapped candidate -> version {version} (step {})",
            checkpoint.global_step
        );
    });

    let mut tenant = Client::connect_with(
        addr,
        ClientConfig {
            model: CANDIDATE_ID,
            token: Some(TENANT_TOKEN.to_string()),
            ..ClientConfig::default()
        },
    )?;
    let x = test_set.flattened()?;
    use ff_int8::core::SessionStatus;
    while !matches!(
        session.step()?,
        SessionStatus::Finished | SessionStatus::Stopped
    ) {
        // Live traffic against the model under training — each reply comes
        // from whichever epoch was current when its wave formed.
        tenant.predict(x.row(0))?;
    }
    drop(session);
    let info = tenant.health()?;
    println!(
        "candidate now at version {} after {} requests",
        info.model_version,
        tenant.stats()?.requests
    );

    // 5. The tenant token does not reach the default model...
    let mut trespasser = Client::connect_with(
        addr,
        ClientConfig {
            model: DEFAULT_MODEL_ID,
            token: Some(TENANT_TOKEN.to_string()),
            ..ClientConfig::default()
        },
    )?;
    println!(
        "tenant on default model: {}",
        trespasser.predict(x.row(0)).unwrap_err()
    );

    // ...and shutting down takes the admin credential.
    let mut admin = Client::connect_with(
        addr,
        ClientConfig {
            token: Some(ADMIN_TOKEN.to_string()),
            ..ClientConfig::default()
        },
    )?;
    admin.shutdown_server()?;
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!("server drained and shut down");
    Ok(())
}
