//! Bearer-token authentication with per-model ACLs for the `FF8P` server.
//!
//! # Threat model
//!
//! The serving port moves from "trusted network only" to "any peer that
//! can complete a TCP handshake": every prediction request must present a
//! token the operator configured, and a token may be scoped to a subset of
//! registry models (multi-tenant boxes hand each tenant a token for *its*
//! models only). Two deliberate carve-outs:
//!
//! - **Stats and Health stay open.** They carry no tenant data and are
//!   what load balancers and dashboards poll; locking them out of an
//!   otherwise-misconfigured fleet hurts more than it protects.
//! - **Shutdown requires a valid token** (any token — it is not a
//!   per-model operation).
//!
//! Token comparison is **constant-time** over the padded maximum length,
//! so response timing leaks neither how many prefix bytes matched nor
//! which configured token was closest. Error replies carry the typed
//! [`crate::ErrorCode::Unauthorized`] and never echo the presented token.
//! An empty policy ([`AuthPolicy::default`]) keeps everything open.

use crate::protocol::MAX_AUTH_TOKEN_LEN;

/// One configured credential: a shared secret, optionally scoped to a set
/// of registry model ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthToken {
    secret: String,
    /// `None` = valid for every model; `Some(ids)` = valid only for these.
    models: Option<Vec<u16>>,
}

impl AuthToken {
    /// A token valid for **every** model (and for shutdown).
    pub fn new(secret: &str) -> Self {
        AuthToken {
            secret: secret.to_string(),
            models: None,
        }
    }

    /// A token valid only for the given model ids (per-tenant ACL). It
    /// still authenticates for non-model operations like shutdown.
    pub fn for_models(secret: &str, models: &[u16]) -> Self {
        AuthToken {
            secret: secret.to_string(),
            models: Some(models.to_vec()),
        }
    }

    fn allows_model(&self, model_id: u16) -> bool {
        match &self.models {
            None => true,
            Some(ids) => ids.contains(&model_id),
        }
    }
}

/// The server's token list. [`AuthPolicy::default`] is **open**: no tokens
/// configured means no authentication required.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuthPolicy {
    tokens: Vec<AuthToken>,
}

impl AuthPolicy {
    /// An explicitly open policy (same as [`AuthPolicy::default`]).
    pub fn open() -> Self {
        AuthPolicy::default()
    }

    /// A policy requiring one of `tokens` on every prediction request.
    pub fn with_tokens(tokens: Vec<AuthToken>) -> Self {
        AuthPolicy { tokens }
    }

    /// `true` when no tokens are configured and everything is allowed.
    pub fn is_open(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Does `token` match **any** configured secret? (The model-agnostic
    /// check, used for shutdown.) Scans the whole list unconditionally so
    /// the timing does not reveal which entry matched.
    pub fn authenticate(&self, token: Option<&str>) -> bool {
        if self.is_open() {
            return true;
        }
        let presented = token.unwrap_or("");
        let mut ok = false;
        for candidate in &self.tokens {
            ok |= constant_time_eq(presented.as_bytes(), candidate.secret.as_bytes());
        }
        ok
    }

    /// Does `token` match a configured secret whose ACL covers `model_id`?
    /// (The per-request check for Predict/PredictBatch.)
    pub fn authorize(&self, token: Option<&str>, model_id: u16) -> bool {
        if self.is_open() {
            return true;
        }
        let presented = token.unwrap_or("");
        let mut ok = false;
        for candidate in &self.tokens {
            ok |= constant_time_eq(presented.as_bytes(), candidate.secret.as_bytes())
                & candidate.allows_model(model_id);
        }
        ok
    }
}

/// Compares two byte strings in time independent of their contents and of
/// where the first difference sits.
///
/// Both inputs are scanned over the padded maximum token length
/// ([`MAX_AUTH_TOKEN_LEN`]), accumulating differences (including the
/// length difference) into one OR-fold that is inspected only once at the
/// end — no early exit, no data-dependent branch.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..MAX_AUTH_TOKEN_LEN.max(a.len()).max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_policy_allows_everything() {
        let policy = AuthPolicy::open();
        assert!(policy.is_open());
        assert!(policy.authenticate(None));
        assert!(policy.authenticate(Some("anything")));
        assert!(policy.authorize(None, 0));
        assert!(policy.authorize(Some("junk"), 42));
    }

    #[test]
    fn tokens_authenticate_and_scope_to_models() {
        let policy = AuthPolicy::with_tokens(vec![
            AuthToken::new("admin-secret"),
            AuthToken::for_models("tenant-a", &[1, 2]),
        ]);
        assert!(!policy.is_open());
        // Missing/wrong tokens fail everywhere.
        assert!(!policy.authenticate(None));
        assert!(!policy.authenticate(Some("nope")));
        assert!(!policy.authorize(None, 1));
        assert!(!policy.authorize(Some("admin-secre"), 1)); // prefix
        assert!(!policy.authorize(Some("admin-secret2"), 1)); // extension
                                                              // The unscoped token reaches every model.
        assert!(policy.authorize(Some("admin-secret"), 0));
        assert!(policy.authorize(Some("admin-secret"), 7));
        // The scoped token reaches only its ACL.
        assert!(policy.authorize(Some("tenant-a"), 1));
        assert!(policy.authorize(Some("tenant-a"), 2));
        assert!(!policy.authorize(Some("tenant-a"), 0));
        // But it still authenticates (shutdown path).
        assert!(policy.authenticate(Some("tenant-a")));
    }

    #[test]
    fn constant_time_eq_agrees_with_plain_equality() {
        let cases: &[(&str, &str)] = &[
            ("", ""),
            ("a", "a"),
            ("a", "b"),
            ("a", ""),
            ("", "a"),
            ("secret", "secret"),
            ("secret", "secres"),
            ("secret", "secrets"),
            ("secret", "Secret"),
            ("aaaaaaaaaaaaaaaa", "aaaaaaaaaaaaaaaa"),
        ];
        for (a, b) in cases {
            assert_eq!(
                constant_time_eq(a.as_bytes(), b.as_bytes()),
                a == b,
                "{a:?} vs {b:?}"
            );
        }
        // Longer than the padded bound still compares correctly.
        let long_a = "x".repeat(MAX_AUTH_TOKEN_LEN + 10);
        let mut long_b = long_a.clone();
        assert!(constant_time_eq(long_a.as_bytes(), long_b.as_bytes()));
        long_b.replace_range(long_b.len() - 1.., "y");
        assert!(!constant_time_eq(long_a.as_bytes(), long_b.as_bytes()));
    }
}
