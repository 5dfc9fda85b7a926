//! Bearer tokens, scopes and introspection results.

use crate::identity::IdentityId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// A scope is owned by a resource server and named within it, e.g. the
/// DLHub Management Service registers scope `dlhub:serve` (§IV-D).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scope {
    /// Resource server that owns the scope.
    pub resource_server: String,
    /// Scope name, conventionally `server:action`.
    pub name: String,
}

impl Scope {
    /// Construct a scope.
    pub fn new(resource_server: impl Into<String>, name: impl Into<String>) -> Self {
        Scope {
            resource_server: resource_server.into(),
            name: name.into(),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.resource_server, self.name)
    }
}

/// An opaque bearer token string. The value is random; all semantics
/// live server-side, exactly like Globus Auth opaque access tokens.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token(pub String);

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Avoid leaking full token material in logs: at most the first
        // 8 bytes, cut at a character boundary — a token is whatever
        // string a caller sent.
        let end = (0..=self.0.len().min(8))
            .rev()
            .find(|&i| self.0.is_char_boundary(i))
            .unwrap_or(0);
        write!(f, "tok-{}…", &self.0[..end])
    }
}

/// Result of token introspection: everything a resource server learns
/// about the caller.
#[derive(Debug, Clone)]
pub struct TokenInfo {
    /// Primary identity the token was issued to.
    pub identity: IdentityId,
    /// All identities linked to the primary one (including itself).
    pub linked_identities: Vec<IdentityId>,
    /// Scopes granted to the token.
    pub scopes: Vec<Scope>,
    /// Instant at which the token stops validating.
    pub expires_at: Instant,
    /// Whether this is a dependent token minted for a resource server
    /// acting on the user's behalf (e.g. the Management Service
    /// fetching model components from a Globus endpoint).
    pub dependent: bool,
}

impl TokenInfo {
    /// True if the token carries `scope`.
    pub fn has_scope(&self, scope: &Scope) -> bool {
        self.grants(&scope.resource_server, &scope.name)
    }

    /// True if the token carries the scope `name` of `resource_server`:
    /// [`Self::has_scope`] without building a [`Scope`].
    pub fn grants(&self, resource_server: &str, name: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| s.resource_server == resource_server && s.name == name)
    }

    /// The tenant key a resource server should account this caller
    /// under: the *smallest* identity in the linked set. Linking is
    /// symmetric, so two tokens issued to different linked identities
    /// of the same person map to the same tenant — one human cannot
    /// multiply their quota by minting tokens under each alias.
    pub fn tenant(&self) -> IdentityId {
        self.linked_identities
            .iter()
            .copied()
            .min()
            .unwrap_or(self.identity)
    }

    /// Remaining validity; zero if expired.
    pub fn ttl(&self) -> Duration {
        self.expires_at.saturating_duration_since(Instant::now())
    }

    /// True once the expiry instant has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.expires_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_display_and_eq() {
        let s = Scope::new("dlhub", "dlhub:serve");
        assert_eq!(s.to_string(), "dlhub/dlhub:serve");
        assert_eq!(s, Scope::new("dlhub", "dlhub:serve"));
        assert_ne!(s, Scope::new("dlhub", "dlhub:publish"));
    }

    #[test]
    fn token_display_truncates() {
        let t = Token("abcdefghijklmnop".into());
        assert_eq!(t.to_string(), "tok-abcdefgh…");
    }

    #[test]
    fn token_display_cuts_a_multi_byte_token_at_a_char_boundary() {
        // The ninth byte is inside 'é': the cut falls before it.
        assert_eq!(Token("abcdefgé-rest".into()).to_string(), "tok-abcdefg…");
        assert_eq!(Token("éééé".into()).to_string(), "tok-éééé…");
        assert_eq!(Token("ab".into()).to_string(), "tok-ab…");
        assert_eq!(Token(String::new()).to_string(), "tok-…");
    }

    #[test]
    fn token_info_scope_and_ttl() {
        let info = TokenInfo {
            identity: IdentityId(1),
            linked_identities: vec![IdentityId(1)],
            scopes: vec![Scope::new("dlhub", "dlhub:serve")],
            expires_at: Instant::now() + Duration::from_secs(60),
            dependent: false,
        };
        assert!(info.has_scope(&Scope::new("dlhub", "dlhub:serve")));
        assert!(!info.has_scope(&Scope::new("dlhub", "dlhub:publish")));
        assert!(info.grants("dlhub", "dlhub:serve"));
        assert!(!info.grants("dlhub:serve", "dlhub"));
        assert!(!info.expired());
        assert!(info.ttl() > Duration::from_secs(50));
    }

    #[test]
    fn tenant_is_stable_across_linked_identities() {
        // Two tokens for the same person, issued under different linked
        // identities, must account to the same tenant key.
        let a = TokenInfo {
            identity: IdentityId(7),
            linked_identities: vec![IdentityId(7), IdentityId(3)],
            scopes: vec![],
            expires_at: Instant::now() + Duration::from_secs(60),
            dependent: false,
        };
        let b = TokenInfo {
            identity: IdentityId(3),
            linked_identities: vec![IdentityId(3), IdentityId(7)],
            scopes: vec![],
            expires_at: Instant::now() + Duration::from_secs(60),
            dependent: false,
        };
        assert_eq!(a.tenant(), b.tenant());
        assert_eq!(a.tenant(), IdentityId(3));
        // An unlinked identity is its own tenant.
        let solo = TokenInfo {
            identity: IdentityId(9),
            linked_identities: vec![IdentityId(9)],
            scopes: vec![],
            expires_at: Instant::now() + Duration::from_secs(60),
            dependent: false,
        };
        assert_eq!(solo.tenant(), IdentityId(9));
    }
}
