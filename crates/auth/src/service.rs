//! The authentication/authorization service.

use crate::identity::{Identity, IdentityId, IdentityProvider};
use crate::token::{Scope, Token, TokenInfo};
use parking_lot::RwLock;
use rand::distributions::Alphanumeric;
use rand::{thread_rng, Rng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors from the auth service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// The identity provider is not registered.
    UnknownProvider(String),
    /// The identity id is not registered.
    UnknownIdentity(IdentityId),
    /// The resource server is not registered.
    UnknownResourceServer(String),
    /// The scope is not registered under its resource server.
    UnknownScope(Scope),
    /// The token is unknown or revoked.
    InvalidToken,
    /// The token exists but has expired.
    ExpiredToken,
    /// `username@provider` already exists.
    DuplicateIdentity(String),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownProvider(p) => write!(f, "unknown identity provider: {p}"),
            AuthError::UnknownIdentity(i) => write!(f, "unknown identity: {i}"),
            AuthError::UnknownResourceServer(r) => write!(f, "unknown resource server: {r}"),
            AuthError::UnknownScope(s) => write!(f, "unknown scope: {s}"),
            AuthError::InvalidToken => write!(f, "invalid token"),
            AuthError::ExpiredToken => write!(f, "expired token"),
            AuthError::DuplicateIdentity(q) => write!(f, "identity already exists: {q}"),
        }
    }
}

impl std::error::Error for AuthError {}

struct StoredToken {
    /// Shared with every caller that introspects the token: reading it
    /// never copies its scopes or linked identities.
    info: Arc<TokenInfo>,
    revoked: bool,
}

#[derive(Default)]
struct State {
    providers: HashMap<String, IdentityProvider>,
    identities: HashMap<IdentityId, Identity>,
    by_qualified: HashMap<String, IdentityId>,
    /// Union-find-free linkage: each identity maps to a link-set id;
    /// all identities in a set belong to the same person.
    link_set: HashMap<IdentityId, u64>,
    resource_servers: HashMap<String, HashSet<String>>,
    tokens: HashMap<String, StoredToken>,
    groups: HashMap<String, HashSet<IdentityId>>,
}

impl State {
    /// The introspection of `token` if it is known, unrevoked and
    /// unexpired, borrowed under the caller's lock.
    fn live(&self, token: &Token) -> Result<&Arc<TokenInfo>, AuthError> {
        let stored = self.tokens.get(&token.0).ok_or(AuthError::InvalidToken)?;
        if stored.revoked {
            return Err(AuthError::InvalidToken);
        }
        if stored.info.expired() {
            return Err(AuthError::ExpiredToken);
        }
        Ok(&stored.info)
    }
}

/// Globus-Auth-like service: providers, identities, linking, resource
/// servers, scoped tokens, groups. Cheap to clone.
#[derive(Clone)]
pub struct AuthService {
    state: Arc<RwLock<State>>,
    default_ttl: Duration,
}

static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);
static NEXT_LINK_SET: AtomicU64 = AtomicU64::new(1);

impl AuthService {
    /// Create a service whose tokens live 10 minutes by default
    /// ("short-term access tokens", §IV-D).
    pub fn new() -> Self {
        Self::with_token_ttl(Duration::from_secs(600))
    }

    /// Create a service with an explicit default token TTL.
    pub fn with_token_ttl(default_ttl: Duration) -> Self {
        AuthService {
            state: Arc::new(RwLock::new(State::default())),
            default_ttl,
        }
    }

    /// Register an identity provider domain.
    pub fn register_provider(&self, domain: &str) {
        self.state.write().providers.insert(
            domain.to_string(),
            IdentityProvider {
                domain: domain.to_string(),
            },
        );
    }

    /// Register `username` at `provider`, returning the new identity id.
    pub fn register_identity(
        &self,
        provider: &str,
        username: &str,
    ) -> Result<IdentityId, AuthError> {
        let mut st = self.state.write();
        if !st.providers.contains_key(provider) {
            return Err(AuthError::UnknownProvider(provider.to_string()));
        }
        let qualified = format!("{username}@{provider}");
        if st.by_qualified.contains_key(&qualified) {
            return Err(AuthError::DuplicateIdentity(qualified));
        }
        let id = IdentityId(NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed));
        st.identities.insert(
            id,
            Identity {
                id,
                provider: provider.to_string(),
                username: username.to_string(),
                display_name: username.to_string(),
            },
        );
        st.by_qualified.insert(qualified, id);
        let set = NEXT_LINK_SET.fetch_add(1, Ordering::Relaxed);
        st.link_set.insert(id, set);
        Ok(id)
    }

    /// Link two identities as belonging to the same person; their link
    /// sets merge.
    pub fn link_identities(&self, a: IdentityId, b: IdentityId) -> Result<(), AuthError> {
        let mut st = self.state.write();
        let sa = *st.link_set.get(&a).ok_or(AuthError::UnknownIdentity(a))?;
        let sb = *st.link_set.get(&b).ok_or(AuthError::UnknownIdentity(b))?;
        if sa != sb {
            for set in st.link_set.values_mut() {
                if *set == sb {
                    *set = sa;
                }
            }
        }
        Ok(())
    }

    /// All identities linked with `id` (including `id` itself).
    pub fn linked_identities(&self, id: IdentityId) -> Result<Vec<IdentityId>, AuthError> {
        let st = self.state.read();
        let set = *st.link_set.get(&id).ok_or(AuthError::UnknownIdentity(id))?;
        let mut out: Vec<IdentityId> = st
            .link_set
            .iter()
            .filter(|(_, s)| **s == set)
            .map(|(i, _)| *i)
            .collect();
        out.sort();
        Ok(out)
    }

    /// Look up identity details.
    pub fn identity(&self, id: IdentityId) -> Result<Identity, AuthError> {
        self.state
            .read()
            .identities
            .get(&id)
            .cloned()
            .ok_or(AuthError::UnknownIdentity(id))
    }

    /// Resolve `username@provider` to an id.
    pub fn lookup(&self, qualified: &str) -> Option<IdentityId> {
        self.state.read().by_qualified.get(qualified).copied()
    }

    /// Register a resource server and the scopes it owns.
    pub fn register_resource_server(&self, name: &str, scopes: &[&str]) {
        let mut st = self.state.write();
        st.resource_servers.insert(
            name.to_string(),
            scopes.iter().map(|s| s.to_string()).collect(),
        );
    }

    /// Issue a bearer token for `identity` carrying `scopes`, valid for
    /// the default TTL.
    pub fn issue_token(&self, identity: IdentityId, scopes: &[Scope]) -> Result<Token, AuthError> {
        self.issue_token_ttl(identity, scopes, self.default_ttl, false)
    }

    /// Issue a *dependent* token: short-term credentials a resource
    /// server uses to act on the user's behalf (§IV-D).
    pub fn issue_dependent_token(
        &self,
        identity: IdentityId,
        scopes: &[Scope],
        ttl: Duration,
    ) -> Result<Token, AuthError> {
        self.issue_token_ttl(identity, scopes, ttl, true)
    }

    fn issue_token_ttl(
        &self,
        identity: IdentityId,
        scopes: &[Scope],
        ttl: Duration,
        dependent: bool,
    ) -> Result<Token, AuthError> {
        let linked = self.linked_identities(identity)?;
        {
            let st = self.state.read();
            for scope in scopes {
                let server_scopes =
                    st.resource_servers
                        .get(&scope.resource_server)
                        .ok_or_else(|| {
                            AuthError::UnknownResourceServer(scope.resource_server.clone())
                        })?;
                if !server_scopes.contains(&scope.name) {
                    return Err(AuthError::UnknownScope(scope.clone()));
                }
            }
        }
        let value: String = thread_rng()
            .sample_iter(&Alphanumeric)
            .take(32)
            .map(char::from)
            .collect();
        let info = Arc::new(TokenInfo {
            identity,
            linked_identities: linked,
            scopes: scopes.to_vec(),
            expires_at: Instant::now() + ttl,
            dependent,
        });
        self.state.write().tokens.insert(
            value.clone(),
            StoredToken {
                info,
                revoked: false,
            },
        );
        Ok(Token(value))
    }

    /// Introspect a token: validate it and return the caller's
    /// identity, linked identities and scopes, shared with the store.
    pub fn introspect(&self, token: &Token) -> Result<Arc<TokenInfo>, AuthError> {
        self.state.read().live(token).cloned()
    }

    /// Validate that `token` is live and carries `scope`; returns the
    /// introspection on success. The gate for operations that need the
    /// caller's whole profile (publication, ownership checks).
    pub fn authorize(&self, token: &Token, scope: &Scope) -> Result<Arc<TokenInfo>, AuthError> {
        let info = self.introspect(token)?;
        if info.has_scope(scope) {
            Ok(info)
        } else {
            Err(AuthError::UnknownScope(scope.clone()))
        }
    }

    /// [`Self::authorize`] for the request path: validate that `token`
    /// is live — unrevoked, unexpired — and carries the scope `name` of
    /// `resource_server`, and return the caller's tenant key
    /// ([`TokenInfo::tenant`]). Decided under the read lock, so a
    /// request copies nothing of the token; every call reads revocation
    /// and expiry afresh, and a refusal is the error
    /// [`Self::authorize`] returns.
    pub fn authorize_tenant(
        &self,
        token: &Token,
        resource_server: &str,
        name: &str,
    ) -> Result<IdentityId, AuthError> {
        let st = self.state.read();
        let info = st.live(token)?;
        if info.grants(resource_server, name) {
            Ok(info.tenant())
        } else {
            Err(AuthError::UnknownScope(Scope::new(resource_server, name)))
        }
    }

    /// Revoke a token immediately.
    pub fn revoke(&self, token: &Token) {
        if let Some(stored) = self.state.write().tokens.get_mut(&token.0) {
            stored.revoked = true;
        }
    }

    /// Create a group (idempotent).
    pub fn create_group(&self, name: &str) {
        self.state
            .write()
            .groups
            .entry(name.to_string())
            .or_default();
    }

    /// Add an identity to a group (creating the group if needed).
    pub fn add_to_group(&self, group: &str, id: IdentityId) -> Result<(), AuthError> {
        let mut st = self.state.write();
        if !st.identities.contains_key(&id) {
            return Err(AuthError::UnknownIdentity(id));
        }
        st.groups.entry(group.to_string()).or_default().insert(id);
        Ok(())
    }

    /// Groups an identity (or any of its linked identities) belongs to.
    pub fn groups_of(&self, id: IdentityId) -> Result<Vec<String>, AuthError> {
        let linked: HashSet<IdentityId> = self.linked_identities(id)?.into_iter().collect();
        let st = self.state.read();
        let mut out: Vec<String> = st
            .groups
            .iter()
            .filter(|(_, members)| members.iter().any(|m| linked.contains(m)))
            .map(|(g, _)| g.clone())
            .collect();
        out.sort();
        Ok(out)
    }
}

impl Default for AuthService {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AuthService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("AuthService")
            .field("providers", &st.providers.len())
            .field("identities", &st.identities.len())
            .field("tokens", &st.tokens.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> (AuthService, IdentityId) {
        let auth = AuthService::new();
        auth.register_provider("uchicago.edu");
        auth.register_resource_server("dlhub", &["dlhub:serve", "dlhub:publish"]);
        let id = auth.register_identity("uchicago.edu", "alice").unwrap();
        (auth, id)
    }

    #[test]
    fn register_and_lookup_identity() {
        let (auth, id) = svc();
        assert_eq!(auth.lookup("alice@uchicago.edu"), Some(id));
        assert_eq!(auth.identity(id).unwrap().username, "alice");
    }

    #[test]
    fn duplicate_identity_rejected() {
        let (auth, _) = svc();
        assert!(matches!(
            auth.register_identity("uchicago.edu", "alice"),
            Err(AuthError::DuplicateIdentity(_))
        ));
    }

    #[test]
    fn unknown_provider_rejected() {
        let (auth, _) = svc();
        assert!(matches!(
            auth.register_identity("nowhere.example", "bob"),
            Err(AuthError::UnknownProvider(_))
        ));
    }

    #[test]
    fn token_issue_and_introspect() {
        let (auth, id) = svc();
        let scope = Scope::new("dlhub", "dlhub:serve");
        let token = auth.issue_token(id, std::slice::from_ref(&scope)).unwrap();
        let info = auth.introspect(&token).unwrap();
        assert_eq!(info.identity, id);
        assert!(info.has_scope(&scope));
        assert!(!info.dependent);
    }

    #[test]
    fn unknown_scope_rejected_at_issue() {
        let (auth, id) = svc();
        let err = auth
            .issue_token(id, &[Scope::new("dlhub", "dlhub:admin")])
            .unwrap_err();
        assert!(matches!(err, AuthError::UnknownScope(_)));
        let err = auth
            .issue_token(id, &[Scope::new("elsewhere", "x")])
            .unwrap_err();
        assert!(matches!(err, AuthError::UnknownResourceServer(_)));
    }

    #[test]
    fn authorize_checks_scope() {
        let (auth, id) = svc();
        let serve = Scope::new("dlhub", "dlhub:serve");
        let publish = Scope::new("dlhub", "dlhub:publish");
        let token = auth.issue_token(id, std::slice::from_ref(&serve)).unwrap();
        assert!(auth.authorize(&token, &serve).is_ok());
        assert!(auth.authorize(&token, &publish).is_err());
    }

    #[test]
    fn authorize_tenant_checks_what_authorize_checks() {
        let (auth, id) = svc();
        let serve = Scope::new("dlhub", "dlhub:serve");
        let token = auth.issue_token(id, std::slice::from_ref(&serve)).unwrap();
        assert_eq!(
            auth.authorize_tenant(&token, "dlhub", "dlhub:serve"),
            Ok(id)
        );
        // A missing scope is refused with the error `authorize` gives.
        let publish = Scope::new("dlhub", "dlhub:publish");
        assert_eq!(
            auth.authorize_tenant(&token, "dlhub", "dlhub:publish"),
            auth.authorize(&token, &publish).map(|info| info.tenant())
        );
        assert_eq!(
            auth.authorize_tenant(&token, "dlhub", "dlhub:publish"),
            Err(AuthError::UnknownScope(publish))
        );
        // Revocation is read on every call.
        auth.revoke(&token);
        assert_eq!(
            auth.authorize_tenant(&token, "dlhub", "dlhub:serve"),
            Err(AuthError::InvalidToken)
        );
        assert_eq!(
            auth.authorize_tenant(&Token("no-such-token".into()), "dlhub", "dlhub:serve"),
            Err(AuthError::InvalidToken)
        );
    }

    #[test]
    fn expired_token_rejected() {
        let auth = AuthService::with_token_ttl(Duration::from_millis(1));
        auth.register_provider("p");
        auth.register_resource_server("dlhub", &["dlhub:serve"]);
        let id = auth.register_identity("p", "u").unwrap();
        let token = auth
            .issue_token(id, &[Scope::new("dlhub", "dlhub:serve")])
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            auth.introspect(&token).unwrap_err(),
            AuthError::ExpiredToken
        );
    }

    #[test]
    fn revoked_token_rejected() {
        let (auth, id) = svc();
        let token = auth
            .issue_token(id, &[Scope::new("dlhub", "dlhub:serve")])
            .unwrap();
        auth.revoke(&token);
        assert_eq!(
            auth.introspect(&token).unwrap_err(),
            AuthError::InvalidToken
        );
    }

    #[test]
    fn linking_merges_identity_sets() {
        let (auth, a) = svc();
        auth.register_provider("orcid.org");
        let b = auth.register_identity("orcid.org", "0000-0001").unwrap();
        let c = auth.register_identity("orcid.org", "0000-0002").unwrap();
        auth.link_identities(a, b).unwrap();
        auth.link_identities(b, c).unwrap();
        let linked = auth.linked_identities(a).unwrap();
        assert_eq!(linked.len(), 3);
        // Tokens report the full linked set.
        let token = auth
            .issue_token(a, &[Scope::new("dlhub", "dlhub:serve")])
            .unwrap();
        let info = auth.introspect(&token).unwrap();
        assert_eq!(info.linked_identities.len(), 3);
    }

    #[test]
    fn groups_include_linked_identities() {
        let (auth, a) = svc();
        auth.register_provider("orcid.org");
        let b = auth.register_identity("orcid.org", "0000-0003").unwrap();
        auth.link_identities(a, b).unwrap();
        auth.add_to_group("candle", b).unwrap();
        // Asking via the other linked identity still finds the group.
        assert_eq!(auth.groups_of(a).unwrap(), vec!["candle".to_string()]);
    }

    #[test]
    fn dependent_token_flagged() {
        let (auth, id) = svc();
        let token = auth
            .issue_dependent_token(
                id,
                &[Scope::new("dlhub", "dlhub:serve")],
                Duration::from_secs(5),
            )
            .unwrap();
        assert!(auth.introspect(&token).unwrap().dependent);
    }
}
