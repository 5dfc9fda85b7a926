//! The model repository (§IV-A): publication, servable/container
//! builds, versioning, DOIs, discovery and access control.

use crate::error::DlhubError;
use crate::servable::{Servable, ServableMetadata};
use dlhub_auth::{Acl, AuthService, Scope, Token, TokenInfo};
use dlhub_container::{Dependency, Digest, ImageBuilder, Recipe, Registry};
use dlhub_search::{Document, Index, Query, SearchHit};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The scope required to publish models.
pub const PUBLISH_SCOPE: &str = "dlhub:publish";
/// The scope required to invoke models.
pub const SERVE_SCOPE: &str = "dlhub:serve";
/// The auth resource server DLHub registers as (§IV-D).
pub const RESOURCE_SERVER: &str = "dlhub";

/// Desired visibility at publication time.
#[derive(Debug, Clone)]
pub enum PublishVisibility {
    /// Discoverable and invocable by anyone.
    Public,
    /// Only the owner plus the listed users/groups (the CANDLE
    /// pre-release flow, §VI-A).
    Restricted {
        /// Additional allowed identities (qualified names).
        users: Vec<String>,
        /// Allowed group names.
        groups: Vec<String>,
    },
}

/// Receipt returned by a successful publication.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishReceipt {
    /// Servable id (`owner/name`).
    pub id: String,
    /// Version number (1 for first publication).
    pub version: u32,
    /// Minted DOI for citation.
    pub doi: String,
    /// Digest of the built servable container.
    pub image: Digest,
}

/// A published entry.
pub struct Published {
    /// Current metadata, shared with every request that resolves the
    /// entry.
    pub metadata: Arc<ServableMetadata>,
    /// Current version.
    pub version: u32,
    /// DOI of the current version.
    pub doi: String,
    /// Container image digest of the current version.
    pub image: Digest,
    /// Access policy.
    pub acl: Acl,
    servable: Arc<dyn Servable>,
}

/// DLHub-runtime dependencies merged into every servable container
/// ("combines DLHub-specific dependencies with user-supplied model
/// dependencies", §IV-A).
fn shim_dependencies() -> Vec<Dependency> {
    vec![
        Dependency::new("dlhub-shim", "0.1"),
        Dependency::new("parsl", "0.7"),
    ]
}

/// The repository. Thread-safe; share via `Arc`.
pub struct Repository {
    auth: AuthService,
    search: Index,
    registry: Registry,
    builder: Mutex<ImageBuilder>,
    entries: RwLock<HashMap<String, Published>>,
}

impl Repository {
    /// Create a repository wired to an auth service. Registers the
    /// DLHub resource server and its scopes.
    pub fn new(auth: AuthService) -> Self {
        auth.register_resource_server(RESOURCE_SERVER, &[PUBLISH_SCOPE, SERVE_SCOPE]);
        Repository {
            auth,
            search: Index::new(),
            registry: Registry::new(),
            builder: Mutex::new(ImageBuilder::new()),
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// The auth service backing this repository.
    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    /// The container registry holding servable images.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn authorize(&self, token: &Token, scope: &str) -> Result<TokenInfo, DlhubError> {
        self.auth
            .authorize(token, &Scope::new(RESOURCE_SERVER, scope))
            .map_err(DlhubError::from)
    }

    /// The caller's search/ACL principals: each linked identity plus
    /// each group membership. Anonymous callers have none.
    pub fn principals(&self, token: Option<&Token>) -> Vec<String> {
        let Some(token) = token else {
            return Vec::new();
        };
        let Ok(info) = self.auth.introspect(token) else {
            return Vec::new();
        };
        let mut out: Vec<String> = info
            .linked_identities
            .iter()
            .map(|id| format!("id-{}", id.0))
            .collect();
        if let Ok(groups) = self.auth.groups_of(info.identity) {
            out.extend(groups.into_iter().map(|g| format!("group:{g}")));
        }
        out
    }

    /// Publish (or republish) a model: validates metadata, builds the
    /// servable container, mints a DOI, indexes the metadata, and
    /// stores the implementation.
    pub fn publish(
        &self,
        token: &Token,
        mut metadata: ServableMetadata,
        servable: Arc<dyn Servable>,
        components: BTreeMap<String, Vec<u8>>,
        visibility: PublishVisibility,
    ) -> Result<PublishReceipt, DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        if metadata.name.is_empty() || metadata.name.contains('/') {
            return Err(DlhubError::Publication(
                "model name must be non-empty and must not contain '/'".into(),
            ));
        }
        // Pre-complete owner from the authenticated profile (§IV-D).
        let identity = self.auth.identity(info.identity)?;
        metadata.owner = identity.qualified_name();
        let id = metadata.id();

        // Version bump requires ownership of the existing entry.
        let next_version = {
            let entries = self.entries.read();
            match entries.get(&id) {
                Some(existing) => {
                    if !existing.acl.is_owner(&info.linked_identities) {
                        return Err(DlhubError::Publication(format!(
                            "{id} is already published by another user"
                        )));
                    }
                    existing.version + 1
                }
                None => 1,
            }
        };

        // Build the servable container: DLHub shim deps merged with
        // the user's pinned deps, plus uploaded model components.
        let mut recipe = Recipe::from_base("python:3.7");
        recipe
            .merge_dependencies(shim_dependencies())
            .and_then(|r| {
                r.merge_dependencies(
                    metadata
                        .dependencies
                        .iter()
                        .map(|(n, v)| Dependency::new(n.clone(), v.clone())),
                )
            })
            .map_err(|e| DlhubError::Publication(e.to_string()))?;
        for (path, content) in components {
            recipe.add_file(path, content);
        }
        recipe.entrypoint("dlhub-shim --serve");
        let image = self.builder.lock().build(&recipe);
        let reference = format!("dlhub/{}:v{next_version}", id.replace('/', "-"));
        self.registry.push(&reference, image.clone());

        // Mint a citable identifier.
        let doi = format!(
            "10.26311/dlhub.{:08x}.v{next_version}",
            image.digest.0 as u32
        );

        // Assemble the ACL.
        let mut acl = match &visibility {
            PublishVisibility::Public => Acl::public(info.identity),
            PublishVisibility::Restricted { .. } => Acl::restricted(info.identity),
        };
        if let PublishVisibility::Restricted { users, groups } = &visibility {
            for qualified in users {
                let uid = self
                    .auth
                    .lookup(qualified)
                    .ok_or_else(|| DlhubError::Publication(format!("unknown user: {qualified}")))?;
                acl.allow_user(uid);
            }
            for g in groups {
                acl.allow_group(g.clone());
            }
        }

        self.index_entry(&id, &metadata, &acl, next_version)?;
        self.entries.write().insert(
            id.clone(),
            Published {
                metadata: Arc::new(metadata),
                version: next_version,
                doi: doi.clone(),
                image: image.digest,
                acl,
                servable,
            },
        );
        Ok(PublishReceipt {
            id,
            version: next_version,
            doi,
            image: image.digest,
        })
    }

    fn index_entry(
        &self,
        id: &str,
        metadata: &ServableMetadata,
        acl: &Acl,
        version: u32,
    ) -> Result<(), DlhubError> {
        let mut doc = metadata.to_search_document();
        doc["version"] = serde_json::json!(version);
        let visible_to = acl_principals(acl);
        self.search
            .upsert(Document::new(id, doc, visible_to))
            .map_err(|e| DlhubError::Publication(e.to_string()))
    }

    /// Fetch the implementation of a servable the caller may invoke.
    /// Restricted models are indistinguishable from missing ones.
    pub fn resolve(
        &self,
        token: Option<&Token>,
        id: &str,
    ) -> Result<(Arc<dyn Servable>, Arc<ServableMetadata>), DlhubError> {
        let principals = self.principals(token);
        let entries = self.entries.read();
        let entry = entries
            .get(id)
            .filter(|e| permits(&e.acl, &principals))
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        Ok((Arc::clone(&entry.servable), Arc::clone(&entry.metadata)))
    }

    /// Publish with components staged from a remote endpoint — the
    /// paper's actual upload path: "model components can be uploaded
    /// to … a Globus endpoint. Once a model is published, the
    /// Management Service downloads the components and builds the
    /// servable" (§IV-A), acting on the user's behalf (§IV-D).
    ///
    /// Every file under `prefix` on `source` is transferred (with
    /// integrity verification) into `staging`, then baked into the
    /// servable container. Any transfer failure aborts publication.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_from_endpoint(
        &self,
        token: &Token,
        metadata: ServableMetadata,
        servable: Arc<dyn Servable>,
        transfer: &dlhub_transfer::TransferService,
        source: &dlhub_transfer::Endpoint,
        prefix: &str,
        staging: &dlhub_transfer::Endpoint,
        visibility: PublishVisibility,
    ) -> Result<PublishReceipt, DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let paths = source.list(prefix);
        if paths.is_empty() {
            return Err(DlhubError::Publication(format!(
                "no components under {prefix} on {}",
                source.name()
            )));
        }
        // Stage all components concurrently, acting as the user.
        let tasks: Vec<(String, dlhub_transfer::TransferTaskId)> = paths
            .iter()
            .map(|path| {
                let staged_path = format!("/staging{path}");
                transfer
                    .submit_as(Some(info.identity), source, path, staging, &staged_path)
                    .map(|task| (path.clone(), task))
                    .map_err(|e| DlhubError::Publication(e.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let mut components = BTreeMap::new();
        for (path, task) in tasks {
            let done = transfer
                .wait(&task)
                .map_err(|e| DlhubError::Publication(e.to_string()))?;
            if done.status != dlhub_transfer::TransferStatus::Succeeded {
                return Err(DlhubError::Publication(format!(
                    "staging {path} failed: {}",
                    done.error.unwrap_or_else(|| "unknown".into())
                )));
            }
            let staged_path = format!("/staging{path}");
            let content = staging.get(&staged_path).ok_or_else(|| {
                DlhubError::Publication(format!("staged file vanished: {staged_path}"))
            })?;
            components.insert(path, content);
        }
        self.publish(token, metadata, servable, components, visibility)
    }

    /// Publish several servables as one **bundle** sharing a single
    /// container image — the paper's §VII extension ("integrating
    /// multiple servables into single containers"). All components are
    /// baked into one image; each servable is registered, versioned
    /// and indexed individually but points at the shared digest, so a
    /// Task Manager deploying any of them pulls one image.
    pub fn publish_bundle(
        &self,
        token: &Token,
        bundle: &str,
        entries: Vec<(ServableMetadata, Arc<dyn Servable>)>,
        components: BTreeMap<String, Vec<u8>>,
        visibility: PublishVisibility,
    ) -> Result<Vec<PublishReceipt>, DlhubError> {
        if entries.is_empty() {
            return Err(DlhubError::Publication(
                "a bundle needs at least one servable".into(),
            ));
        }
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let identity = self.auth.identity(info.identity)?;

        // One image for the whole bundle: union of all dependencies
        // plus all components.
        let mut recipe = Recipe::from_base("python:3.7");
        recipe
            .merge_dependencies(shim_dependencies())
            .map_err(|e| DlhubError::Publication(e.to_string()))?;
        for (metadata, _) in &entries {
            recipe
                .merge_dependencies(
                    metadata
                        .dependencies
                        .iter()
                        .map(|(n, v)| Dependency::new(n.clone(), v.clone())),
                )
                .map_err(|e| DlhubError::Publication(e.to_string()))?;
        }
        for (path, content) in components {
            recipe.add_file(path, content);
        }
        recipe.entrypoint("dlhub-shim --serve-bundle");
        let image = self.builder.lock().build(&recipe);
        let user = identity.qualified_name();
        let user_short = user.split('@').next().unwrap_or(&user);
        self.registry.push(
            &format!("dlhub/{user_short}-{bundle}:bundle"),
            image.clone(),
        );

        // Register each member against the shared image. Validate all
        // names before touching state so a bundle publishes atomically
        // or not at all.
        for (metadata, _) in &entries {
            if metadata.name.is_empty() || metadata.name.contains('/') {
                return Err(DlhubError::Publication(format!(
                    "invalid servable name in bundle: {:?}",
                    metadata.name
                )));
            }
        }
        let mut receipts = Vec::with_capacity(entries.len());
        for (mut metadata, servable) in entries {
            metadata.owner = user.clone();
            metadata.tags.push(format!("bundle:{bundle}"));
            let id = metadata.id();
            let next_version = {
                let store = self.entries.read();
                match store.get(&id) {
                    Some(existing) => {
                        if !existing.acl.is_owner(&info.linked_identities) {
                            return Err(DlhubError::Publication(format!(
                                "{id} is already published by another user"
                            )));
                        }
                        existing.version + 1
                    }
                    None => 1,
                }
            };
            let doi = format!(
                "10.26311/dlhub.{:08x}.v{next_version}",
                image.digest.0 as u32 ^ (id.len() as u32).rotate_left(16)
            );
            let mut acl = match &visibility {
                PublishVisibility::Public => Acl::public(info.identity),
                PublishVisibility::Restricted { .. } => Acl::restricted(info.identity),
            };
            if let PublishVisibility::Restricted { users, groups } = &visibility {
                for qualified in users {
                    let uid = self.auth.lookup(qualified).ok_or_else(|| {
                        DlhubError::Publication(format!("unknown user: {qualified}"))
                    })?;
                    acl.allow_user(uid);
                }
                for g in groups {
                    acl.allow_group(g.clone());
                }
            }
            self.index_entry(&id, &metadata, &acl, next_version)?;
            self.entries.write().insert(
                id.clone(),
                Published {
                    metadata: Arc::new(metadata),
                    version: next_version,
                    doi: doi.clone(),
                    image: image.digest,
                    acl,
                    servable,
                },
            );
            receipts.push(PublishReceipt {
                id,
                version: next_version,
                doi,
                image: image.digest,
            });
        }
        Ok(receipts)
    }

    /// Resolution for Task Managers, which execute tasks the
    /// Management Service has already authorized — the trusted
    /// internal path, bypassing ACLs.
    pub fn resolve_internal(
        &self,
        id: &str,
    ) -> Result<(Arc<dyn Servable>, Arc<ServableMetadata>), DlhubError> {
        let entries = self.entries.read();
        let entry = entries
            .get(id)
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        Ok((Arc::clone(&entry.servable), Arc::clone(&entry.metadata)))
    }

    /// Describe a visible servable: `(metadata, version, doi)`.
    pub fn describe(
        &self,
        token: Option<&Token>,
        id: &str,
    ) -> Result<(ServableMetadata, u32, String), DlhubError> {
        let principals = self.principals(token);
        let entries = self.entries.read();
        let entry = entries
            .get(id)
            .filter(|e| permits(&e.acl, &principals))
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        Ok((
            ServableMetadata::clone(&entry.metadata),
            entry.version,
            entry.doi.clone(),
        ))
    }

    /// Search visible models.
    pub fn search(&self, token: Option<&Token>, query: &Query) -> Vec<SearchHit> {
        self.search.search(query, &self.principals(token)).hits
    }

    /// Faceted search over visible models.
    pub fn search_faceted(
        &self,
        token: Option<&Token>,
        query: &Query,
        facets: &[&str],
    ) -> dlhub_search::SearchResults {
        self.search
            .search_faceted(query, &self.principals(token), facets)
    }

    /// Flip a restricted model public (owner only) — the CANDLE
    /// general-release transition (§VI-A).
    pub fn make_public(&self, token: &Token, id: &str) -> Result<(), DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let mut entries = self.entries.write();
        let entry = entries
            .get_mut(id)
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        if !entry.acl.is_owner(&info.linked_identities) {
            return Err(DlhubError::Auth(format!("not an owner of {id}")));
        }
        entry.acl.make_public();
        let (metadata, acl, version) = (entry.metadata.clone(), entry.acl.clone(), entry.version);
        drop(entries);
        self.index_entry(id, &metadata, &acl, version)
    }

    /// Grant a user access to a restricted model (owner only).
    pub fn share_with(
        &self,
        token: &Token,
        id: &str,
        qualified_user: &str,
    ) -> Result<(), DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let uid = self
            .auth
            .lookup(qualified_user)
            .ok_or_else(|| DlhubError::Auth(format!("unknown user: {qualified_user}")))?;
        let mut entries = self.entries.write();
        let entry = entries
            .get_mut(id)
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        if !entry.acl.is_owner(&info.linked_identities) {
            return Err(DlhubError::Auth(format!("not an owner of {id}")));
        }
        entry.acl.allow_user(uid);
        let (metadata, acl, version) = (entry.metadata.clone(), entry.acl.clone(), entry.version);
        drop(entries);
        self.index_entry(id, &metadata, &acl, version)
    }

    /// Withdraw a model (owner only): removes the serving entry and
    /// its search document. Container images remain pullable by
    /// digest so prior results stay reproducible — withdrawal stops
    /// *serving*, not *citation*.
    pub fn unpublish(&self, token: &Token, id: &str) -> Result<(), DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let mut entries = self.entries.write();
        let entry = entries
            .get(id)
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        if !entry.acl.is_owner(&info.linked_identities) {
            return Err(DlhubError::Auth(format!("not an owner of {id}")));
        }
        entries.remove(id);
        drop(entries);
        self.search.delete(id);
        Ok(())
    }

    /// Update mutable metadata fields (owner only); reindexes.
    pub fn update_metadata(
        &self,
        token: &Token,
        id: &str,
        description: Option<String>,
        tags: Option<Vec<String>>,
    ) -> Result<(), DlhubError> {
        let info = self.authorize(token, PUBLISH_SCOPE)?;
        let mut entries = self.entries.write();
        let entry = entries
            .get_mut(id)
            .ok_or_else(|| DlhubError::NotFound(id.to_string()))?;
        if !entry.acl.is_owner(&info.linked_identities) {
            return Err(DlhubError::Auth(format!("not an owner of {id}")));
        }
        // Copy-on-write: requests in flight keep the metadata they
        // resolved.
        let metadata = Arc::make_mut(&mut entry.metadata);
        if let Some(d) = description {
            metadata.description = d;
        }
        if let Some(t) = tags {
            metadata.tags = t;
        }
        let (metadata, acl, version) = (entry.metadata.clone(), entry.acl.clone(), entry.version);
        drop(entries);
        self.index_entry(id, &metadata, &acl, version)
    }

    /// Ids of all published servables (unfiltered; internal use).
    pub fn all_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.entries.read().keys().cloned().collect();
        ids.sort();
        ids
    }
}

fn acl_principals(acl: &Acl) -> Vec<String> {
    use dlhub_auth::Visibility;
    match acl.visibility {
        Visibility::Public => vec!["public".to_string()],
        Visibility::Restricted => {
            let mut out: Vec<String> = acl
                .owners
                .iter()
                .chain(acl.allowed_users.iter())
                .map(|id| format!("id-{}", id.0))
                .collect();
            out.extend(acl.allowed_groups.iter().map(|g| format!("group:{g}")));
            out
        }
    }
}

fn permits(acl: &Acl, principals: &[String]) -> bool {
    use dlhub_auth::Visibility;
    if acl.visibility == Visibility::Public {
        return true;
    }
    let allowed = acl_principals(acl);
    principals.iter().any(|p| allowed.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servable::builtins::NoopServable;
    use crate::servable::{servable_fn, ModelType};
    use crate::value::Value;

    struct Fixture {
        repo: Repository,
        alice: Token,
        bob: Token,
    }

    fn fixture() -> Fixture {
        let auth = AuthService::new();
        auth.register_provider("uchicago.edu");
        let repo = Repository::new(auth.clone());
        let a = auth.register_identity("uchicago.edu", "alice").unwrap();
        let b = auth.register_identity("uchicago.edu", "bob").unwrap();
        let scopes = [
            Scope::new(RESOURCE_SERVER, PUBLISH_SCOPE),
            Scope::new(RESOURCE_SERVER, SERVE_SCOPE),
        ];
        Fixture {
            alice: auth.issue_token(a, &scopes).unwrap(),
            bob: auth.issue_token(b, &scopes).unwrap(),
            repo,
        }
    }

    fn meta(name: &str) -> ServableMetadata {
        ServableMetadata::new(name, "ignored@provider", ModelType::PythonFunction)
    }

    #[test]
    fn publish_and_resolve() {
        let f = fixture();
        let receipt = f
            .repo
            .publish(
                &f.alice,
                meta("noop"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(receipt.id, "alice/noop");
        assert_eq!(receipt.version, 1);
        assert!(receipt.doi.starts_with("10.26311/dlhub."));
        let (servable, metadata) = f.repo.resolve(None, "alice/noop").unwrap();
        assert_eq!(metadata.owner, "alice@uchicago.edu");
        assert_eq!(
            servable.run(&Value::Null).unwrap(),
            Value::Str("hello world".into())
        );
    }

    #[test]
    fn owner_is_precompleted_from_token() {
        let f = fixture();
        // Metadata claims a different owner; publication overrides it.
        let mut m = meta("m");
        m.owner = "mallory@evil.example".into();
        let receipt = f
            .repo
            .publish(
                &f.alice,
                m,
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(receipt.id, "alice/m");
    }

    #[test]
    fn republish_bumps_version_and_keeps_doi_fresh() {
        let f = fixture();
        let first = f
            .repo
            .publish(
                &f.alice,
                meta("m"),
                servable_fn(|_| Ok(Value::Int(1))),
                BTreeMap::from([("weights".into(), vec![1u8])]),
                PublishVisibility::Public,
            )
            .unwrap();
        let second = f
            .repo
            .publish(
                &f.alice,
                meta("m"),
                servable_fn(|_| Ok(Value::Int(2))),
                BTreeMap::from([("weights".into(), vec![2u8])]),
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(second.version, 2);
        assert_ne!(first.doi, second.doi);
        assert_ne!(first.image, second.image);
        let (servable, _) = f.repo.resolve(None, "alice/m").unwrap();
        assert_eq!(servable.run(&Value::Null).unwrap(), Value::Int(2));
        // Both images remain pullable (reproducibility).
        assert!(f.repo.registry().pull_digest(first.image).is_ok());
    }

    #[test]
    fn cannot_squat_anothers_model() {
        let f = fixture();
        f.repo
            .publish(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        // Bob can publish bob/m — ids are namespaced per owner.
        let ok = f.repo.publish(
            &f.bob,
            meta("m"),
            Arc::new(NoopServable),
            BTreeMap::new(),
            PublishVisibility::Public,
        );
        assert_eq!(ok.unwrap().id, "bob/m");
    }

    #[test]
    fn bad_names_rejected() {
        let f = fixture();
        for bad in ["", "a/b"] {
            let err = f
                .repo
                .publish(
                    &f.alice,
                    meta(bad),
                    Arc::new(NoopServable),
                    BTreeMap::new(),
                    PublishVisibility::Public,
                )
                .unwrap_err();
            assert!(matches!(err, DlhubError::Publication(_)));
        }
    }

    #[test]
    fn dependency_conflict_rejected() {
        let f = fixture();
        let mut m = meta("m");
        // Conflicts with the dlhub shim's pinned parsl version.
        m.dependencies = vec![("parsl".into(), "0.6".into())];
        let err = f
            .repo
            .publish(
                &f.alice,
                m,
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(err.to_string().contains("conflict"));
    }

    #[test]
    fn restricted_models_hidden_from_strangers() {
        let f = fixture();
        f.repo
            .publish(
                &f.alice,
                meta("secret"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Restricted {
                    users: vec![],
                    groups: vec![],
                },
            )
            .unwrap();
        // Bob and anonymous see NotFound, not a permission error.
        assert!(matches!(
            f.repo.resolve(Some(&f.bob), "alice/secret"),
            Err(DlhubError::NotFound(_))
        ));
        assert!(matches!(
            f.repo.resolve(None, "alice/secret"),
            Err(DlhubError::NotFound(_))
        ));
        // Owner resolves fine.
        assert!(f.repo.resolve(Some(&f.alice), "alice/secret").is_ok());
        // Search hides it too.
        assert!(f
            .repo
            .search(Some(&f.bob), &Query::free_text("secret"))
            .is_empty());
        assert_eq!(
            f.repo
                .search(Some(&f.alice), &Query::free_text("secret"))
                .len(),
            1
        );
    }

    #[test]
    fn share_with_grants_access_and_reindexes() {
        let f = fixture();
        f.repo
            .publish(
                &f.alice,
                meta("secret"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Restricted {
                    users: vec![],
                    groups: vec![],
                },
            )
            .unwrap();
        f.repo
            .share_with(&f.alice, "alice/secret", "bob@uchicago.edu")
            .unwrap();
        assert!(f.repo.resolve(Some(&f.bob), "alice/secret").is_ok());
        assert_eq!(
            f.repo
                .search(Some(&f.bob), &Query::free_text("secret"))
                .len(),
            1
        );
        // Bob still cannot administer it.
        assert!(f
            .repo
            .share_with(&f.bob, "alice/secret", "bob@uchicago.edu")
            .is_err());
    }

    #[test]
    fn make_public_releases_the_model() {
        let f = fixture();
        f.repo
            .publish(
                &f.alice,
                meta("candle"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Restricted {
                    users: vec![],
                    groups: vec![],
                },
            )
            .unwrap();
        assert!(f.repo.resolve(None, "alice/candle").is_err());
        f.repo.make_public(&f.alice, "alice/candle").unwrap();
        assert!(f.repo.resolve(None, "alice/candle").is_ok());
    }

    #[test]
    fn group_visibility() {
        let f = fixture();
        let auth = f.repo.auth().clone();
        let bob_id = auth.lookup("bob@uchicago.edu").unwrap();
        auth.add_to_group("candle-testers", bob_id).unwrap();
        f.repo
            .publish(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Restricted {
                    users: vec![],
                    groups: vec!["candle-testers".into()],
                },
            )
            .unwrap();
        assert!(f.repo.resolve(Some(&f.bob), "alice/m").is_ok());
    }

    #[test]
    fn update_metadata_reindexes() {
        let f = fixture();
        f.repo
            .publish(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        f.repo
            .update_metadata(
                &f.alice,
                "alice/m",
                Some("predicts formation enthalpy".into()),
                Some(vec!["materials".into()]),
            )
            .unwrap();
        let hits = f.repo.search(None, &Query::free_text("enthalpy"));
        assert_eq!(hits.len(), 1);
        assert!(f
            .repo
            .update_metadata(&f.bob, "alice/m", Some("vandalized".into()), None)
            .is_err());
    }

    #[test]
    fn unpublish_withdraws_serving_but_keeps_images() {
        let f = fixture();
        let receipt = f
            .repo
            .publish(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        // Non-owner cannot withdraw.
        assert!(matches!(
            f.repo.unpublish(&f.bob, "alice/m"),
            Err(DlhubError::Auth(_))
        ));
        f.repo.unpublish(&f.alice, "alice/m").unwrap();
        assert!(matches!(
            f.repo.resolve(None, "alice/m"),
            Err(DlhubError::NotFound(_))
        ));
        assert!(f.repo.search(None, &Query::All).is_empty());
        // The published container is still pullable for reproducing
        // prior results.
        assert!(f.repo.registry().pull_digest(receipt.image).is_ok());
        // Idempotence: second withdrawal is NotFound.
        assert!(matches!(
            f.repo.unpublish(&f.alice, "alice/m"),
            Err(DlhubError::NotFound(_))
        ));
        // The name can be re-published afterwards (fresh v1).
        let again = f
            .repo
            .publish(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(again.version, 1);
    }

    #[test]
    fn publish_requires_scope() {
        let f = fixture();
        let auth = f.repo.auth().clone();
        let carol = auth.register_identity("uchicago.edu", "carol").unwrap();
        let serve_only = auth
            .issue_token(carol, &[Scope::new(RESOURCE_SERVER, SERVE_SCOPE)])
            .unwrap();
        let err = f
            .repo
            .publish(
                &serve_only,
                meta("m"),
                Arc::new(NoopServable),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(matches!(err, DlhubError::Auth(_)));
    }

    #[test]
    fn publish_from_endpoint_stages_components() {
        let f = fixture();
        let transfer = dlhub_transfer::TransferService::new();
        let source = transfer.create_endpoint("petrel#alice", 100.0);
        let staging = transfer.create_endpoint("dlhub#staging", 1000.0);
        source.put("/models/m/weights.h5", vec![42; 2048]);
        source.put("/models/m/config.json", b"{\"layers\": 3}".to_vec());
        source.put("/elsewhere/ignored.bin", vec![1]);
        // The endpoint is restricted to Alice; publication acts on her
        // behalf via her authenticated identity.
        let alice_id = f.repo.auth().lookup("alice@uchicago.edu").unwrap();
        source.restrict_to(alice_id);

        let receipt = f
            .repo
            .publish_from_endpoint(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                &transfer,
                &source,
                "/models/m/",
                &staging,
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(receipt.id, "alice/m");
        // Both files were staged and baked into the image.
        let image = f.repo.registry().pull_digest(receipt.image).unwrap();
        assert!(image.layers.iter().any(|l| l.step.contains("weights.h5")));
        assert!(image.layers.iter().any(|l| l.step.contains("config.json")));
        assert!(!image.layers.iter().any(|l| l.step.contains("ignored")));
        // Bob's token cannot stage from Alice's restricted endpoint.
        let err = f
            .repo
            .publish_from_endpoint(
                &f.bob,
                meta("m2"),
                Arc::new(NoopServable),
                &transfer,
                &source,
                "/models/m/",
                &staging,
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(err.to_string().contains("denied"), "{err}");
    }

    #[test]
    fn corrupted_staging_aborts_publication() {
        let f = fixture();
        let transfer = dlhub_transfer::TransferService::new();
        let source = transfer.create_endpoint("src", 100.0);
        let staging = transfer.create_endpoint("dst", 100.0);
        source.put("/m/weights", vec![1, 2, 3]);
        source.corrupt_for_test("/m/weights");
        let err = f
            .repo
            .publish_from_endpoint(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                &transfer,
                &source,
                "/m/",
                &staging,
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        assert!(f.repo.resolve(None, "alice/m").is_err(), "must not publish");
    }

    #[test]
    fn empty_prefix_rejected() {
        let f = fixture();
        let transfer = dlhub_transfer::TransferService::new();
        let source = transfer.create_endpoint("src", 100.0);
        let staging = transfer.create_endpoint("dst", 100.0);
        let err = f
            .repo
            .publish_from_endpoint(
                &f.alice,
                meta("m"),
                Arc::new(NoopServable),
                &transfer,
                &source,
                "/nothing/",
                &staging,
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(err.to_string().contains("no components"), "{err}");
    }

    #[test]
    fn bundle_shares_one_image_across_servables() {
        let f = fixture();
        let receipts = f
            .repo
            .publish_bundle(
                &f.alice,
                "matminer",
                vec![
                    (
                        meta("bundle-util"),
                        servable_fn(|_| Ok(Value::Int(1))) as Arc<dyn Servable>,
                    ),
                    (
                        meta("bundle-model"),
                        servable_fn(|_| Ok(Value::Int(2))) as Arc<dyn Servable>,
                    ),
                ],
                BTreeMap::from([("shared-weights".into(), vec![1, 2, 3])]),
                PublishVisibility::Public,
            )
            .unwrap();
        assert_eq!(receipts.len(), 2);
        // One shared image, distinct DOIs.
        assert_eq!(receipts[0].image, receipts[1].image);
        assert_ne!(receipts[0].doi, receipts[1].doi);
        // Both servables resolve and run independently.
        let (s1, m1) = f.repo.resolve(None, "alice/bundle-util").unwrap();
        let (s2, _) = f.repo.resolve(None, "alice/bundle-model").unwrap();
        assert_eq!(s1.run(&Value::Null).unwrap(), Value::Int(1));
        assert_eq!(s2.run(&Value::Null).unwrap(), Value::Int(2));
        // Bundle membership is discoverable via the injected tag.
        assert!(m1.tags.contains(&"bundle:matminer".to_string()));
        let hits = f
            .repo
            .search(None, &Query::field_match("tags", "bundle matminer"));
        assert_eq!(hits.len(), 2);
        // The bundle image is pullable under its bundle reference.
        assert!(f
            .repo
            .registry()
            .resolve("dlhub/alice-matminer:bundle")
            .is_some());
    }

    #[test]
    fn empty_bundle_rejected() {
        let f = fixture();
        assert!(matches!(
            f.repo.publish_bundle(
                &f.alice,
                "empty",
                vec![],
                BTreeMap::new(),
                PublishVisibility::Public,
            ),
            Err(DlhubError::Publication(_))
        ));
    }

    #[test]
    fn bundle_dependency_conflicts_detected_across_members() {
        let f = fixture();
        let mut a = meta("a");
        a.dependencies = vec![("numpy".into(), "1.16".into())];
        let mut b = meta("b");
        b.dependencies = vec![("numpy".into(), "1.15".into())];
        let err = f
            .repo
            .publish_bundle(
                &f.alice,
                "clash",
                vec![
                    (a, servable_fn(|_| Ok(Value::Null)) as Arc<dyn Servable>),
                    (b, servable_fn(|_| Ok(Value::Null)) as Arc<dyn Servable>),
                ],
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(err.to_string().contains("conflict"));
    }

    #[test]
    fn faceted_discovery_by_model_type() {
        let f = fixture();
        for (name, mt) in [
            ("a", ModelType::Keras),
            ("b", ModelType::Keras),
            ("c", ModelType::ScikitLearn),
        ] {
            f.repo
                .publish(
                    &f.alice,
                    ServableMetadata::new(name, "x@y", mt),
                    Arc::new(NoopServable),
                    BTreeMap::new(),
                    PublishVisibility::Public,
                )
                .unwrap();
        }
        let results = f.repo.search_faceted(None, &Query::All, &["model_type"]);
        assert_eq!(results.facets["model_type"]["keras"], 2);
        assert_eq!(results.facets["model_type"]["scikit-learn"], 1);
    }
}
