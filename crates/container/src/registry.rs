//! Image registry: push/pull by `name:tag`.

use crate::image::{Digest, Image};
use dlhub_sync::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No image under that reference.
    NotFound(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NotFound(r) => write!(f, "image not found: {r}"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[derive(Default)]
struct State {
    /// `name:tag` -> digest.
    tags: HashMap<String, Digest>,
    /// digest -> image.
    blobs: HashMap<Digest, Image>,
}

/// A content-addressed image registry ("uploads the container to the
/// DLHub model repository", §IV-A). Cheap to clone.
#[derive(Clone, Default)]
pub struct Registry {
    state: Arc<RwLock<State>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Push an image under `name:tag`, returning its digest.
    /// Re-pushing a tag repoints it (image versioning).
    pub fn push(&self, reference: &str, image: Image) -> Digest {
        let mut st = self.state.write();
        let digest = image.digest;
        st.blobs.insert(digest, image);
        st.tags.insert(reference.to_string(), digest);
        digest
    }

    /// Pull by `name:tag`.
    pub fn pull(&self, reference: &str) -> Result<Image, RegistryError> {
        let st = self.state.read();
        let digest = st
            .tags
            .get(reference)
            .ok_or_else(|| RegistryError::NotFound(reference.to_string()))?;
        st.blobs
            .get(digest)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(reference.to_string()))
    }

    /// Pull by digest (immutable reference).
    pub fn pull_digest(&self, digest: Digest) -> Result<Image, RegistryError> {
        self.state
            .read()
            .blobs
            .get(&digest)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(digest.to_string()))
    }

    /// Resolve a tag to a digest without transferring the image.
    pub fn resolve(&self, reference: &str) -> Option<Digest> {
        self.state.read().tags.get(reference).copied()
    }

    /// Tags currently registered.
    pub fn tags(&self) -> Vec<String> {
        let mut tags: Vec<String> = self.state.read().tags.keys().cloned().collect();
        tags.sort();
        tags
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("Registry")
            .field("tags", &st.tags.len())
            .field("blobs", &st.blobs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::recipe::Recipe;

    fn image(entry: &str) -> Image {
        let mut r = Recipe::from_base("python:3.7");
        r.entrypoint(entry);
        ImageBuilder::new().build(&r)
    }

    #[test]
    fn push_pull_round_trip() {
        let reg = Registry::new();
        let img = image("a");
        let digest = reg.push("dlhub/noop:1", img.clone());
        assert_eq!(reg.pull("dlhub/noop:1").unwrap(), img);
        assert_eq!(reg.pull_digest(digest).unwrap(), img);
        assert_eq!(reg.resolve("dlhub/noop:1"), Some(digest));
    }

    #[test]
    fn missing_reference_errors() {
        let reg = Registry::new();
        assert!(matches!(
            reg.pull("missing:latest"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn retag_repoints_but_old_digest_survives() {
        let reg = Registry::new();
        let v1 = image("v1");
        let v2 = image("v2");
        let d1 = reg.push("m:latest", v1.clone());
        let d2 = reg.push("m:latest", v2.clone());
        assert_ne!(d1, d2);
        assert_eq!(reg.pull("m:latest").unwrap(), v2);
        // The old image is still retrievable by digest (model version
        // pinning for reproducibility).
        assert_eq!(reg.pull_digest(d1).unwrap(), v1);
    }

    #[test]
    fn tags_are_sorted() {
        let reg = Registry::new();
        reg.push("b:1", image("x"));
        reg.push("a:1", image("y"));
        assert_eq!(reg.tags(), vec!["a:1".to_string(), "b:1".to_string()]);
    }
}
