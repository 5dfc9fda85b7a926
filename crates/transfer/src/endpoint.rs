//! Storage endpoints.

use dlhub_auth::IdentityId;
use dlhub_sync::RwLock;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// A simple rolling checksum (FNV-1a 64) attached to every stored
/// file and re-verified after every transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Checksum {
    /// Hash file contents.
    pub fn of(bytes: &[u8]) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Checksum(h)
    }
}

struct File {
    content: Vec<u8>,
    checksum: Checksum,
}

struct State {
    files: BTreeMap<String, File>,
    /// Identities allowed to read/write. Empty set = open endpoint.
    allowed: HashSet<IdentityId>,
}

/// A named storage endpoint with a bandwidth rating (MB/s) used by the
/// transfer service's duration model.
#[derive(Clone)]
pub struct Endpoint {
    name: Arc<String>,
    bandwidth_mbps: f64,
    state: Arc<RwLock<State>>,
}

impl Endpoint {
    /// Create an open (unrestricted) endpoint.
    pub fn new(name: impl Into<String>, bandwidth_mbps: f64) -> Self {
        Endpoint {
            name: Arc::new(name.into()),
            bandwidth_mbps: bandwidth_mbps.max(0.001),
            state: Arc::new(RwLock::new(State {
                files: BTreeMap::new(),
                allowed: HashSet::new(),
            })),
        }
    }

    /// Endpoint display name (`site#collection` by Globus convention).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rated bandwidth in MB/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_mbps
    }

    /// Restrict the endpoint to `identity` (repeatable). Once any
    /// restriction exists, only listed identities may activate.
    pub fn restrict_to(&self, identity: IdentityId) {
        self.state.write().allowed.insert(identity);
    }

    /// Can `identity` use this endpoint? Anonymous (`None`) only on
    /// open endpoints.
    pub fn permits(&self, identity: Option<IdentityId>) -> bool {
        let st = self.state.read();
        if st.allowed.is_empty() {
            return true;
        }
        identity.is_some_and(|id| st.allowed.contains(&id))
    }

    /// Store a file (overwrites).
    pub fn put(&self, path: &str, content: Vec<u8>) {
        let checksum = Checksum::of(&content);
        self.state
            .write()
            .files
            .insert(path.to_string(), File { content, checksum });
    }

    /// Fetch a file's contents.
    pub fn get(&self, path: &str) -> Option<Vec<u8>> {
        self.state.read().files.get(path).map(|f| f.content.clone())
    }

    /// Stored checksum of a file.
    pub fn checksum(&self, path: &str) -> Option<Checksum> {
        self.state.read().files.get(path).map(|f| f.checksum)
    }

    /// File size in bytes.
    pub fn size(&self, path: &str) -> Option<usize> {
        self.state.read().files.get(path).map(|f| f.content.len())
    }

    /// List paths under a prefix (Globus `ls`).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.state
            .read()
            .files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Remove a file; true if it existed.
    pub fn delete(&self, path: &str) -> bool {
        self.state.write().files.remove(path).is_some()
    }

    /// Corrupt a stored file in place **without** updating its
    /// checksum — test hook for integrity-verification paths.
    pub fn corrupt_for_test(&self, path: &str) {
        if let Some(f) = self.state.write().files.get_mut(path) {
            if let Some(byte) = f.content.first_mut() {
                *byte ^= 0xFF;
            } else {
                f.content.push(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_checksum() {
        let e = Endpoint::new("petrel#data", 100.0);
        e.put("/a/b.bin", vec![1, 2, 3]);
        assert_eq!(e.get("/a/b.bin").unwrap(), vec![1, 2, 3]);
        assert_eq!(e.checksum("/a/b.bin").unwrap(), Checksum::of(&[1, 2, 3]));
        assert_eq!(e.size("/a/b.bin"), Some(3));
        assert!(e.get("/missing").is_none());
    }

    #[test]
    fn list_filters_by_prefix() {
        let e = Endpoint::new("x", 1.0);
        e.put("/m/a", vec![]);
        e.put("/m/b", vec![]);
        e.put("/other", vec![]);
        assert_eq!(e.list("/m/").len(), 2);
        assert_eq!(e.list("/").len(), 3);
    }

    #[test]
    fn restriction_gates_access() {
        let e = Endpoint::new("x", 1.0);
        assert!(e.permits(None)); // open by default
        e.restrict_to(IdentityId(7));
        assert!(!e.permits(None));
        assert!(!e.permits(Some(IdentityId(8))));
        assert!(e.permits(Some(IdentityId(7))));
    }

    #[test]
    fn corrupt_for_test_breaks_checksum() {
        let e = Endpoint::new("x", 1.0);
        e.put("/f", vec![9, 9]);
        e.corrupt_for_test("/f");
        let stored = e.get("/f").unwrap();
        assert_ne!(Checksum::of(&stored), e.checksum("/f").unwrap());
    }

    #[test]
    fn checksum_distinguishes_content() {
        assert_ne!(Checksum::of(&[1]), Checksum::of(&[2]));
        assert_eq!(Checksum::of(b"same"), Checksum::of(b"same"));
    }
}
