//! Cluster model: nodes, pods, deployments and the scheduler.
//!
//! Models PetrelKube (§V-A): a 14-node Kubernetes cluster onto which
//! the Parsl executor deploys "a Kubernetes Deployment consisting of
//! *n* pods for each servable that is to be executed".

use crate::image::Digest;
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Pod identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PodId(pub u64);

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    /// Scheduled and serving.
    Running,
    /// Deleted (scale-down, deployment removal, or node drain without
    /// capacity elsewhere).
    Terminated,
}

/// Node description: name and allocatable resources.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name, e.g. `petrelkube-03`.
    pub name: String,
    /// Allocatable CPU in millicores.
    pub cpu_millis: u64,
    /// Allocatable memory in MiB.
    pub memory_mib: u64,
}

impl NodeSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, cpu_millis: u64, memory_mib: u64) -> Self {
        NodeSpec {
            name: name.into(),
            cpu_millis,
            memory_mib,
        }
    }
}

/// Pod resource request plus the image it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Image digest the pod runs.
    pub image: Digest,
    /// CPU request in millicores.
    pub cpu_millis: u64,
    /// Memory request in MiB.
    pub memory_mib: u64,
}

/// A placed pod.
#[derive(Debug, Clone, PartialEq)]
pub struct Pod {
    /// Pod id.
    pub id: PodId,
    /// Deployment this pod belongs to.
    pub deployment: String,
    /// Node the pod is placed on.
    pub node: String,
    /// Spec used at placement.
    pub spec: PodSpec,
    /// Current phase.
    pub phase: PodPhase,
}

/// A deployment: a desired replica count of one pod spec.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Deployment name (DLHub uses the servable identifier).
    pub name: String,
    /// Desired replicas.
    pub replicas: usize,
    /// Pod template.
    pub template: PodSpec,
}

/// Cluster errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Not enough free resources anywhere for a pod.
    Unschedulable {
        /// Deployment that could not grow.
        deployment: String,
    },
    /// Unknown deployment name.
    NoSuchDeployment(String),
    /// Deployment with this name already exists.
    DeploymentExists(String),
    /// Unknown node name.
    NoSuchNode(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Unschedulable { deployment } => {
                write!(f, "no node can fit a pod of deployment {deployment}")
            }
            ClusterError::NoSuchDeployment(d) => write!(f, "no such deployment: {d}"),
            ClusterError::DeploymentExists(d) => write!(f, "deployment exists: {d}"),
            ClusterError::NoSuchNode(n) => write!(f, "no such node: {n}"),
        }
    }
}

impl std::error::Error for ClusterError {}

struct NodeState {
    spec: NodeSpec,
    used_cpu: u64,
    used_mem: u64,
    cordoned: bool,
}

impl NodeState {
    fn fits(&self, spec: &PodSpec) -> bool {
        !self.cordoned
            && self.used_cpu + spec.cpu_millis <= self.spec.cpu_millis
            && self.used_mem + spec.memory_mib <= self.spec.memory_mib
    }
    /// Free CPU after current usage; scheduler places on the node with
    /// the most headroom (least-loaded spreading, like the default
    /// kube-scheduler's LeastAllocated scoring).
    fn headroom(&self) -> u64 {
        self.spec.cpu_millis - self.used_cpu
    }
}

#[derive(Default)]
struct State {
    nodes: Vec<NodeState>,
    deployments: HashMap<String, Deployment>,
    pods: HashMap<PodId, Pod>,
}

/// A Kubernetes-like cluster with a least-loaded scheduler. Cheap to
/// clone.
#[derive(Clone)]
pub struct Cluster {
    state: Arc<RwLock<State>>,
}

static NEXT_POD: AtomicU64 = AtomicU64::new(1);

impl Cluster {
    /// Create a cluster from node specs.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        Cluster {
            state: Arc::new(RwLock::new(State {
                nodes: nodes
                    .into_iter()
                    .map(|spec| NodeState {
                        spec,
                        used_cpu: 0,
                        used_mem: 0,
                        cordoned: false,
                    })
                    .collect(),
                deployments: HashMap::new(),
                pods: HashMap::new(),
            })),
        }
    }

    /// PetrelKube as described in §V-A: 14 nodes, two E5-2670 CPUs
    /// (16 cores / 32 threads ≈ 32000 millicores) and 128 GiB RAM each.
    pub fn petrelkube() -> Self {
        Cluster::new(
            (0..14)
                .map(|i| NodeSpec::new(format!("petrelkube-{i:02}"), 32_000, 128 * 1024))
                .collect(),
        )
    }

    /// Create a deployment and schedule its replicas.
    pub fn create_deployment(
        &self,
        name: &str,
        template: PodSpec,
        replicas: usize,
    ) -> Result<Vec<PodId>, ClusterError> {
        {
            let mut st = self.state.write();
            if st.deployments.contains_key(name) {
                return Err(ClusterError::DeploymentExists(name.to_string()));
            }
            st.deployments.insert(
                name.to_string(),
                Deployment {
                    name: name.to_string(),
                    replicas: 0,
                    template,
                },
            );
        }
        self.scale(name, replicas)
    }

    /// Scale a deployment to `replicas`, creating or terminating pods.
    /// Returns ids of pods created by this call (empty on scale-down).
    pub fn scale(&self, name: &str, replicas: usize) -> Result<Vec<PodId>, ClusterError> {
        let mut st = self.state.write();
        let deployment = st
            .deployments
            .get(name)
            .cloned()
            .ok_or_else(|| ClusterError::NoSuchDeployment(name.to_string()))?;
        let current: Vec<PodId> = st
            .pods
            .values()
            .filter(|p| p.deployment == name && p.phase == PodPhase::Running)
            .map(|p| p.id)
            .collect();
        let mut created = Vec::new();
        if replicas > current.len() {
            for _ in current.len()..replicas {
                let id = Self::place(&mut st, name, &deployment.template)?;
                created.push(id);
            }
        } else {
            // Terminate the newest pods first (mirrors ReplicaSet
            // behaviour closely enough).
            let mut ordered = current;
            ordered.sort();
            for id in ordered.into_iter().skip(replicas) {
                Self::terminate(&mut st, id);
            }
        }
        if let Some(d) = st.deployments.get_mut(name) {
            d.replicas = replicas;
        }
        Ok(created)
    }

    fn place(st: &mut State, deployment: &str, spec: &PodSpec) -> Result<PodId, ClusterError> {
        let node_idx = st
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.fits(spec))
            .max_by_key(|(_, n)| n.headroom())
            .map(|(i, _)| i)
            .ok_or_else(|| ClusterError::Unschedulable {
                deployment: deployment.to_string(),
            })?;
        let node = &mut st.nodes[node_idx];
        node.used_cpu += spec.cpu_millis;
        node.used_mem += spec.memory_mib;
        let id = PodId(NEXT_POD.fetch_add(1, Ordering::Relaxed));
        st.pods.insert(
            id,
            Pod {
                id,
                deployment: deployment.to_string(),
                node: node.spec.name.clone(),
                spec: spec.clone(),
                phase: PodPhase::Running,
            },
        );
        Ok(id)
    }

    fn terminate(st: &mut State, id: PodId) {
        if let Some(pod) = st.pods.get_mut(&id) {
            if pod.phase == PodPhase::Running {
                pod.phase = PodPhase::Terminated;
                let node_name = pod.node.clone();
                let spec = pod.spec.clone();
                if let Some(node) = st.nodes.iter_mut().find(|n| n.spec.name == node_name) {
                    node.used_cpu -= spec.cpu_millis;
                    node.used_mem -= spec.memory_mib;
                }
            }
        }
    }

    /// Delete a deployment and all its pods.
    pub fn delete_deployment(&self, name: &str) -> Result<(), ClusterError> {
        let mut st = self.state.write();
        if st.deployments.remove(name).is_none() {
            return Err(ClusterError::NoSuchDeployment(name.to_string()));
        }
        let ids: Vec<PodId> = st
            .pods
            .values()
            .filter(|p| p.deployment == name)
            .map(|p| p.id)
            .collect();
        for id in ids {
            Self::terminate(&mut st, id);
        }
        Ok(())
    }

    /// Cordon and drain a node: its pods are rescheduled elsewhere
    /// (deployment self-healing). Pods that do not fit anywhere stay
    /// terminated and the error is returned, but all reschedulable
    /// pods are still moved.
    pub fn drain_node(&self, node: &str) -> Result<(), ClusterError> {
        let mut st = self.state.write();
        if !st.nodes.iter().any(|n| n.spec.name == node) {
            return Err(ClusterError::NoSuchNode(node.to_string()));
        }
        if let Some(n) = st.nodes.iter_mut().find(|n| n.spec.name == node) {
            n.cordoned = true;
        }
        let victims: Vec<(PodId, String, PodSpec)> = st
            .pods
            .values()
            .filter(|p| p.node == node && p.phase == PodPhase::Running)
            .map(|p| (p.id, p.deployment.clone(), p.spec.clone()))
            .collect();
        let mut first_err = None;
        for (id, deployment, spec) in victims {
            Self::terminate(&mut st, id);
            if let Err(e) = Self::place(&mut st, &deployment, &spec) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Running pods of one deployment, ordered by pod id (stable
    /// round-robin order for the executor's load balancer).
    pub fn running_pods(&self, deployment: &str) -> Vec<Pod> {
        let st = self.state.read();
        let mut pods: Vec<Pod> = st
            .pods
            .values()
            .filter(|p| p.deployment == deployment && p.phase == PodPhase::Running)
            .cloned()
            .collect();
        pods.sort_by_key(|p| p.id);
        pods
    }

    /// All running pods on one node.
    pub fn pods_on_node(&self, node: &str) -> Vec<Pod> {
        let st = self.state.read();
        let mut pods: Vec<Pod> = st
            .pods
            .values()
            .filter(|p| p.node == node && p.phase == PodPhase::Running)
            .cloned()
            .collect();
        pods.sort_by_key(|p| p.id);
        pods
    }

    /// `(used_cpu, total_cpu)` across non-cordoned nodes.
    pub fn cpu_utilization(&self) -> (u64, u64) {
        let st = self.state.read();
        st.nodes
            .iter()
            .filter(|n| !n.cordoned)
            .fold((0, 0), |(u, t), n| (u + n.used_cpu, t + n.spec.cpu_millis))
    }

    /// Node names.
    pub fn nodes(&self) -> Vec<String> {
        self.state
            .read()
            .nodes
            .iter()
            .map(|n| n.spec.name.clone())
            .collect()
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("Cluster")
            .field("nodes", &st.nodes.len())
            .field("deployments", &st.deployments.len())
            .field(
                "running_pods",
                &st.pods
                    .values()
                    .filter(|p| p.phase == PodPhase::Running)
                    .count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PodSpec {
        PodSpec {
            image: Digest(1, 1),
            cpu_millis: 1000,
            memory_mib: 1024,
        }
    }

    fn small_cluster() -> Cluster {
        Cluster::new(vec![
            NodeSpec::new("n0", 4000, 8192),
            NodeSpec::new("n1", 4000, 8192),
        ])
    }

    #[test]
    fn deployment_schedules_replicas_spread() {
        let c = small_cluster();
        c.create_deployment("svc", spec(), 4).unwrap();
        let pods = c.running_pods("svc");
        assert_eq!(pods.len(), 4);
        // Least-loaded spreading: 2 per node.
        assert_eq!(c.pods_on_node("n0").len(), 2);
        assert_eq!(c.pods_on_node("n1").len(), 2);
    }

    #[test]
    fn duplicate_deployment_rejected() {
        let c = small_cluster();
        c.create_deployment("svc", spec(), 1).unwrap();
        assert!(matches!(
            c.create_deployment("svc", spec(), 1),
            Err(ClusterError::DeploymentExists(_))
        ));
    }

    #[test]
    fn scale_up_and_down() {
        let c = small_cluster();
        c.create_deployment("svc", spec(), 2).unwrap();
        let created = c.scale("svc", 5).unwrap();
        assert_eq!(created.len(), 3);
        assert_eq!(c.running_pods("svc").len(), 5);
        c.scale("svc", 1).unwrap();
        assert_eq!(c.running_pods("svc").len(), 1);
        let (used, _) = c.cpu_utilization();
        assert_eq!(used, 1000);
    }

    #[test]
    fn unschedulable_when_full() {
        let c = small_cluster();
        // Capacity is 8 pods of 1000 mc.
        c.create_deployment("svc", spec(), 8).unwrap();
        let err = c.scale("svc", 9).unwrap_err();
        assert!(matches!(err, ClusterError::Unschedulable { .. }));
        // The 8 running pods are unaffected.
        assert_eq!(c.running_pods("svc").len(), 8);
    }

    #[test]
    fn memory_constraint_also_binds() {
        let c = Cluster::new(vec![NodeSpec::new("n0", 64_000, 2048)]);
        let big_mem = PodSpec {
            image: Digest(0, 0),
            cpu_millis: 100,
            memory_mib: 1024,
        };
        c.create_deployment("svc", big_mem, 2).unwrap();
        assert!(c.scale("svc", 3).is_err());
    }

    #[test]
    fn delete_deployment_frees_resources() {
        let c = small_cluster();
        c.create_deployment("svc", spec(), 4).unwrap();
        c.delete_deployment("svc").unwrap();
        assert!(c.running_pods("svc").is_empty());
        assert_eq!(c.cpu_utilization().0, 0);
        assert!(matches!(
            c.delete_deployment("svc"),
            Err(ClusterError::NoSuchDeployment(_))
        ));
    }

    #[test]
    fn drain_reschedules_pods() {
        let c = small_cluster();
        c.create_deployment("svc", spec(), 4).unwrap();
        c.drain_node("n0").unwrap();
        assert_eq!(c.running_pods("svc").len(), 4);
        assert!(c.pods_on_node("n0").is_empty());
        assert_eq!(c.pods_on_node("n1").len(), 4);
        // Cordoned node is excluded from future scheduling.
        c.scale("svc", 5).unwrap_err(); // n1 only fits 4 pods
    }

    #[test]
    fn drain_unknown_node_errors() {
        let c = small_cluster();
        assert!(matches!(
            c.drain_node("ghost"),
            Err(ClusterError::NoSuchNode(_))
        ));
    }

    #[test]
    fn petrelkube_has_14_nodes() {
        let c = Cluster::petrelkube();
        assert_eq!(c.nodes().len(), 14);
        let (_, total) = c.cpu_utilization();
        assert_eq!(total, 14 * 32_000);
    }

    #[test]
    fn running_pods_order_is_stable() {
        let c = small_cluster();
        let created = c.create_deployment("svc", spec(), 3).unwrap();
        let listed: Vec<PodId> = c.running_pods("svc").iter().map(|p| p.id).collect();
        assert_eq!(created, listed);
    }
}
