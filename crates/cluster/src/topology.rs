//! Interconnect topologies: the Q2(c) interconnect description.
//!
//! Each surveyed system names its interconnect family; we model the three
//! the surveyed systems use:
//!
//! - **Fat-tree** (CEA, LRZ, CINECA, Tokyo Tech, JCAHPC, STFC): `arity`
//!   nodes per leaf switch.
//! - **3-D torus** (K computer's Tofu is a 6-D torus; we model the classic
//!   3-D case).
//! - **Dragonfly** (Cray XC at KAUST and Trinity): routers of nodes,
//!   grouped.
//!
//! The engine places jobs first-fit and reads no topology; Q6's
//! topology-aware placement answer comes from each site's mechanism
//! taxonomy.

use serde::{Deserialize, Serialize};

/// An interconnect topology over a fixed number of nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// A k-ary fat-tree: `arity` nodes per leaf switch, `arity` child
    /// switches per parent, for as many levels as the node count needs.
    FatTree {
        /// Ports toward children per switch.
        arity: u32,
    },
    /// A 3-D torus with the given dimensions (x, y, z); nodes are mapped
    /// in row-major order. Node count must not exceed x·y·z.
    Torus3D {
        /// Dimension sizes.
        dims: (u32, u32, u32),
    },
    /// A dragonfly: `routers_per_group` routers of `nodes_per_router`
    /// nodes, any number of groups.
    Dragonfly {
        /// Nodes attached to one router.
        nodes_per_router: u32,
        /// Routers in one group.
        routers_per_group: u32,
    },
}
