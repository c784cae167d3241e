//! The per-worker scratch arena for best-response solves (DESIGN.md §11).
//!
//! One best response alternates DP appliance scheduling with a CE battery
//! step, `inner_iters` times, inside game rounds × customers × days ×
//! sweep points. Every buffer those kernels touch per iteration lives here,
//! so outside the CE battery step a warm [`ResponseWorkspace`] makes the
//! hot path allocation-free: the DP value/back-pointer tables
//! ([`DpWorkspace`]), the CE population ([`CeWorkspace`]), the hoisted
//! per-slot billing table ([`HoistedCostTable`]), and the response-level
//! series buffers. The plan itself (per-appliance energies and battery
//! trajectory) lives with the caller: the game engine keeps every
//! customer's plan across its rounds.
//!
//! # Lifecycle
//!
//! Hold one workspace per thread of execution and pass it to
//! [`best_response`](crate::best_response) for every solve: the
//! Gauss–Seidel game loop keeps a single workspace across all customers and
//! rounds. Buffers carry no state between solves — every solve fully
//! reinitializes the prefix it reads — so reuse is bit-identical to fresh
//! allocation (`tests/solver_workspace.rs` pins this byte-for-byte).

use nms_pricing::HoistedCostTable;

use crate::ce::CeWorkspace;
use crate::dp::DpWorkspace;

/// Reusable scratch arena for [`best_response`](crate::best_response).
///
/// Hold one per thread of execution and pass it to every solve. Buffers
/// carry no state between solves, so reuse is bit-identical to fresh
/// allocation. A default-built workspace is empty; buffers grow to the
/// largest customer seen and stay warm from then on.
#[derive(Debug, Clone, Default)]
pub struct ResponseWorkspace {
    /// DP value/back-pointer tables.
    pub(crate) dp: DpWorkspace,
    /// CE population/elite buffers for the battery step.
    pub(crate) ce: CeWorkspace,
    /// Per-slot billing terms hoisted once per response.
    pub(crate) table: HoistedCostTable,
    /// Running sum of the appliance lanes already rescheduled in the
    /// current DP sweep.
    pub(crate) prefix: Vec<f64>,
    /// Fixed per-slot trading base seen by the appliance under reschedule
    /// (written on its window only).
    pub(crate) base: Vec<f64>,
    /// Battery contribution to own trading (`b^{h+1} − b^h`).
    pub(crate) battery_delta: Vec<f64>,
    /// The customer's PV generation per slot.
    pub(crate) generation: Vec<f64>,
    /// Total appliance + base load per slot.
    pub(crate) load: Vec<f64>,
    /// The trading lane `y^h` of the last response's plan.
    pub(crate) trading: Vec<f64>,
    /// Previous-trajectory warm start (interior `b¹..b^H`).
    pub(crate) warm_prev: Vec<f64>,
    /// Coordinate-descent sweep candidate (interior `b¹..b^H`).
    pub(crate) swept: Vec<f64>,
}

impl ResponseWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
