//! The array backend: cycle-level simulated engines — the production path.

use std::collections::HashMap;

use dsra_core::error::Result;
use dsra_core::report::ExecOutcome;
use dsra_dct::{DaParams, DctImpl};
use dsra_me::{MeEngine, MeSearchResult, Plane, SearchParams, Systolic2d};
use dsra_video::JobSpec;

use crate::{run_payload, Backend, DctMapping, PayloadEngines};

/// One array's cycle-accurate execution engines, reused across serve calls:
/// netlist-backed DCT implementations keyed by mapping and fixed-point
/// parameters, and systolic ME engines keyed by block edge. Rebuilding these
/// per serve call would pay a netlist construction plus an execution-plan
/// compile per kernel per chunk — E12's chunked discharge loop used to pay
/// that hundreds of times over.
#[derive(Default)]
pub struct ArrayBackend {
    dct_impls: HashMap<(DctMapping, DaParams), Box<dyn DctImpl>>,
    me_engines: HashMap<u8, Systolic2d>,
}

impl PayloadEngines for ArrayBackend {
    fn dct(&mut self, params: DaParams, mapping: DctMapping) -> Result<&dyn DctImpl> {
        let boxed = match self.dct_impls.entry((mapping, params)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(mapping.build(params)?),
        };
        Ok(&**boxed)
    }

    fn me_search(
        &mut self,
        block: u8,
        cur: &Plane,
        reference: &Plane,
        bx: usize,
        by: usize,
        sp: &SearchParams,
    ) -> Result<MeSearchResult> {
        let eng = match self.me_engines.entry(block) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Systolic2d::new(usize::from(block))?)
            }
        };
        eng.search(cur, reference, bx, by, sp)
    }
}

impl Backend for ArrayBackend {
    fn name(&self) -> &'static str {
        "array"
    }

    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome> {
        run_payload(self, params, job, kernel_name)
    }
}
