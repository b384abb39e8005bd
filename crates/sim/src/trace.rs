//! Waveform capture: per-cycle net snapshots and VCD export.
//!
//! Debugging a bit-serial DA pipeline without waveforms is miserable; this
//! gives the simulator the standard EDA answer. Snapshots are taken at the
//! end of every cycle (post-settle values, the ones registers latched).

use std::fmt::Write as _;

use dsra_core::netlist::Netlist;

/// A recorded waveform: one row of net values per simulated cycle.
#[derive(Debug, Clone, Default)]
pub struct Waveform {
    names: Vec<(String, u8)>,
    rows: Vec<Vec<u64>>,
}

impl Waveform {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        Waveform {
            names: netlist
                .nets()
                .iter()
                .map(|n| (n.name.clone(), n.width))
                .collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn capture(&mut self, values: impl Iterator<Item = u64>) {
        self.rows.push(values.collect());
    }

    /// Number of recorded cycles.
    pub fn cycles(&self) -> usize {
        self.rows.len()
    }

    /// Value of net `index` at `cycle`.
    pub fn value(&self, cycle: usize, index: usize) -> Option<u64> {
        self.rows.get(cycle).and_then(|r| r.get(index)).copied()
    }

    /// Renders the waveform as a VCD document (IEEE 1364 value-change dump),
    /// loadable by GTKWave and friends.
    pub fn to_vcd(&self, design: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date dsra-sim $end");
        let _ = writeln!(out, "$version dsra-sim 0.1 $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize(design));
        for (i, (name, width)) in self.names.iter().enumerate() {
            let _ = writeln!(
                out,
                "$var wire {} {} {} $end",
                width,
                ident(i),
                sanitize(name)
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let mut last: Vec<Option<u64>> = vec![None; self.names.len()];
        for (t, row) in self.rows.iter().enumerate() {
            let mut emitted_time = false;
            for (i, &v) in row.iter().enumerate() {
                if last[i] != Some(v) {
                    if !emitted_time {
                        let _ = writeln!(out, "#{t}");
                        emitted_time = true;
                    }
                    let width = self.names[i].1;
                    if width == 1 {
                        let _ = writeln!(out, "{}{}", v & 1, ident(i));
                    } else {
                        let _ = writeln!(out, "b{:b} {}", v, ident(i));
                    }
                    last[i] = Some(v);
                }
            }
        }
        out
    }
}

/// VCD identifier for variable `i` (printable-ASCII base-94 encoding).
fn ident(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let id = ident(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id), "collision at {i}");
        }
    }

    #[test]
    fn sanitize_strips_dots() {
        assert_eq!(sanitize("sr0.q"), "sr0_q");
    }
}
