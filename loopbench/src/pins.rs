//! Loop outcomes pinned per fleet, from `pins.tsv`.
//!
//! Every fleet is keyed by its machine count and fleet seed, so the
//! in-process paper loop and the served loop share one entry per fleet:
//! served and in-process runs, and traced and untraced runs, are
//! bit-identical. A fleet with no entry is checked by the other outcome
//! checks only.

use std::collections::HashMap;

/// What a fleet's loop must end with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub corruptions: u64,
    pub detections: u64,
}

pub struct Pins(HashMap<(u32, u64), Pinned>);

impl Pins {
    /// The table compiled into the benchmark. Lines are
    /// `machines fleet_seed corruptions detections`; `#` starts a comment.
    pub fn compiled() -> Pins {
        Pins::parse(include_str!("../pins.tsv")).expect("pins.tsv is well formed")
    }

    fn parse(text: &str) -> Result<Pins, String> {
        let mut map = HashMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<u64> = line
                .split_whitespace()
                .map(|x| x.parse().map_err(|e| format!("line {}: {e}", no + 1)))
                .collect::<Result<_, _>>()?;
            let [machines, seed, corruptions, detections] = f[..] else {
                return Err(format!("line {}: expected 4 fields", no + 1));
            };
            let machines = u32::try_from(machines).map_err(|e| format!("line {}: {e}", no + 1))?;
            map.insert(
                (machines, seed),
                Pinned {
                    corruptions,
                    detections,
                },
            );
        }
        Ok(Pins(map))
    }

    pub fn get(&self, machines: u32, fleet_seed: u64) -> Option<Pinned> {
        self.0.get(&(machines, fleet_seed)).copied()
    }
}
