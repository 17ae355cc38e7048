//! The `duckpt` checkpoint codec: the [`Checkpoint`] snapshot of an
//! [`AttackState`](crate::AttackState), its line-oriented text format
//! (grammar in DESIGN.md §8), and the instance hash that keys it.
//!
//! Parsing trusts nothing: every malformed document is a typed
//! [`CheckpointError::Malformed`] with its line number. What a
//! well-formed checkpoint claims about the attack is checked against the
//! live instance and oracle by
//! [`AttackState::resume`](crate::AttackState::resume).

use std::fmt;

use gf2::BitVec;
use netlist::Circuit;
use scanlock::LockSpec;
use sim::{ScanChain, ScanResponse};

use crate::robust::{Converged, DipRecord};

/// FNV-1a over the canonical instance description: circuit structure,
/// chain order, lock spec, capture count. Keys every checkpoint so a
/// resume against a different instance is rejected before any oracle
/// traffic.
pub(crate) fn instance_hash(
    circuit: &Circuit,
    chain: &ScanChain,
    spec: &LockSpec,
    captures: usize,
) -> u64 {
    let chain_order: Vec<usize> = (0..chain.len()).map(|pos| chain.dff_at(pos)).collect();
    let desc = format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{chain_order:?}|{spec:?}|{captures}",
        circuit.name(),
        circuit.inputs(),
        circuit.outputs(),
        circuit.gates(),
        circuit.num_dffs(),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in desc.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a checkpoint could not be parsed or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The bytes are not a well-formed `duckpt` document.
    Malformed {
        /// 1-based line where parsing failed.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The checkpoint was taken for a different instance (circuit, chain,
    /// spec, or captures differ).
    InstanceMismatch {
        /// Hash recorded in the checkpoint.
        expected: u64,
        /// Hash of the instance resume was called with.
        got: u64,
    },
    /// The live oracle answered a recorded DIP differently — the bench is
    /// not the chip this checkpoint came from (or noise exceeded the
    /// replication factor).
    OracleMismatch {
        /// Index of the first diverging DIP.
        dip: usize,
    },
    /// The oracle kept faulting while re-validating the checkpoint.
    OracleUnavailable,
    /// The recorded shape or a recorded vector length does not fit the
    /// instance, a recorded DIP contradicted the rebuilt model, or a
    /// converged checkpoint's free bits and seed do not fit the rebuilt
    /// mask basis — the checkpoint is corrupt or was tampered with.
    Inconsistent,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line, msg } => {
                write!(f, "malformed checkpoint at line {line}: {msg}")
            }
            CheckpointError::InstanceMismatch { expected, got } => {
                write!(
                    f,
                    "checkpoint is for instance {expected:016x}, not {got:016x}"
                )
            }
            CheckpointError::OracleMismatch { dip } => {
                write!(f, "live oracle contradicts recorded DIP {dip}")
            }
            CheckpointError::OracleUnavailable => {
                write!(f, "oracle kept faulting during checkpoint re-validation")
            }
            CheckpointError::Inconsistent => {
                write!(f, "checkpoint contradicts the rebuilt model")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Phase recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CkptPhase {
    Running,
    /// The converged free mask bits and the seed the mask basis maps
    /// them to.
    Converged(Converged),
}

/// A serialized attack snapshot: what the oracle said (every DIP and its
/// response), the run counters, and a converged run's free mask bits and
/// seed, keyed by the instance hash. Nothing the solver derived is kept:
/// [`AttackState::resume`](crate::AttackState::resume) replays the DIPs
/// into a fresh solver, given the instance itself (circuit, chain, spec)
/// and the oracle, which the resuming process supplies.
///
/// The byte format is a hand-rolled line-oriented text document (grammar
/// in DESIGN.md §8) — no serialization dependency, diffable, and stable
/// across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) instance: u64,
    pub(crate) width: usize,
    pub(crate) cells: usize,
    pub(crate) captures: usize,
    pub(crate) oracle_queries: usize,
    pub(crate) retries: u64,
    pub(crate) repaired_bits: u64,
    pub(crate) exhaustions: u32,
    pub(crate) dips: Vec<DipRecord>,
    pub(crate) phase: CkptPhase,
}

fn bits_to_str(bits: impl Iterator<Item = bool>) -> String {
    let s: String = bits.map(|b| if b { '1' } else { '0' }).collect();
    if s.is_empty() {
        "-".to_string()
    } else {
        s
    }
}

fn str_to_bits(s: &str) -> Option<Vec<bool>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

impl Checkpoint {
    /// The instance hash this checkpoint is keyed by.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// DIP rounds recorded.
    pub fn dip_count(&self) -> usize {
        self.dips.len()
    }

    /// Serializes to the `duckpt 2` text format.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "duckpt 2");
        let _ = writeln!(out, "instance {:016x}", self.instance);
        let _ = writeln!(
            out,
            "shape width {} cells {} captures {}",
            self.width, self.cells, self.captures
        );
        let _ = writeln!(
            out,
            "counters queries {} retries {} repaired {} exhaustions {}",
            self.oracle_queries, self.retries, self.repaired_bits, self.exhaustions
        );
        for d in &self.dips {
            let _ = writeln!(
                out,
                "dip {} {} {} {}",
                bits_to_str(d.pattern.iter().copied()),
                bits_to_str(d.pis.iter().copied()),
                bits_to_str(d.response.scan_out.iter().copied()),
                bits_to_str(d.response.po.iter().copied()),
            );
        }
        match &self.phase {
            CkptPhase::Running => {
                let _ = writeln!(out, "phase running");
            }
            CkptPhase::Converged(Converged { free, seed }) => {
                let _ = writeln!(out, "phase converged");
                let _ = writeln!(out, "free {}", bits_to_str(free.iter().copied()));
                let _ = writeln!(out, "seed {}", bits_to_str(seed.iter_bits()));
            }
        }
        let _ = writeln!(out, "end duckpt");
        out.into_bytes()
    }

    /// Parses a `duckpt 2` document.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] with the offending line on any
    /// structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|_| CheckpointError::Malformed {
            line: 1,
            msg: "not utf-8".into(),
        })?;
        let err = |line: usize, msg: &str| CheckpointError::Malformed {
            line,
            msg: msg.to_string(),
        };
        let mut instance = None;
        let mut shape: Option<(usize, usize, usize)> = None;
        let mut counters: Option<(usize, u64, u64, u32)> = None;
        let mut dips = Vec::new();
        let mut phase: Option<CkptPhase> = None;
        let mut free: Option<Vec<bool>> = None;
        let mut seed: Option<BitVec> = None;
        let mut ended = false;
        let mut seen: Vec<&str> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(err(lineno, "content after end marker"));
            }
            let mut fields = line.split_whitespace();
            let tag = fields.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = fields.collect();
            if matches!(
                tag,
                "instance" | "shape" | "counters" | "phase" | "free" | "seed"
            ) {
                if seen.contains(&tag) {
                    return Err(err(lineno, &format!("repeated {tag} line")));
                }
                seen.push(tag);
            }
            if matches!(tag, "free" | "seed") && !matches!(phase, Some(CkptPhase::Converged(_))) {
                return Err(err(
                    lineno,
                    &format!("{tag} line must follow phase converged"),
                ));
            }
            match tag {
                "duckpt" => {
                    if lineno != 1 || rest != ["2"] {
                        return Err(err(lineno, "expected header `duckpt 2`"));
                    }
                }
                "instance" => {
                    let [h] = rest[..] else {
                        return Err(err(lineno, "instance wants one hash"));
                    };
                    instance = Some(
                        u64::from_str_radix(h, 16).map_err(|_| err(lineno, "bad instance hash"))?,
                    );
                }
                "shape" => {
                    let ["width", w, "cells", n, "captures", c] = rest[..] else {
                        return Err(err(lineno, "bad shape line"));
                    };
                    let parse = |s: &str| {
                        s.parse::<usize>()
                            .map_err(|_| err(lineno, "bad shape number"))
                    };
                    shape = Some((parse(w)?, parse(n)?, parse(c)?));
                }
                "counters" => {
                    let ["queries", q, "retries", r, "repaired", b, "exhaustions", e] = rest[..]
                    else {
                        return Err(err(lineno, "bad counters line"));
                    };
                    counters = Some((
                        q.parse().map_err(|_| err(lineno, "bad queries"))?,
                        r.parse().map_err(|_| err(lineno, "bad retries"))?,
                        b.parse().map_err(|_| err(lineno, "bad repaired"))?,
                        e.parse().map_err(|_| err(lineno, "bad exhaustions"))?,
                    ));
                }
                "dip" => {
                    let [pat, pis, so, po] = rest[..] else {
                        return Err(err(lineno, "dip wants four bit strings"));
                    };
                    let parse = |s: &str| str_to_bits(s).ok_or_else(|| err(lineno, "bad bits"));
                    dips.push(DipRecord {
                        pattern: parse(pat)?,
                        pis: parse(pis)?,
                        response: ScanResponse {
                            scan_out: parse(so)?,
                            po: parse(po)?,
                        },
                    });
                }
                "phase" => match rest[..] {
                    ["running"] => phase = Some(CkptPhase::Running),
                    ["converged"] => {
                        phase = Some(CkptPhase::Converged(Converged {
                            free: Vec::new(),
                            seed: BitVec::zeros(0),
                        }));
                    }
                    _ => return Err(err(lineno, "phase must be running or converged")),
                },
                "free" => {
                    let [bits] = rest[..] else {
                        return Err(err(lineno, "free wants one bit string"));
                    };
                    free = Some(str_to_bits(bits).ok_or_else(|| err(lineno, "bad free bits"))?);
                }
                "seed" => {
                    let [bits] = rest[..] else {
                        return Err(err(lineno, "seed wants one bit string"));
                    };
                    seed = Some(BitVec::from_bools(
                        str_to_bits(bits).ok_or_else(|| err(lineno, "bad seed bits"))?,
                    ));
                }
                "end" => {
                    if rest != ["duckpt"] {
                        return Err(err(lineno, "bad end marker"));
                    }
                    ended = true;
                }
                _ => return Err(err(lineno, "unknown tag")),
            }
        }
        if !ended {
            return Err(err(text.lines().count().max(1), "missing end marker"));
        }
        let need = |line: usize, what: &str| err(line, &format!("missing {what} section"));
        let instance = instance.ok_or_else(|| need(1, "instance"))?;
        let (width, cells, captures) = shape.ok_or_else(|| need(1, "shape"))?;
        let (oracle_queries, retries, repaired_bits, exhaustions) =
            counters.ok_or_else(|| need(1, "counters"))?;
        let phase = match phase.ok_or_else(|| need(1, "phase"))? {
            CkptPhase::Running => CkptPhase::Running,
            CkptPhase::Converged(_) => {
                let free = free.ok_or_else(|| need(1, "free"))?;
                let seed = seed.ok_or_else(|| need(1, "seed"))?;
                if seed.len() != width || free.len() > width {
                    return Err(err(1, "seed/free inconsistent with width"));
                }
                CkptPhase::Converged(Converged { free, seed })
            }
        };
        Ok(Checkpoint {
            instance,
            width,
            cells,
            captures,
            oracle_queries,
            retries,
            repaired_bits,
            exhaustions,
            dips,
            phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A converged document complete but for its `free` line.
    const CONVERGED_WITHOUT_FREE: &str = "duckpt 2
instance 00
shape width 2 cells 1 captures 1
counters queries 0 retries 0 repaired 0 exhaustions 0
phase converged
seed 01
end duckpt
";

    #[test]
    fn malformed_checkpoints_are_rejected_with_line_numbers() {
        for (doc, want_line, why) in [
            ("", 1, "empty"),
            ("duckpt 3\nend duckpt\n", 1, "bad version"),
            ("duckpt 1\nend duckpt\n", 1, "old version"),
            ("duckpt 2\ninstance zz\nend duckpt\n", 2, "bad hash"),
            ("duckpt 2\nfrobnicate\nend duckpt\n", 2, "unknown tag"),
            ("duckpt 2\ninstance 00\n", 2, "missing end"),
            ("duckpt 2\nend duckpt\ntrailing\n", 3, "content after end"),
            (
                "duckpt 2\nlearnt 99999999999\nend duckpt\n",
                2,
                "learnt line, oversized literal",
            ),
            ("duckpt 2\nlearnt 1 0 2\nend duckpt\n", 2, "learnt line, zero literal"),
            (
                "duckpt 2\ninstance 00\nlearnt -1\nend duckpt\n",
                3,
                "learnt clause",
            ),
            (
                "duckpt 2\ninstance 00\nshape width 2 cells 1 captures 1\nproof x banana 0\nend duckpt\n",
                4,
                "proof line",
            ),
            (
                "duckpt 2\n\ninstance 00\n\nvars 0\nend duckpt\n",
                5,
                "variable count",
            ),
            (
                "duckpt 2\nphase converged\nfree 01x\nend duckpt\n",
                3,
                "bad free bits",
            ),
            (
                "duckpt 2\nphase converged\nfree 01 10\nend duckpt\n",
                3,
                "two free bit strings",
            ),
            (CONVERGED_WITHOUT_FREE, 1, "missing free"),
            (
                "duckpt 2\ninstance 00000000000000ab\ninstance 00000000000000cd\nend duckpt\n",
                3,
                "repeated instance",
            ),
            (
                "duckpt 2\nshape width 2 cells 1 captures 1\nshape width 2 cells 1 captures 1\n\
                 end duckpt\n",
                3,
                "repeated shape",
            ),
            (
                "duckpt 2\ncounters queries 0 retries 0 repaired 0 exhaustions 0\n\
                 counters queries 0 retries 0 repaired 0 exhaustions 0\nend duckpt\n",
                3,
                "repeated counters",
            ),
            (
                "duckpt 2\nphase running\nphase converged\nend duckpt\n",
                3,
                "repeated phase",
            ),
            (
                CONVERGED_WITHOUT_FREE
                    .replace("seed 01", "free 1\nfree 1\nseed 01")
                    .as_str(),
                7,
                "repeated free",
            ),
            (
                CONVERGED_WITHOUT_FREE.replace("seed 01", "free 1\nseed 01\nseed 01").as_str(),
                8,
                "repeated seed",
            ),
            (
                CONVERGED_WITHOUT_FREE.replace("converged", "running").as_str(),
                6,
                "seed under phase running",
            ),
            (
                CONVERGED_WITHOUT_FREE
                    .replace("converged", "running")
                    .replace("seed 01", "free 1")
                    .as_str(),
                6,
                "free under phase running",
            ),
            (
                CONVERGED_WITHOUT_FREE
                    .replace("phase converged\nseed 01", "seed 01\nphase converged")
                    .as_str(),
                5,
                "seed before phase converged",
            ),
        ] {
            match Checkpoint::from_bytes(doc.as_bytes()) {
                Err(CheckpointError::Malformed { line, .. }) => {
                    assert_eq!(line, want_line, "{why}: doc {doc:?}");
                }
                other => panic!("{why}: doc {doc:?} must be rejected, got {other:?}"),
            }
        }
        let with_free = CONVERGED_WITHOUT_FREE.replace("seed", "free 1\nseed");
        assert!(
            Checkpoint::from_bytes(with_free.as_bytes()).is_ok(),
            "only the free line was missing"
        );
    }
}
