//! Glue between the grid executor and the persistent result cache
//! (`jsmt-cache`): key construction and value encoding. The same value
//! bytes travel over the shard protocol.
//!
//! A cache key must capture *everything* a cell's bytes depend on. For
//! jsmt cells that is the experiment context (scale, repeats, seed) plus
//! the simulator itself: two builds whose simulation semantics differ
//! must never share entries. The latter is folded in as [`CACHE_EPOCH`],
//! bumped whenever a change alters any cell's output — the golden-CSV
//! tests are the tripwire that reminds an author to do so.

use jsmt_cache::CacheKey;
use jsmt_snapshot::{Reader, SnapshotError, Writer};
use jsmt_workloads::BenchmarkId;

use super::pairing::PairOutcome;
use super::ExperimentCtx;

/// Bump when a simulator or methodology change alters cell outputs, so
/// stale caches miss instead of serving results from a different model.
pub(crate) const CACHE_EPOCH: u32 = 1;

/// The configuration fingerprint folded into every cache key: epoch,
/// scale, repeats. (The seed is a key field of its own.)
pub(crate) fn fingerprint(ctx: &ExperimentCtx) -> u64 {
    let mut bytes = Vec::with_capacity(28);
    bytes.extend_from_slice(b"jsmt-cell");
    bytes.extend_from_slice(&CACHE_EPOCH.to_le_bytes());
    bytes.extend_from_slice(&ctx.scale.to_bits().to_le_bytes());
    bytes.extend_from_slice(&ctx.repeats.to_le_bytes());
    jsmt_snapshot::fnv64(&bytes)
}

/// Key of a solo HT-off baseline cell.
pub(crate) fn solo_key(id: BenchmarkId, ctx: &ExperimentCtx) -> CacheKey {
    CacheKey {
        fingerprint: fingerprint(ctx),
        workload: format!("solo:{}", id.name()),
        seed: ctx.seed,
    }
}

/// Key of an A+B co-run cell.
pub(crate) fn pair_key(a: BenchmarkId, b: BenchmarkId, ctx: &ExperimentCtx) -> CacheKey {
    CacheKey {
        fingerprint: fingerprint(ctx),
        workload: format!("pair:{}+{}", a.name(), b.name()),
        seed: ctx.seed,
    }
}

pub(crate) fn encode_solo(cycles: u64) -> Vec<u8> {
    cycles.to_le_bytes().to_vec()
}

pub(crate) fn decode_solo(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn write_outcome(w: &mut Writer, o: &PairOutcome) {
    w.put_u8(o.a.tag());
    w.put_u8(o.b.tag());
    w.put_f64(o.speedup_a);
    w.put_f64(o.speedup_b);
    w.put_f64(o.combined);
    w.put_f64(o.tc_mpki);
    w.put_u64(o.completions.0);
    w.put_u64(o.completions.1);
}

fn read_outcome(r: &mut Reader<'_>) -> Result<PairOutcome, SnapshotError> {
    let a = BenchmarkId::from_tag(r.get_u8()?)
        .ok_or(SnapshotError::Corrupt("unknown benchmark tag in grid cell"))?;
    let b = BenchmarkId::from_tag(r.get_u8()?)
        .ok_or(SnapshotError::Corrupt("unknown benchmark tag in grid cell"))?;
    Ok(PairOutcome {
        a,
        b,
        speedup_a: r.get_f64()?,
        speedup_b: r.get_f64()?,
        combined: r.get_f64()?,
        tc_mpki: r.get_f64()?,
        completions: (r.get_u64()?, r.get_u64()?),
    })
}

pub(crate) fn encode_pair(o: &PairOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    write_outcome(&mut w, o);
    w.into_bytes()
}

pub(crate) fn decode_pair(bytes: &[u8]) -> Option<PairOutcome> {
    let mut r = Reader::new(bytes);
    let o = read_outcome(&mut r).ok()?;
    r.expect_end().ok()?;
    Some(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_cells_and_configs() {
        let ctx = ExperimentCtx::quick();
        let full = ExperimentCtx::full();
        let k1 = pair_key(BenchmarkId::Compress, BenchmarkId::Db, &ctx);
        let k2 = pair_key(BenchmarkId::Db, BenchmarkId::Compress, &ctx);
        assert_ne!(k1, k2, "A+B and B+A are distinct cells");
        assert_ne!(
            k1.fingerprint,
            pair_key(BenchmarkId::Compress, BenchmarkId::Db, &full).fingerprint,
            "different configs must not share entries"
        );
        assert_ne!(
            solo_key(BenchmarkId::Compress, &ctx).workload,
            pair_key(BenchmarkId::Compress, BenchmarkId::Compress, &ctx).workload
        );
    }

    #[test]
    fn pair_value_round_trips_exactly() {
        let o = PairOutcome {
            a: BenchmarkId::Jess,
            b: BenchmarkId::Jack,
            speedup_a: 0.731_234_567_89,
            speedup_b: 0.698_765_432_1,
            combined: 1.430_000_000_99,
            tc_mpki: 12.345_678,
            completions: (7, 9),
        };
        let back = decode_pair(&encode_pair(&o)).expect("round trip");
        assert_eq!(back.a, o.a);
        assert_eq!(back.b, o.b);
        // Bit-exact: cached grids must be byte-identical to simulated ones.
        assert_eq!(back.speedup_a.to_bits(), o.speedup_a.to_bits());
        assert_eq!(back.speedup_b.to_bits(), o.speedup_b.to_bits());
        assert_eq!(back.combined.to_bits(), o.combined.to_bits());
        assert_eq!(back.tc_mpki.to_bits(), o.tc_mpki.to_bits());
        assert_eq!(back.completions, o.completions);

        assert_eq!(decode_solo(&encode_solo(0xDEAD_BEEF)), Some(0xDEAD_BEEF));
        assert_eq!(decode_solo(b"short"), None);
        assert!(decode_pair(b"not an outcome").is_none());
    }
}
