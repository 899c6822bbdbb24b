//! Glue between the grid executor and the persistent result cache
//! (`jsmt-cache`): key construction and value encoding. The same value
//! bytes travel over the shard protocol.
//!
//! A cache key must capture *everything* a job's bytes depend on: its
//! cell (machine, processes, stop rule — see [`super::Cell::key`]), the
//! baselines a co-run's speedups divide by, and the simulator itself: two
//! builds whose simulation semantics differ must never share entries. The
//! latter is folded in as [`CACHE_EPOCH`], bumped whenever a change
//! alters any cell's output — the golden-CSV tests are the tripwire that
//! reminds an author to do so.

use jsmt_cache::CacheKey;
use jsmt_snapshot::{Reader, Writer};
use jsmt_workloads::BenchmarkId;

use super::pairing::PairOutcome;

/// Bump when a simulator or methodology change alters cell outputs, so
/// stale caches miss instead of serving results from a different model.
pub(crate) const CACHE_EPOCH: u32 = 1;

/// The key of a job labelled `label` whose value is read off the cell
/// keyed `cell` over the solo `baselines` (none for a solo job).
pub(crate) fn key(label: String, cell: u64, baselines: &[u64], seed: u64) -> CacheKey {
    let mut bytes = Vec::with_capacity(12 + 8 * baselines.len());
    bytes.extend_from_slice(&CACHE_EPOCH.to_le_bytes());
    bytes.extend_from_slice(&cell.to_le_bytes());
    for b in baselines {
        bytes.extend_from_slice(&b.to_le_bytes());
    }
    CacheKey {
        fingerprint: jsmt_snapshot::fnv64(&bytes),
        workload: label,
        seed,
    }
}

pub(crate) fn encode_solo(cycles: u64) -> Vec<u8> {
    cycles.to_le_bytes().to_vec()
}

pub(crate) fn decode_solo(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

pub(crate) fn encode_pair(o: &PairOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(o.a.tag());
    w.put_u8(o.b.tag());
    w.put_f64(o.speedup_a);
    w.put_f64(o.speedup_b);
    w.put_f64(o.combined);
    w.put_f64(o.tc_mpki);
    w.put_u64(o.completions.0);
    w.put_u64(o.completions.1);
    w.into_bytes()
}

pub(crate) fn decode_pair(bytes: &[u8]) -> Option<PairOutcome> {
    let mut r = Reader::new(bytes);
    let o = PairOutcome {
        a: BenchmarkId::from_tag(r.get_u8().ok()?)?,
        b: BenchmarkId::from_tag(r.get_u8().ok()?)?,
        speedup_a: r.get_f64().ok()?,
        speedup_b: r.get_f64().ok()?,
        combined: r.get_f64().ok()?,
        tc_mpki: r.get_f64().ok()?,
        completions: (r.get_u64().ok()?, r.get_u64().ok()?),
    };
    r.expect_end().ok()?;
    Some(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_cells_and_configs() {
        use super::super::grid::Job;
        use super::super::ExperimentCtx;

        let ctx = ExperimentCtx::quick();
        let full = ExperimentCtx::full();
        let pair = |a, b, a_solo| Job::Pair {
            a,
            b,
            a_solo,
            b_solo: 20,
        };
        let k1 = pair(BenchmarkId::Compress, BenchmarkId::Db, 10);
        assert_ne!(
            k1.key(&ctx),
            pair(BenchmarkId::Db, BenchmarkId::Compress, 10).key(&ctx),
            "A+B and B+A are distinct cells"
        );
        assert_ne!(
            k1.key(&ctx).fingerprint,
            k1.key(&full).fingerprint,
            "different configs must not share entries"
        );
        assert_ne!(
            k1.key(&ctx).fingerprint,
            pair(BenchmarkId::Compress, BenchmarkId::Db, 11)
                .key(&ctx)
                .fingerprint,
            "a co-run's key covers its baselines"
        );
        assert_ne!(
            Job::Solo(BenchmarkId::Compress).key(&ctx).fingerprint,
            pair(BenchmarkId::Compress, BenchmarkId::Compress, 10)
                .key(&ctx)
                .fingerprint
        );
        assert_eq!(k1.key(&ctx), k1.key(&ctx));
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
