//! Correctness checks on the daemon's replies. Each is a pure function of
//! what the clients saw and what an in-process replay computed, so the
//! tests below can feed it one altered reply and watch it fail.

/// One `locate` reply: which query was sent, what came back.
#[derive(Debug, Clone, Copy)]
pub struct Fix {
    pub query: u32,
    pub cell: u32,
    pub version: u64,
}

/// Every fix names the cell `expected(version, query)` names: the
/// in-process `TafLoc::localize` on the system the daemon served at that
/// version.
pub fn fixes_match(fixes: &[Fix], expected: impl Fn(u64, u32) -> usize) -> Result<(), String> {
    let mut wrong = 0usize;
    let mut first = None;
    for f in fixes {
        let want = expected(f.version, f.query);
        if f.cell as usize != want {
            wrong += 1;
            first.get_or_insert((f.query, f.version, f.cell, want));
        }
    }
    match first {
        None => Ok(()),
        Some((q, v, got, want)) => Err(format!(
            "{wrong} of {} fixes differ from the in-process replay (query {q} at version {v}: \
             cell {got}, replay {want})",
            fixes.len()
        )),
    }
}

/// Every fix was served by `version`.
pub fn single_version(fixes: &[Fix], version: u64) -> Result<(), String> {
    match fixes.iter().find(|f| f.version != version) {
        None => Ok(()),
        Some(f) => {
            Err(format!("query {} served by version {}, expected {version}", f.query, f.version))
        }
    }
}

/// Each step published exactly one new version: `versions[i] = start + i + 1`.
pub fn one_version_per_step(start: u64, versions: &[u64]) -> Result<(), String> {
    let mut prev = start;
    for (i, &v) in versions.iter().enumerate() {
        if v != prev + 1 {
            return Err(format!("step {} moved the version from {prev} to {v}", i + 1));
        }
        prev = v;
    }
    Ok(())
}

/// The daemon's per-refresh `(iterations, converged)` equals the replay's.
pub fn same_solves(live: &[(usize, bool)], replay: &[(usize, bool)]) -> Result<(), String> {
    if live.len() != replay.len() {
        return Err(format!("{} live refreshes, {} replayed", live.len(), replay.len()));
    }
    match live.iter().zip(replay).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "refresh {} ran {:?} (iterations, converged), the replay {:?}",
            i + 1,
            live[i],
            replay[i]
        )),
    }
}

/// Admission accounting for ingest, in samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Admission {
    pub offered: u64,
    pub admitted: u64,
    pub deferred: u64,
    pub rejected: u64,
}

/// Offered = admitted + deferred + rejected on both sides, and the server's
/// gate counted exactly what the clients saw.
pub fn admission_conserved(client: Admission, server: Admission) -> Result<(), String> {
    for (side, a) in [("client", client), ("server", server)] {
        if a.offered != a.admitted + a.deferred + a.rejected {
            return Err(format!("{side} offered {} samples but accounts for {a:?}", a.offered));
        }
    }
    if client != server {
        return Err(format!("client saw {client:?}, the server counted {server:?}"));
    }
    Ok(())
}

/// A counter that must stay at zero.
pub fn zero(what: &str, value: u64) -> Result<(), String> {
    if value == 0 {
        Ok(())
    } else {
        Err(format!("{what} = {value}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixes() -> Vec<Fix> {
        (0..50).map(|q| Fix { query: q, cell: q % 7, version: 3 }).collect()
    }

    fn truth(_: u64, q: u32) -> usize {
        (q % 7) as usize
    }

    #[test]
    fn a_wrong_cell_fails_the_fix_check() {
        assert!(fixes_match(&fixes(), truth).is_ok());
        let mut bad = fixes();
        bad[17].cell += 1;
        assert!(fixes_match(&bad, truth).is_err());
    }

    #[test]
    fn a_fix_from_another_version_fails_the_version_check() {
        assert!(single_version(&fixes(), 3).is_ok());
        let mut bad = fixes();
        bad[40].version = 4;
        assert!(single_version(&bad, 3).is_err());
    }

    #[test]
    fn a_skipped_version_fails() {
        assert!(one_version_per_step(0, &[1, 2, 3, 4]).is_ok());
        assert!(one_version_per_step(0, &[1, 2, 4, 5]).is_err());
    }

    #[test]
    fn a_missing_publish_fails() {
        assert!(one_version_per_step(5, &[6, 7, 7, 8]).is_err());
        assert!(one_version_per_step(5, &[]).is_ok());
    }

    #[test]
    fn a_different_solve_fails() {
        let live = [(38, true), (15, true), (10, false)];
        assert!(same_solves(&live, &live).is_ok());
        assert!(same_solves(&live, &[(38, true), (16, true), (10, false)]).is_err());
        assert!(same_solves(&live, &[(38, true), (15, true), (10, true)]).is_err());
        assert!(same_solves(&live, &live[..2]).is_err());
    }

    #[test]
    fn a_lost_sample_fails_admission() {
        let a = Admission { offered: 1000, admitted: 990, deferred: 10, rejected: 0 };
        assert!(admission_conserved(a, a).is_ok());
        let lost = Admission { admitted: 989, ..a };
        assert!(admission_conserved(lost, a).is_err());
        assert!(admission_conserved(a, lost).is_err());
        let miscounted = Admission { offered: 1001, admitted: 991, ..a };
        assert!(admission_conserved(a, miscounted).is_err());
    }

    #[test]
    fn a_nonzero_counter_fails() {
        assert!(zero("refresh_rejections", 0).is_ok());
        assert!(zero("refresh_rejections", 1).is_err());
    }
}
