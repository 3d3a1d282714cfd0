//! Reference model of `IncidenceMatrix::nonnegative_kernel`: the Farkas
//! elimination as first written, with linear-scan deduplication, cloned
//! rows and a truncation only after each column. The optimized kernel must
//! return exactly what this returns, order included, on every net whose
//! combinations fit in `i64` (this model overflows on the others).

use dmps_petri::analysis::IncidenceMatrix;
use dmps_petri::{PlaceId, TransitionId};

pub fn nonnegative_kernel(inc: &IncidenceMatrix) -> Vec<Vec<u64>> {
    // Farkas algorithm: maintain a table [D | B], D initialised to C and
    // B to the identity; eliminate one column of D at a time by forming
    // non-negative combinations of rows with opposite signs.
    let n = inc.rows();
    let m = inc.cols();
    // Each row: (d: Vec<i64> of len m, b: Vec<i64> of len n)
    let mut table: Vec<(Vec<i64>, Vec<i64>)> = (0..n)
        .map(|i| {
            let d: Vec<i64> = (0..m)
                .map(|j| inc.entry(PlaceId(i), TransitionId(j)))
                .collect();
            let mut b = vec![0i64; n];
            b[i] = 1;
            (d, b)
        })
        .collect();

    for col in 0..m {
        let mut next: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        // Keep rows with zero in this column.
        for row in &table {
            if row.0[col] == 0 {
                next.push(row.clone());
            }
        }
        // Combine rows with opposite signs.
        let positives: Vec<&(Vec<i64>, Vec<i64>)> = table.iter().filter(|r| r.0[col] > 0).collect();
        let negatives: Vec<&(Vec<i64>, Vec<i64>)> = table.iter().filter(|r| r.0[col] < 0).collect();
        for p in &positives {
            for q in &negatives {
                let a = p.0[col];
                let b = -q.0[col];
                let g = gcd(a as u64, b as u64) as i64;
                let (ca, cb) = (b / g, a / g);
                let d: Vec<i64> =
                    p.0.iter()
                        .zip(q.0.iter())
                        .map(|(x, y)| ca * x + cb * y)
                        .collect();
                let bv: Vec<i64> =
                    p.1.iter()
                        .zip(q.1.iter())
                        .map(|(x, y)| ca * x + cb * y)
                        .collect();
                // Normalize D and B *jointly* so the row combination they
                // describe stays consistent.
                let row = normalize_row(d, bv);
                if !next.contains(&row) {
                    next.push(row);
                }
            }
        }
        table = next;
        // Guard against combinatorial blow-up on pathological nets.
        if table.len() > 4096 {
            table.truncate(4096);
        }
    }

    let mut result: Vec<Vec<u64>> = Vec::new();
    for (_, b) in table {
        if b.iter().all(|&x| x == 0) {
            continue;
        }
        let v: Vec<u64> = b.iter().map(|&x| x.max(0) as u64).collect();
        if !result.contains(&v) {
            result.push(v);
        }
    }
    result
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

/// Divides a combined Farkas row (its D part and its B part) by the greatest
/// common divisor of *all* its entries, keeping the two parts consistent.
fn normalize_row(d: Vec<i64>, b: Vec<i64>) -> (Vec<i64>, Vec<i64>) {
    let g = d
        .iter()
        .chain(b.iter())
        .filter(|&&x| x != 0)
        .fold(0u64, |acc, &x| gcd(acc, x.unsigned_abs()));
    if g <= 1 {
        (d, b)
    } else {
        (
            d.into_iter().map(|x| x / g as i64).collect(),
            b.into_iter().map(|x| x / g as i64).collect(),
        )
    }
}
