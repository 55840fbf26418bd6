//! The O(n³) Hungarian algorithm (shortest-augmenting-path formulation).

use crate::matrix::WeightMatrix;

/// The result of solving an assignment problem.
///
/// Every row (when `rows <= cols`) or every column (when `cols < rows`) of
/// the weight matrix is matched; vertices on the larger side may stay
/// unmatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub(crate) row_to_col: Vec<Option<usize>>,
    /// Sum of weights over matched pairs.
    pub total_weight: i64,
}

impl Assignment {
    /// The column matched to `row`, if any.
    pub fn col_of_row(&self, row: usize) -> Option<usize> {
        self.row_to_col.get(row).copied().flatten()
    }

    /// All matched `(row, col)` pairs in row order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|c| (r, c)))
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.row_to_col.iter().flatten().count()
    }

    /// Whether nothing is matched (never true for valid inputs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Finds a maximum-weight assignment matching every vertex of the smaller
/// side of `weights`.
///
/// Runs in O(`n²·m`) time for an `n × m` matrix (`n ≤ m` after an internal
/// transpose), the classic Kuhn–Munkres bound the paper cites for its device
/// mapper (§3.3).
///
/// Note this maximizes the weight of a matching that *saturates the smaller
/// side* — exactly the paper's setting, where every mesh position must
/// receive a device (or every device a position when positions are scarce).
///
/// # Example
///
/// ```
/// use kmatch::{max_weight_assignment, WeightMatrix};
/// let w = WeightMatrix::from_rows(&[
///     vec![7, 5, 11],
///     vec![5, 4, 1],
/// ]);
/// let a = max_weight_assignment(&w);
/// assert_eq!(a.total_weight, 11 + 5);
/// ```
pub fn max_weight_assignment(weights: &WeightMatrix) -> Assignment {
    let (rows, cols) = (weights.rows(), weights.cols());
    let mut km = KmScratch::default();
    let mut row_to_col = vec![None; rows];
    if rows > cols {
        // Solve the transposed problem and flip the mapping back.
        km.solve(cols, rows, |i, j| weights.get(j, i));
        for (r, &c) in km.p[1..].iter().enumerate() {
            if c != 0 {
                row_to_col[r] = Some(c - 1);
            }
        }
    } else {
        km.solve(rows, cols, |i, j| weights.get(i, j));
        for (c, &r) in km.p[1..].iter().enumerate() {
            if r != 0 {
                row_to_col[r - 1] = Some(c);
            }
        }
    }
    let total_weight = row_to_col
        .iter()
        .enumerate()
        .filter_map(|(r, c)| c.map(|c| weights.get(r, c)))
        .sum();
    Assignment {
        row_to_col,
        total_weight,
    }
}

/// Reusable working memory for repeated assignment problems.
///
/// [`max_weight_assignment`] allocates its potentials and path buffers on
/// every call. A caller solving many small problems in a row (the device
/// mapper prices every instance × position-group cell with an inner
/// matching) keeps one `KmScratch` and asks it for optimal totals only,
/// allocating nothing once the buffers have grown to the largest problem.
///
/// # Example
///
/// ```
/// use kmatch::{max_weight_assignment, KmScratch, WeightMatrix};
///
/// let rows = [vec![7, 5, 11], vec![5, 4, 1]];
/// let mut km = KmScratch::default();
/// assert_eq!(km.max_weight_total(2, 3, &[7, 5, 11, 5, 4, 1]), 16);
/// let a = max_weight_assignment(&WeightMatrix::from_rows(&rows));
/// assert_eq!(a.total_weight, 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KmScratch {
    u: Vec<i64>,
    v: Vec<i64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<i64>,
    used: Vec<bool>,
}

impl KmScratch {
    /// The optimal total of the `rows × cols` problem whose weights are
    /// `weights` in row-major order: the same value as
    /// [`max_weight_assignment`]`(..).total_weight`, which is unique even
    /// when several matchings attain it.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `weights` is not
    /// `rows · cols` long.
    pub fn max_weight_total(&mut self, rows: usize, cols: usize, weights: &[i64]) -> i64 {
        assert!(rows > 0 && cols > 0, "empty weight matrix");
        assert_eq!(weights.len(), rows * cols, "weights are not rows x cols");
        if rows > cols {
            self.solve(cols, rows, |i, j| weights[j * cols + i]);
            self.p[1..]
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(r, &c)| weights[r * cols + c - 1])
                .sum()
        } else {
            self.solve(rows, cols, |i, j| weights[i * cols + j]);
            self.p[1..]
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r != 0)
                .map(|(c, &r)| weights[(r - 1) * cols + c])
                .sum()
        }
    }

    /// The shortest-augmenting-path Hungarian method on an `n × m` problem
    /// (`n ≤ m`) with 0-indexed weights `weight(i, j)`. Leaves the
    /// matching in `p`: `p[j]` (1-indexed) is the row matched to column
    /// `j`, or 0 when the column stays unmatched.
    fn solve(&mut self, n: usize, m: usize, weight: impl Fn(usize, usize) -> i64) {
        debug_assert!(n <= m, "solve expects rows <= cols");
        const INF: i64 = i64::MAX / 4;

        // Minimize cost = -weight. 1-indexed potentials as in the classic
        // formulation: u over rows, v over columns, p[j] = row matched to j.
        let cost = |i: usize, j: usize| -> i64 { -weight(i - 1, j - 1) };
        fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) -> &mut [T] {
            buf.clear();
            buf.resize(len, value);
            buf
        }
        let u = reset(&mut self.u, n + 1, 0);
        let v = reset(&mut self.v, m + 1, 0);
        let p = reset(&mut self.p, m + 1, 0);
        let way = reset(&mut self.way, m + 1, 0);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let minv = reset(&mut self.minv, m + 1, INF);
            let used = reset(&mut self.used, m + 1, false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost(i0, j) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Unwind the augmenting path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_by_one() {
        let a = max_weight_assignment(&WeightMatrix::from_rows(&[vec![-3]]));
        assert_eq!(a.total_weight, -3);
        assert_eq!(a.col_of_row(0), Some(0));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn square_known_answer() {
        // Classic example: optimal is 5 + 8 + 4 = anti-diagonal-ish.
        let w = WeightMatrix::from_rows(&[vec![1, 2, 5], vec![8, 2, 1], vec![1, 4, 1]]);
        let a = max_weight_assignment(&w);
        assert_eq!(a.total_weight, 5 + 8 + 4);
        assert_eq!(a.col_of_row(0), Some(2));
        assert_eq!(a.col_of_row(1), Some(0));
        assert_eq!(a.col_of_row(2), Some(1));
    }

    #[test]
    fn wide_matrix_leaves_columns_unmatched() {
        let w = WeightMatrix::from_rows(&[vec![1, 9, 2, 3]]);
        let a = max_weight_assignment(&w);
        assert_eq!(a.total_weight, 9);
        assert_eq!(a.pairs().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn tall_matrix_leaves_rows_unmatched() {
        let w = WeightMatrix::from_rows(&[vec![1], vec![9], vec![2]]);
        let a = max_weight_assignment(&w);
        assert_eq!(a.total_weight, 9);
        assert_eq!(a.pairs().collect::<Vec<_>>(), vec![(1, 0)]);
        assert_eq!(a.col_of_row(0), None);
        assert_eq!(a.col_of_row(2), None);
    }

    #[test]
    fn negative_weights_still_perfect_on_small_side() {
        let w = WeightMatrix::from_rows(&[vec![-5, -1], vec![-2, -7]]);
        let a = max_weight_assignment(&w);
        // Must match both rows; best total is -1 + -2 = -3.
        assert_eq!(a.total_weight, -3);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn duplicate_weights_are_fine() {
        let w = WeightMatrix::from_fn(6, 6, |_, _| 7);
        let a = max_weight_assignment(&w);
        assert_eq!(a.total_weight, 42);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn large_identity_prefers_diagonal() {
        let n = 64;
        let w = WeightMatrix::from_fn(n, n, |r, c| if r == c { 1000 } else { 1 });
        let a = max_weight_assignment(&w);
        assert_eq!(a.total_weight, 1000 * n as i64);
        for r in 0..n {
            assert_eq!(a.col_of_row(r), Some(r));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = WeightMatrix> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-1000i64..1000, r * c)
                .prop_map(move |data| WeightMatrix::from_fn(r, c, |i, j| data[i * c + j]))
        })
    }

    proptest! {
        #[test]
        fn assignment_is_valid_matching(w in arb_matrix(8)) {
            let a = max_weight_assignment(&w);
            // Smaller side fully matched.
            prop_assert_eq!(a.len(), w.rows().min(w.cols()));
            // Injective both ways.
            let mut cols: Vec<usize> = a.pairs().map(|(_, c)| c).collect();
            cols.sort_unstable();
            cols.dedup();
            prop_assert_eq!(cols.len(), a.len());
            // total matches the sum over pairs.
            let sum: i64 = a.pairs().map(|(r, c)| w.get(r, c)).sum();
            prop_assert_eq!(sum, a.total_weight);
        }

        #[test]
        fn invariant_under_transpose(w in arb_matrix(6)) {
            let a = max_weight_assignment(&w);
            let b = max_weight_assignment(&w.transposed());
            prop_assert_eq!(a.total_weight, b.total_weight);
        }
    }
}
