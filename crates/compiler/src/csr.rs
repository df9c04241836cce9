//! Compressed sparse rows: a list per row as one flat array plus row
//! start offsets, built in a counting pass and a fill pass.

/// Row `r`'s values are `values[starts[r]..starts[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    starts: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// Builds the table of `rows` rows from the `(row, value)` pairs that
    /// `pairs` hands to its callback. `pairs` runs twice (once to count,
    /// once to fill) and must emit the same pairs both times; each row
    /// keeps its values in emission order.
    pub(crate) fn build(rows: usize, mut pairs: impl FnMut(&mut dyn FnMut(usize, usize))) -> Csr {
        let mut starts = vec![0u32; rows + 1];
        pairs(&mut |row, _| starts[row + 1] += 1);
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        let mut values = vec![0u32; starts[rows] as usize];
        // `starts[row]` is the row's fill cursor; once every row is full
        // it holds the next row's start, so the offsets shift back by one.
        pairs(&mut |row, value| {
            values[starts[row] as usize] = value as u32;
            starts[row] += 1;
        });
        starts.copy_within(0..rows, 1);
        starts[0] = 0;
        Csr { starts, values }
    }

    /// Row `r`'s values in emission order.
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        &self.values[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// Every value, row after row.
    pub(crate) fn values(&self) -> &[u32] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_emission_order() {
        let pairs = [(2usize, 7usize), (0, 1), (2, 3), (2, 5), (0, 4)];
        let csr = Csr::build(4, |push| pairs.iter().for_each(|&(r, v)| push(r, v)));
        assert_eq!(csr.row(0), [1, 4]);
        assert_eq!(csr.row(1), [] as [u32; 0]);
        assert_eq!(csr.row(2), [7, 3, 5]);
        assert_eq!(csr.row(3), [] as [u32; 0]);
        assert_eq!(csr.values(), [1, 4, 7, 3, 5]);
    }
}
