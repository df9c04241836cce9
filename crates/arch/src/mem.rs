//! Banked register file, scratchpad, and DMA models.
//!
//! REASON's RTE reads operands from dual-port banked SRAM through the
//! Benes crossbar and writes results back one-bank-per-PE (paper
//! Sec. V-C). The register-file model tracks per-cycle port conflicts
//! (the quantity the compiler's conflict-aware bank mapping minimizes)
//! and implements the automatic lowest-free write-address policy the
//! paper describes.

use serde::{Deserialize, Serialize};

/// A (bank, address) register-file location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankAddr {
    /// Bank index.
    pub bank: u16,
    /// Word address within the bank.
    pub addr: u16,
}

impl BankAddr {
    /// Creates a location.
    pub(crate) fn new(bank: usize, addr: usize) -> Self {
        BankAddr { bank: bank as u16, addr: addr as u16 }
    }
}

/// Access statistics of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Register reads served.
    pub reads: u64,
    /// Register writes served.
    pub writes: u64,
    /// Extra cycles lost to same-cycle bank port conflicts.
    pub conflict_cycles: u64,
    /// DMA transfers issued.
    pub dma_transfers: u64,
    /// Bytes moved by DMA.
    pub dma_bytes: u64,
}

/// The banked register file with dual-port banks and automatic write
/// addressing.
///
/// Registers live in one bank-major array (`bank * regs_per_bank +
/// addr`). The live count of every bank and their sum are kept up to
/// date by [`alloc_write`](Self::alloc_write),
/// `write_at` and [`free`](Self::free), so register
/// pressure is read off in O(1) instead of recounted from the bitmap.
#[derive(Debug, Clone)]
pub struct RegisterBanks {
    num_banks: usize,
    regs_per_bank: usize,
    values: Vec<f64>,
    /// Occupancy bitmap, same layout as `values`.
    occupied: Vec<bool>,
    /// Set bits of `occupied` per bank.
    live: Vec<usize>,
    /// Sum of `live`.
    live_total: usize,
    /// Reads per bank within one [`conflict_penalty`](Self::conflict_penalty)
    /// call; all zero between calls.
    port_reads: Vec<u64>,
    stats: MemoryStats,
}

impl RegisterBanks {
    /// Creates an empty register file.
    pub fn new(num_banks: usize, regs_per_bank: usize) -> Self {
        RegisterBanks {
            num_banks,
            regs_per_bank,
            values: vec![0.0; num_banks * regs_per_bank],
            occupied: vec![false; num_banks * regs_per_bank],
            live: vec![0; num_banks],
            live_total: 0,
            port_reads: vec![0; num_banks],
            stats: MemoryStats::default(),
        }
    }

    /// Accumulated statistics.
    #[cfg(test)]
    fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// The occupancy bits of one bank.
    fn bank_bits(&self, bank: usize) -> &[bool] {
        &self.occupied[bank * self.regs_per_bank..(bank + 1) * self.regs_per_bank]
    }

    /// Index of `at` in the bank-major arrays.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range locations (an unchecked address would
    /// alias a register of the next bank).
    fn slot(&self, at: BankAddr) -> usize {
        assert!((at.bank as usize) < self.num_banks, "bank out of range");
        assert!((at.addr as usize) < self.regs_per_bank, "address out of range");
        at.bank as usize * self.regs_per_bank + at.addr as usize
    }

    /// Marks `at` occupied or free and returns its index, keeping the
    /// live counts equal to the bitmap whatever the register held before.
    fn set_occupied(&mut self, at: BankAddr, occupied: bool) -> usize {
        let slot = self.slot(at);
        let bank = at.bank as usize;
        if self.occupied[slot] != occupied {
            self.occupied[slot] = occupied;
            if occupied {
                self.live[bank] += 1;
                self.live_total += 1;
            } else {
                self.live[bank] -= 1;
                self.live_total -= 1;
            }
        }
        debug_assert_eq!(self.live[bank], self.bank_bits(bank).iter().filter(|&&o| o).count());
        debug_assert_eq!(self.live_total, self.live.iter().sum::<usize>());
        slot
    }

    /// Writes `value` at the lowest free address of `bank` (the paper's
    /// automatic write-address generation), returning the location.
    ///
    /// # Panics
    ///
    /// Panics if the bank is full or out of range.
    pub fn alloc_write(&mut self, bank: usize, value: f64) -> BankAddr {
        let at = self
            .peek_write_addr(bank)
            .unwrap_or_else(|| panic!("bank {bank} is full (register spill required)"));
        self.write_at(at, value);
        at
    }

    /// Predicts the location [`alloc_write`](Self::alloc_write) would use
    /// for `bank` without performing the write — the compiler-side mirror
    /// of automatic write addressing.
    ///
    /// # Panics
    ///
    /// Panics if the bank is out of range.
    fn peek_write_addr(&self, bank: usize) -> Option<BankAddr> {
        assert!(bank < self.num_banks, "bank out of range");
        self.bank_bits(bank).iter().position(|&o| !o).map(|addr| BankAddr::new(bank, addr))
    }

    /// Writes to an explicit location (program loads, spill restores).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range locations.
    pub(crate) fn write_at(&mut self, at: BankAddr, value: f64) {
        let slot = self.set_occupied(at, true);
        self.values[slot] = value;
        self.stats.writes += 1;
    }

    /// Reads a location.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or unoccupied locations.
    pub(crate) fn read(&mut self, at: BankAddr) -> f64 {
        let slot = self.slot(at);
        assert!(self.occupied[slot], "read of unwritten register {at:?}");
        self.stats.reads += 1;
        self.values[slot]
    }

    /// Frees a location for reuse (end of live range). Freeing a
    /// location that holds nothing changes nothing.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range locations.
    pub fn free(&mut self, at: BankAddr) {
        self.set_occupied(at, false);
    }

    /// Extra cycles needed to serve a set of same-cycle reads given
    /// dual-port banks: `max over banks of ceil(reads_in_bank / 2) - 1`.
    ///
    /// Records the conflict penalty in the statistics.
    pub(crate) fn conflict_penalty(&mut self, reads: &[BankAddr]) -> u64 {
        let mut busiest = 0u64;
        for r in reads {
            let n = &mut self.port_reads[r.bank as usize];
            *n += 1;
            busiest = busiest.max(*n);
        }
        for r in reads {
            self.port_reads[r.bank as usize] = 0;
        }
        let penalty = busiest.div_ceil(2).saturating_sub(1);
        self.stats.conflict_cycles += penalty;
        penalty
    }

    /// Live register count per bank (register-pressure diagnostics).
    pub fn occupancy(&self) -> &[usize] {
        &self.live
    }

    /// Live registers across all banks.
    pub fn live_registers(&self) -> usize {
        self.live_total
    }
}

/// DMA / prefetcher latency model: a fixed issue latency plus a
/// bandwidth-limited transfer term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmaModel {
    /// Issue + DRAM access latency in cycles (LPDDR5-class, ~100 ns at
    /// 500 MHz ⇒ ~50 cycles).
    pub latency_cycles: u64,
    /// Bytes delivered per cycle (104 GB/s at 500 MHz ≈ 208 B/cycle).
    pub bytes_per_cycle: f64,
}

impl DmaModel {
    /// The paper platform's DMA: LPDDR5 at 104 GB/s, 500 MHz core.
    pub(crate) fn paper() -> Self {
        DmaModel { latency_cycles: 50, bytes_per_cycle: 208.0 }
    }

    /// Cycles to move `bytes` from DRAM.
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.latency_cycles + (bytes as f64 / self.bytes_per_cycle).ceil() as u64
    }
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_addressing_uses_lowest_free() {
        let mut rf = RegisterBanks::new(4, 4);
        let a = rf.alloc_write(1, 1.0);
        let b = rf.alloc_write(1, 2.0);
        assert_eq!(a, BankAddr::new(1, 0));
        assert_eq!(b, BankAddr::new(1, 1));
        rf.free(a);
        let c = rf.alloc_write(1, 3.0);
        assert_eq!(c, BankAddr::new(1, 0), "freed slot is reused first");
        assert_eq!(rf.read(c), 3.0);
        assert_eq!(rf.read(b), 2.0);
    }

    #[test]
    fn peek_matches_alloc() {
        let mut rf = RegisterBanks::new(2, 4);
        let predicted = rf.peek_write_addr(0).unwrap();
        let actual = rf.alloc_write(0, 5.0);
        assert_eq!(predicted, actual);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overflow_panics() {
        let mut rf = RegisterBanks::new(1, 2);
        rf.alloc_write(0, 1.0);
        rf.alloc_write(0, 2.0);
        rf.alloc_write(0, 3.0);
    }

    #[test]
    fn dual_port_conflicts() {
        let mut rf = RegisterBanks::new(4, 8);
        // Two reads in one bank: dual ports cover it.
        let reads = vec![BankAddr::new(0, 0), BankAddr::new(0, 1)];
        assert_eq!(rf.conflict_penalty(&reads), 0);
        // Four reads in one bank: one extra cycle.
        let reads: Vec<BankAddr> = (0..4).map(|a| BankAddr::new(0, a)).collect();
        assert_eq!(rf.conflict_penalty(&reads), 1);
        // Spread across banks: free.
        let reads: Vec<BankAddr> = (0..4).map(|b| BankAddr::new(b, 0)).collect();
        assert_eq!(rf.conflict_penalty(&reads), 0);
        assert_eq!(rf.stats().conflict_cycles, 1);
    }

    #[test]
    fn live_counts_follow_allocs_and_frees() {
        let mut rf = RegisterBanks::new(2, 4);
        let a = rf.alloc_write(0, 1.0);
        let b = rf.alloc_write(1, 2.0);
        rf.write_at(BankAddr::new(1, 3), 3.0);
        assert_eq!(rf.occupancy(), [1, 2]);
        assert_eq!(rf.live_registers(), 3);
        rf.free(a);
        rf.free(b);
        assert_eq!(rf.occupancy(), [0, 1]);
        assert_eq!(rf.live_registers(), 1);
    }

    #[test]
    fn freeing_an_unoccupied_location_keeps_the_counts() {
        let mut rf = RegisterBanks::new(2, 4);
        let a = rf.alloc_write(0, 1.0);
        rf.free(BankAddr::new(0, 2));
        rf.free(BankAddr::new(1, 0));
        assert_eq!(rf.occupancy(), [1, 0]);
        rf.free(a);
        rf.free(a);
        assert_eq!(rf.occupancy(), [0, 0]);
        assert_eq!(rf.live_registers(), 0);
        assert_eq!(rf.alloc_write(0, 2.0), a, "a double free does not lose the slot");
    }

    #[test]
    fn overwriting_an_occupied_location_keeps_the_counts() {
        let mut rf = RegisterBanks::new(2, 4);
        let at = BankAddr::new(1, 2);
        rf.write_at(at, 1.0);
        rf.write_at(at, 2.0);
        assert_eq!(rf.occupancy(), [0, 1]);
        assert_eq!(rf.live_registers(), 1);
        assert_eq!(rf.read(at), 2.0);
        let a = rf.alloc_write(0, 3.0);
        rf.write_at(a, 4.0);
        assert_eq!(rf.occupancy(), [1, 1]);
        assert_eq!(rf.stats().writes, 4, "every write is still counted");
    }

    #[test]
    #[should_panic(expected = "address out of range")]
    fn an_address_past_the_bank_does_not_alias_the_next_bank() {
        let mut rf = RegisterBanks::new(2, 4);
        rf.write_at(BankAddr::new(1, 0), 1.0);
        let _ = rf.read(BankAddr::new(0, 4));
    }

    #[test]
    fn conflict_scratch_is_clean_between_calls() {
        let mut rf = RegisterBanks::new(4, 8);
        let crowded: Vec<BankAddr> = (0..6).map(|a| BankAddr::new(2, a)).collect();
        assert_eq!(rf.conflict_penalty(&crowded), 2);
        assert_eq!(rf.conflict_penalty(&crowded[..2]), 0, "earlier reads must not linger");
        assert_eq!(rf.conflict_penalty(&[]), 0);
    }

    #[test]
    fn dma_cycles_scale_with_bytes() {
        let dma = DmaModel::paper();
        let small = dma.transfer_cycles(64);
        let large = dma.transfer_cycles(64 * 1024);
        assert!(small >= dma.latency_cycles);
        assert!(large > small);
    }

    #[test]
    #[should_panic(expected = "unwritten")]
    fn reading_unwritten_register_panics() {
        let mut rf = RegisterBanks::new(2, 2);
        let _ = rf.read(BankAddr::new(0, 0));
    }
}
