//! Banked register file, scratchpad, and DMA models.
//!
//! REASON's RTE reads operands from dual-port banked SRAM through the
//! Benes crossbar and writes results back one-bank-per-PE (paper
//! Sec. V-C). The register-file model tracks per-cycle port conflicts
//! (the quantity the compiler's conflict-aware bank mapping minimizes)
//! and implements the automatic lowest-free write-address policy the
//! paper describes, on a bitmask of one bit per register: the lowest free
//! address of a bank is the `trailing_ones` of its first word that is not
//! full. A register location is a 16-bit bank and a 16-bit address, so a
//! register file has at most 65,536 banks of 65,536 registers.

use serde::{Deserialize, Serialize};

/// Banks in a register file, and registers in a bank, that a
/// [`BankAddr`] can name: each field is a `u16`.
pub(crate) const MAX_LOCATIONS: usize = 1 << 16;

/// A (bank, address) register-file location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankAddr {
    /// Bank index.
    pub bank: u16,
    /// Word address within the bank.
    pub addr: u16,
}

impl BankAddr {
    /// Creates a location. A register file has at most
    /// [`MAX_LOCATIONS`] banks of at most as many registers (checked by
    /// [`ArchConfig::validate`](crate::ArchConfig::validate) and
    /// [`RegisterBanks::new`]), so neither index truncates.
    pub(crate) fn new(bank: usize, addr: usize) -> Self {
        debug_assert!(bank < MAX_LOCATIONS && addr < MAX_LOCATIONS);
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
/// Register values live in one bank-major array (`bank * regs_per_bank +
/// addr`). Occupancy is a bitmask: each bank owns
/// `regs_per_bank.div_ceil(64)` `u64` words, bit `a % 64` of word
/// `a / 64` set while address `a` holds a live value, and the bits past
/// `regs_per_bank` in a bank's last word preset to occupied. The lowest
/// free address of a bank is therefore the `trailing_ones` of its first
/// word that is not all ones, and a full bank has none. The live count of
/// every bank and their sum are kept up to date by
/// [`alloc_write`](Self::alloc_write), `write_at` and
/// [`free`](Self::free), so register pressure is read off in O(1)
/// instead of recounted from the bitmask. The compiler's allocator mirror
/// and the executor both run this one structure, so the write addresses
/// the compiler predicts are the ones the hardware model picks.
#[derive(Debug, Clone)]
pub struct RegisterBanks {
    num_banks: usize,
    regs_per_bank: usize,
    values: Vec<f64>,
    /// Occupancy bits, `words_per_bank` words per bank, bank-major.
    occupied: Vec<u64>,
    words_per_bank: usize,
    /// Live registers per bank.
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
    ///
    /// # Panics
    ///
    /// Panics if either dimension exceeds 65,536 (`MAX_LOCATIONS`), past which a
    /// [`BankAddr`] would truncate.
    pub fn new(num_banks: usize, regs_per_bank: usize) -> Self {
        assert!(
            num_banks <= MAX_LOCATIONS && regs_per_bank <= MAX_LOCATIONS,
            "a register file has at most {MAX_LOCATIONS} banks of {MAX_LOCATIONS} registers"
        );
        let words_per_bank = regs_per_bank.div_ceil(64);
        let mut occupied = vec![0u64; num_banks * words_per_bank];
        let spare = words_per_bank * 64 - regs_per_bank;
        if spare > 0 {
            // The addresses past the bank's end read as occupied forever.
            let padding = !0u64 << (64 - spare);
            for bank in 0..num_banks {
                occupied[(bank + 1) * words_per_bank - 1] = padding;
            }
        }
        RegisterBanks {
            num_banks,
            regs_per_bank,
            values: vec![0.0; num_banks * regs_per_bank],
            occupied,
            words_per_bank,
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

    /// Index of `at` in the bank-major value array.
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

    /// The occupancy word and bit of an in-range location.
    fn bit(&self, at: BankAddr) -> (usize, u64) {
        let addr = at.addr as usize;
        (at.bank as usize * self.words_per_bank + addr / 64, 1 << (addr % 64))
    }

    /// Marks `at` occupied or free and returns its index, keeping the
    /// live counts equal to the bitmask whatever the register held before.
    fn set_occupied(&mut self, at: BankAddr, occupied: bool) -> usize {
        let slot = self.slot(at);
        let bank = at.bank as usize;
        let (word, bit) = self.bit(at);
        if (self.occupied[word] & bit != 0) != occupied {
            self.occupied[word] ^= bit;
            if occupied {
                self.live[bank] += 1;
                self.live_total += 1;
            } else {
                self.live[bank] -= 1;
                self.live_total -= 1;
            }
        }
        debug_assert_eq!(
            self.live[bank],
            self.bank_words(bank).iter().map(|w| w.count_ones() as usize).sum::<usize>()
                - (self.words_per_bank * 64 - self.regs_per_bank)
        );
        debug_assert_eq!(self.live_total, self.live.iter().sum::<usize>());
        slot
    }

    /// The occupancy words of one bank.
    fn bank_words(&self, bank: usize) -> &[u64] {
        &self.occupied[bank * self.words_per_bank..(bank + 1) * self.words_per_bank]
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
    /// for `bank` without performing the write: the first word that is
    /// not all ones, at its lowest clear bit.
    ///
    /// # Panics
    ///
    /// Panics if the bank is out of range.
    fn peek_write_addr(&self, bank: usize) -> Option<BankAddr> {
        assert!(bank < self.num_banks, "bank out of range");
        let words = self.bank_words(bank);
        let w = words.iter().position(|&word| word != u64::MAX)?;
        Some(BankAddr::new(bank, 64 * w + words[w].trailing_ones() as usize))
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
        let (word, bit) = self.bit(at);
        assert!(self.occupied[word] & bit != 0, "read of unwritten register {at:?}");
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
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Bank depths around the 64-register word boundaries.
    const DEPTHS: [usize; 7] = [1, 31, 32, 63, 64, 65, 130];

    /// The occupancy model the bitmask replaced: one `bool` per register,
    /// the lowest free address found by a scan.
    struct Reference {
        regs_per_bank: usize,
        occupied: Vec<bool>,
    }

    impl Reference {
        fn bank(&self, bank: usize) -> &[bool] {
            &self.occupied[bank * self.regs_per_bank..(bank + 1) * self.regs_per_bank]
        }

        fn lowest_free(&self, bank: usize) -> Option<usize> {
            self.bank(bank).iter().position(|&o| !o)
        }

        fn set(&mut self, bank: usize, addr: usize, occupied: bool) {
            self.occupied[bank * self.regs_per_bank + addr] = occupied;
        }

        fn live(&self, bank: usize) -> usize {
            self.bank(bank).iter().filter(|&&o| o).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bitmask_matches_the_bool_per_register_reference(
            depth in 0usize..DEPTHS.len(),
            ops in prop::collection::vec((0u8..4, 0usize..3, 0usize..256), 0..600),
        ) {
            let (num_banks, regs_per_bank) = (3, DEPTHS[depth]);
            let mut rf = RegisterBanks::new(num_banks, regs_per_bank);
            let mut reference =
                Reference { regs_per_bank, occupied: vec![false; num_banks * regs_per_bank] };
            for (kind, bank, addr) in ops {
                let addr = addr % regs_per_bank;
                match kind {
                    // Allocation is twice as likely, so banks fill up.
                    0 | 1 => match reference.lowest_free(bank) {
                        Some(free) => {
                            prop_assert_eq!(rf.alloc_write(bank, 1.0), BankAddr::new(bank, free));
                            reference.set(bank, free, true);
                        }
                        // `alloc_write` panics exactly when this is `None`.
                        None => prop_assert_eq!(rf.peek_write_addr(bank), None),
                    },
                    2 => {
                        rf.write_at(BankAddr::new(bank, addr), 2.0);
                        reference.set(bank, addr, true);
                    }
                    _ => {
                        rf.free(BankAddr::new(bank, addr));
                        reference.set(bank, addr, false);
                    }
                }
                let live: Vec<usize> = (0..num_banks).map(|b| reference.live(b)).collect();
                prop_assert_eq!(rf.occupancy(), &live[..]);
                prop_assert_eq!(rf.live_registers(), live.iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn a_full_bank_panics_at_every_depth() {
        for regs_per_bank in DEPTHS {
            let mut rf = RegisterBanks::new(2, regs_per_bank);
            for addr in 0..regs_per_bank {
                assert_eq!(rf.alloc_write(1, 0.0), BankAddr::new(1, addr));
            }
            let overflow = catch_unwind(AssertUnwindSafe(|| rf.alloc_write(1, 0.0)));
            let message = overflow.expect_err("a full bank must refuse the write");
            let message = message.downcast_ref::<String>().expect("a formatted panic message");
            assert!(message.contains("bank 1 is full"), "{message}");
            assert_eq!(rf.occupancy(), [0, regs_per_bank]);
            assert_eq!(rf.alloc_write(0, 0.0), BankAddr::new(0, 0), "bank 0 is untouched");
        }
    }

    #[test]
    #[should_panic(expected = "at most 65536 banks")]
    fn a_register_file_past_16_bit_addresses_is_refused() {
        let _ = RegisterBanks::new(1, MAX_LOCATIONS + 1);
    }

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
