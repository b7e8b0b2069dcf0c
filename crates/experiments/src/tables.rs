//! Tables I–IV: architectural layouts and the baseline configuration.

use memsys::config::clock;
use memsys::MemSysConfig;
use pagetable::x86_64::{mac_protected_mask, unused_mask};

use crate::report::Table;

/// Table I: the x86_64 PTE bit layout.
#[must_use]
pub fn table1() -> String {
    let mut t = Table::new(vec!["Bit(s)", "Purpose"]);
    t.row(vec!["0", "Present"]);
    t.row(vec!["1", "Writable"]);
    t.row(vec!["2", "User accessible"]);
    t.row(vec!["3", "Write through"]);
    t.row(vec!["4", "Cache disable"]);
    t.row(vec!["5", "Accessed"]);
    t.row(vec!["6", "Dirty"]);
    t.row(vec!["7", "2 MB page"]);
    t.row(vec!["8", "Global"]);
    t.row(vec!["11:9", "Usable by OS"]);
    t.row(vec!["51:12", "PFN"]);
    t.row(vec!["58:52", "Ignored"]);
    t.row(vec!["62:59", "Memory protection keys"]);
    t.row(vec!["63", "No execute"]);
    format!("Table I: x86_64 page table entry\n{}", t.render())
}

/// Table II: the ARMv8 descriptor bit layout.
#[must_use]
pub fn table2() -> String {
    let mut t = Table::new(vec!["Bit(s)", "Purpose"]);
    t.row(vec!["0", "Valid"]);
    t.row(vec!["1", "Block (HP)"]);
    t.row(vec!["5:2", "Memory attributes"]);
    t.row(vec!["7:6", "Access permissions"]);
    t.row(vec!["9:8", "PFN[39:38]"]);
    t.row(vec!["10", "Accessed"]);
    t.row(vec!["11", "Caching"]);
    t.row(vec!["49:12", "PFN[37:0]"]);
    t.row(vec!["50", "Reserved"]);
    t.row(vec!["51", "Dirty"]);
    t.row(vec!["52", "Contiguous"]);
    t.row(vec!["54:53", "Execute-never"]);
    t.row(vec!["58:55", "Ignored"]);
    t.row(vec!["62:59", "Hardware attributes"]);
    t.row(vec!["63", "Reserved"]);
    format!("Table II: ARMv8 page table entry\n{}", t.render())
}

/// Table III: baseline system configuration (from the live config structs,
/// so the table can never drift from what the simulator actually runs).
#[must_use]
pub fn table3() -> String {
    let c = MemSysConfig::default();
    let mut t = Table::new(vec!["Component", "Configuration"]);
    t.row(vec![
        "Core".to_string(),
        format!("In-order, {} GHz, x86_64 ISA", clock::CORE_KHZ / 1_000_000),
    ]);
    t.row(vec![
        "TLB".to_string(),
        format!("{} entry, fully associative", c.tlb_entries),
    ]);
    t.row(vec![
        "MMU cache".to_string(),
        format!(
            "{} KB, {}-way",
            c.mmu_cache_entries * 8 / 1024,
            c.mmu_cache_ways
        ),
    ]);
    t.row(vec![
        "L1-D cache".to_string(),
        format!("{} KB, {}-way", c.l1d.size_bytes / 1024, c.l1d.ways),
    ]);
    t.row(vec![
        "L2 / L3 cache".to_string(),
        format!(
            "{} KB / {} MB, {}-way",
            c.l2.size_bytes / 1024,
            c.llc.size_bytes >> 20,
            c.llc.ways
        ),
    ]);
    t.row(vec!["DRAM".to_string(), "4 GB DDR4".to_string()]);
    format!("Table III: baseline system configuration\n{}", t.render())
}

/// Table IV: the bits the MAC protects, for a machine with `m` physical
/// address bits (derived from the live masks).
#[must_use]
pub fn table4(m: u32) -> String {
    let protected = mac_protected_mask(m);
    let unused = unused_mask(m);
    let mut t = Table::new(vec!["Bits", "Description", "Protected?"]);
    t.row(vec!["8:0", "Flags", "Yes (except accessed bit)"]);
    t.row(vec!["11:9", "Programmable", "Yes"]);
    t.row(vec![
        format!("{}:12", m - 1),
        "PFN".to_string(),
        "Yes".to_string(),
    ]);
    if m < 40 {
        t.row(vec![
            format!("39:{m}"),
            "Ignored (zeros)".to_string(),
            "-".to_string(),
        ]);
    }
    t.row(vec!["51:40", "MAC (1/8th portion)", "-"]);
    t.row(vec!["58:52", "Ignored (zeros)", "-"]);
    t.row(vec!["63:59", "Prot. keys / NX flag", "Yes"]);
    format!(
        "Table IV: bits protected by the MAC (M = {m})\n{}\nprotected mask = {protected:#018x} ({} bits)\nunused (pattern) mask = {unused:#018x} ({} bits)\n",
        t.render(),
        protected.count_ones(),
        unused.count_ones(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_nonempty() {
        for s in [table1(), table2(), table3(), table4(40)] {
            assert!(s.len() > 100);
        }
    }

    #[test]
    fn table3_matches_paper_numbers() {
        let s = table3();
        assert!(s.contains("3 GHz"));
        assert!(s.contains("64 entry"));
        assert!(s.contains("8 KB, 4-way"));
        assert!(s.contains("32 KB, 8-way"));
        assert!(s.contains("256 KB / 2 MB, 16-way"));
    }

    #[test]
    fn table4_shows_mac_region() {
        let s = table4(40);
        assert!(s.contains("51:40"));
        assert!(
            s.contains("44 bits"),
            "44 protected bits per PTE at M=40: {s}"
        );
        let s34 = table4(34);
        assert!(s34.contains("39:34"));
    }
}
