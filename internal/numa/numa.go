// Package numa provides the NUMA placement policies and the AutoNUMA-style
// page migration the paper's OS integration relies on (Section IV-B): a
// disaggregated memory section appears as a CPU-less NUMA node, the kernel's
// allocation policies decide which pages land there, and page migration can
// move frequently used pages from distant to closer (including local)
// memory.
package numa

import (
	"fmt"
	"sort"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/sim"
)

// Placer decides the NUMA node for each page of an allocation; it is the
// function mem.System.Alloc consumes.
type Placer func(page int) mem.NodeID

// Local places every page on one node — the paper's "local" and
// "single/bonding-disaggregated" configurations (all memory from one node).
func Local(node mem.NodeID) Placer {
	return func(int) mem.NodeID { return node }
}

// Interleave round-robins pages across the given nodes — the paper's
// "interleaved" configuration (50/50 between local and disaggregated memory
// for two nodes).
func Interleave(nodes ...mem.NodeID) Placer {
	if len(nodes) == 0 {
		panic("numa: Interleave with no nodes")
	}
	return func(page int) mem.NodeID { return nodes[page%len(nodes)] }
}

// Preferred fills the preferred node first (by pages, using its free
// capacity at placement time), spilling to the fallback when full — the
// kernel's default zone fallback behaviour.
func Preferred(sys *mem.System, preferred, fallback mem.NodeID) Placer {
	return func(int) mem.NodeID {
		n := sys.Node(preferred)
		if n != nil && n.Used+sys.PageSize <= n.Capacity {
			return preferred
		}
		return fallback
	}
}

// WeightedInterleave places pages proportionally: weight w out of total
// pages go to nodes[i] per cycle. Used to model partial disaggregation
// ratios in ablations.
func WeightedInterleave(nodes []mem.NodeID, weights []int) (Placer, error) {
	if len(nodes) != len(weights) || len(nodes) == 0 {
		return nil, fmt.Errorf("numa: weighted interleave needs matching non-empty nodes/weights")
	}
	total := 0
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("numa: non-positive weight %d", w)
		}
		total += w
	}
	return func(page int) mem.NodeID {
		slot := page % total
		for i, w := range weights {
			if slot < w {
				return nodes[i]
			}
			slot -= w
		}
		return nodes[len(nodes)-1] // unreachable
	}, nil
}

// Balancer implements AutoNUMA-style page migration: it samples page
// accesses, identifies hot pages living on distant (CPU-less) nodes, and
// migrates them toward local memory when the scan period elapses.
type Balancer struct {
	sys    *mem.System
	local  mem.NodeID
	period sim.Time
	// MigrationCost is the per-page copy cost charged to the system (the
	// page copy itself plus TLB shootdown overhead).
	MigrationCost sim.Time
	// BatchLimit bounds pages migrated per scan.
	BatchLimit int

	hot      map[uint64]int64 // page index -> access samples this period
	lastScan sim.Time
	migrated int64
	failed   int64
}

// NewBalancer builds a balancer migrating hot pages toward `local`.
func NewBalancer(sys *mem.System, local mem.NodeID, period sim.Time) *Balancer {
	return &Balancer{
		sys:           sys,
		local:         local,
		period:        period,
		MigrationCost: 10 * sim.Microsecond,
		BatchLimit:    256,
		hot:           make(map[uint64]int64),
	}
}

// RecordAccess samples one access (callers typically sample a fraction of
// accesses, as the kernel's NUMA hinting faults do).
func (b *Balancer) RecordAccess(addr uint64) {
	b.hot[addr/uint64(b.sys.PageSize)]++
}

// MaybeScan runs a migration scan if the period elapsed; it returns the
// total simulated cost of the migrations performed, which the caller
// charges to the simulation (e.g. by sleeping a background process).
func (b *Balancer) MaybeScan(now sim.Time) sim.Time {
	if now-b.lastScan < b.period {
		return 0
	}
	b.lastScan = now
	type hotPage struct {
		page  uint64
		count int64
	}
	var candidates []hotPage
	for pg, cnt := range b.hot {
		addr := pg * uint64(b.sys.PageSize)
		owner := b.sys.NodeOf(addr)
		if owner == b.local {
			continue
		}
		if !b.sys.Node(owner).CPULess {
			continue // only pull from distant CPU-less nodes
		}
		candidates = append(candidates, hotPage{pg, cnt})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].count != candidates[j].count {
			return candidates[i].count > candidates[j].count
		}
		return candidates[i].page < candidates[j].page
	})
	if len(candidates) > b.BatchLimit {
		candidates = candidates[:b.BatchLimit]
	}
	var cost sim.Time
	for _, c := range candidates {
		addr := c.page * uint64(b.sys.PageSize)
		if err := b.sys.MigratePage(addr, b.local); err != nil {
			b.failed++
			continue // local node full: leave the page remote
		}
		b.migrated++
		cost += b.MigrationCost
	}
	b.hot = make(map[uint64]int64)
	return cost
}

// Stats returns (migrated, failed) page counts.
func (b *Balancer) Stats() (migrated, failed int64) { return b.migrated, b.failed }

// Drain migrates every mapped page off the given node (used before
// offlining a hotplugged section), lowest page first, in one pass over the
// page table. It returns the number of pages moved and an error if the
// destination cannot absorb them.
func Drain(sys *mem.System, from, to mem.NodeID) (int64, error) {
	var moved int64
	var err error
	sys.EachPageOn(from, func(addr uint64) bool {
		if err = sys.MigratePage(addr, to); err != nil {
			return false
		}
		moved++
		return true
	})
	if err != nil {
		return moved, fmt.Errorf("numa: drain %d->%d after %d pages: %w", from, to, moved, err)
	}
	return moved, nil
}
