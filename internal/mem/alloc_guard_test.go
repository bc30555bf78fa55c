package mem

import (
	"testing"

	"thymesisflow/internal/sim"
)

// The page-table lookup and a cache hit run for every simulated cacheline;
// neither may allocate.

func TestNodeOfAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	_, sys, local, _ := testSystem(t)
	buf, err := sys.Alloc(64*sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	addr := buf.Addr(33 * sys.PageSize)
	if n := testing.AllocsPerRun(1000, func() { sys.NodeOf(addr) }); n != 0 {
		t.Fatalf("NodeOf allocates %v times, want 0", n)
	}
}

func TestCacheHitAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	c := NewCache("t", 64*1024, 8)
	c.Lookup(0x4000)
	if n := testing.AllocsPerRun(1000, func() {
		if !c.Lookup(0x4000) {
			t.Fatal("resident line missed")
		}
	}); n != 0 {
		t.Fatalf("Cache.Lookup of a resident line allocates %v times, want 0", n)
	}
}

// BenchmarkThreadAccess prices one 512 B access per iteration, walking a
// 64 MiB buffer interleaved over a local and a remote node: L1/L2/LLC
// lookups, page-table lookups and backend pricing on every miss.
func BenchmarkThreadAccess(b *testing.B) {
	k := sim.NewKernel()
	sys := NewSystem(k, 0)
	local := sys.AddNode(&Node{
		Name: "local", Capacity: 1 << 30, Distance: 10,
		Backend: NewDRAMBackend(k, "dram0", 90*sim.Nanosecond, 140e9),
	})
	remote := sys.AddNode(&Node{
		Name: "remote", CPULess: true, Capacity: 1 << 30, Distance: 80,
		Backend: NewDRAMBackend(k, "dram-far", 950*sim.Nanosecond, 12.5e9),
	})
	sys.SetLLC(0, NewCache("LLC0", 8<<20, 16))
	const size, chunk = 64 << 20, 512
	buf, err := sys.Alloc(size, func(pg int) NodeID {
		if pg%2 == 0 {
			return local
		}
		return remote
	})
	if err != nil {
		b.Fatal(err)
	}
	th := NewThread(sys, 0, DefaultCPUConfig())
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("access", func(p *sim.Proc) {
		off := int64(0)
		for i := 0; i < b.N; i++ {
			th.Access(p, buf.Addr(off), chunk, false)
			if off += 7 * chunk; off+chunk > size {
				off = 0
			}
		}
	})
	k.Run()
}
