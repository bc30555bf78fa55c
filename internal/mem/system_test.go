package mem

import (
	"testing"

	"thymesisflow/internal/sim"
)

func testSystem(t *testing.T) (*sim.Kernel, *System, NodeID, NodeID) {
	t.Helper()
	k := sim.NewKernel()
	sys := NewSystem(k, 0)
	local := sys.AddNode(&Node{
		Name: "local", Socket: 0, Capacity: 1 << 30, Distance: 10,
		Backend: NewDRAMBackend(k, "dram0", 90*sim.Nanosecond, 140e9),
	})
	remote := sys.AddNode(&Node{
		Name: "remote", Socket: 0, CPULess: true, Capacity: 1 << 30, Distance: 80,
		Backend: NewDRAMBackend(k, "dram-far", 950*sim.Nanosecond, 12.5e9),
	})
	sys.SetLLC(0, NewCache("LLC0", 8<<20, 16))
	return k, sys, local, remote
}

func TestAllocPlacesPages(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	buf, err := sys.Alloc(10*sys.PageSize, func(pg int) NodeID {
		if pg%2 == 0 {
			return local
		}
		return remote
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Node(local).Used != 5*sys.PageSize || sys.Node(remote).Used != 5*sys.PageSize {
		t.Fatalf("usage local=%d remote=%d", sys.Node(local).Used, sys.Node(remote).Used)
	}
	for pg := int64(0); pg < 10; pg++ {
		got := sys.NodeOf(buf.Addr(pg * sys.PageSize))
		want := local
		if pg%2 == 1 {
			want = remote
		}
		if got != want {
			t.Fatalf("page %d on node %d, want %d", pg, got, want)
		}
	}
	sys.Free(buf)
	if sys.Node(local).Used != 0 || sys.Node(remote).Used != 0 {
		t.Fatal("Free did not release pages")
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	_, sys, local, _ := testSystem(t)
	if _, err := sys.Alloc(2<<30, func(int) NodeID { return local }); err == nil {
		t.Fatal("over-capacity Alloc succeeded")
	}
	// Failed alloc must not leak partial usage.
	if sys.Node(local).Used != 0 {
		t.Fatalf("failed alloc leaked %d bytes", sys.Node(local).Used)
	}
}

func TestMigratePage(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	buf, err := sys.Alloc(sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.MigratePage(buf.Addr(0), remote); err != nil {
		t.Fatal(err)
	}
	if sys.NodeOf(buf.Addr(0)) != remote {
		t.Fatal("page not migrated")
	}
	if sys.Node(local).Used != 0 || sys.Node(remote).Used != sys.PageSize {
		t.Fatal("usage not transferred on migration")
	}
	if sys.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", sys.Migrations())
	}
}

func TestRemoveNodeWithPagesPanics(t *testing.T) {
	_, sys, local, _ := testSystem(t)
	if _, err := sys.Alloc(sys.PageSize, func(int) NodeID { return local }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveNode with mapped pages did not panic")
		}
	}()
	sys.RemoveNode(local)
}

func TestThreadAccessLatencyOrdering(t *testing.T) {
	k, sys, local, remote := testSystem(t)
	lbuf, _ := sys.Alloc(1<<20, func(int) NodeID { return local })
	rbuf, _ := sys.Alloc(1<<20, func(int) NodeID { return remote })

	var missLocal, hitLocal, missRemote sim.Time
	k.Go("t", func(p *sim.Proc) {
		th := NewThread(sys, 0, DefaultCPUConfig())
		missLocal = th.Access(p, lbuf.Addr(0), 8, false)
		hitLocal = th.Access(p, lbuf.Addr(0), 8, false)
		missRemote = th.Access(p, rbuf.Addr(0), 8, false)
	})
	k.Run()
	if !(hitLocal < missLocal && missLocal < missRemote) {
		t.Fatalf("latency ordering violated: hit=%v local-miss=%v remote-miss=%v",
			hitLocal, missLocal, missRemote)
	}
	if missRemote < 950*sim.Nanosecond {
		t.Fatalf("remote miss %v under the 950ns datapath RTT", missRemote)
	}
	if missLocal < 90*sim.Nanosecond || missLocal > 200*sim.Nanosecond {
		t.Fatalf("local miss %v outside plausible DRAM range", missLocal)
	}
}

func TestThreadPerfAccounting(t *testing.T) {
	k, sys, local, _ := testSystem(t)
	buf, _ := sys.Alloc(1<<20, func(int) NodeID { return local })
	th := NewThread(sys, 0, DefaultCPUConfig())
	k.Go("t", func(p *sim.Proc) {
		th.Compute(p, 1000)
		th.Access(p, buf.Addr(0), CachelineSize, false)
	})
	k.Run()
	perf := th.Perf()
	if perf.Instructions != 1001 {
		t.Fatalf("instructions = %d, want 1001", perf.Instructions)
	}
	if perf.Cycles <= 500 {
		t.Fatalf("cycles = %d, want > 500 (1000 instr at IPC 2)", perf.Cycles)
	}
	if perf.StallBackend == 0 {
		t.Fatal("memory miss produced no backend stalls")
	}
	if perf.TaskClockPS == 0 {
		t.Fatal("task clock not accounted")
	}
}

func TestStreamChunkBandwidthBound(t *testing.T) {
	k, sys, _, remote := testSystem(t)
	// 12.5 GB/s remote pipe; one thread with MLP 20 @950ns caps at
	// 20*128/950ns = 2.69 GB/s, so the thread limit should bind.
	th := NewThread(sys, 0, DefaultCPUConfig())
	const bytes = 1 << 20
	var took sim.Time
	k.Go("t", func(p *sim.Proc) {
		start := p.Now()
		th.StreamChunk(p, remote, bytes, 0)
		took = p.Now() - start
	})
	k.Run()
	gotBW := float64(bytes) / took.Seconds()
	if gotBW > 3.0e9 || gotBW < 2.3e9 {
		t.Fatalf("single-thread remote stream = %.3g B/s, want ~2.69e9 (MLP bound)", gotBW)
	}
}

func TestStreamAggregateSaturatesPipe(t *testing.T) {
	k, sys, _, remote := testSystem(t)
	const bytes = 4 << 20
	const threads = 8
	var totalBytes int64
	for i := 0; i < threads; i++ {
		th := NewThread(sys, 0, DefaultCPUConfig())
		k.Go("t", func(p *sim.Proc) {
			for c := 0; c < 4; c++ {
				th.StreamChunk(p, remote, bytes/4, 0)
				totalBytes += bytes / 4
			}
		})
	}
	end := k.Run()
	agg := float64(totalBytes) / end.Seconds()
	// 8 threads * 2.69 GB/s offered = 21.5 > 12.5 pipe; expect ~pipe rate.
	if agg < 11e9 || agg > 13e9 {
		t.Fatalf("aggregate stream = %.3g B/s, want ~12.5e9 (pipe bound)", agg)
	}
}

// TestPageTableUnmapped covers the unmapped page-table entries: page 0,
// freed pages, pages a failed Alloc rolled back, and pages past the end.
func TestPageTableUnmapped(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	a, err := sys.Alloc(4*sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Alloc(2<<30, func(int) NodeID { return remote }); err == nil {
		t.Fatal("over-capacity Alloc succeeded")
	}
	b, err := sys.Alloc(sys.PageSize, func(int) NodeID { return remote })
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != a.Base+uint64(a.Size) {
		t.Fatalf("next buffer at %#x, want %#x right after the first", b.Base, a.Base+uint64(a.Size))
	}
	sys.Free(a)
	sys.Free(a) // freeing twice is harmless
	if sys.Node(local).Used != 0 || sys.PagesOn(local) != 0 {
		t.Fatalf("after Free: local used %d, %d pages", sys.Node(local).Used, sys.PagesOn(local))
	}
	if sys.NodeOf(b.Base) != remote {
		t.Fatal("Free unmapped a neighbouring buffer")
	}
	for _, addr := range []uint64{0, a.Base, a.Base + uint64(a.Size) - 1, b.Base + uint64(b.Size), 1 << 60} {
		if err := sys.MigratePage(addr, local); err == nil {
			t.Fatalf("migrated unmapped address %#x", addr)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NodeOf(%#x) of an unmapped address did not panic", addr)
				}
			}()
			sys.NodeOf(addr)
		}()
	}
}
