package sim

import "testing"

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10 * Nanosecond)
					order = append(order, name)
				}
			})
		}
		k.Run()
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Same-instant wakeups preserve spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 4; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(50 * Nanosecond)
		if s.Waiters() != 4 {
			t.Errorf("waiters = %d, want 4", s.Waiters())
		}
		s.Broadcast()
	})
	k.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestSignalWakeOne(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(Nanosecond)
		if !s.Wake() {
			t.Error("Wake returned false with waiters present")
		}
	})
	k.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if s.Waiters() != 2 {
		t.Fatalf("remaining waiters = %d, want 2", s.Waiters())
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		k.Go("worker", func(p *Proc) {
			p.Sleep(Time(i) * 10 * Nanosecond)
			wg.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 30*Nanosecond {
		t.Fatalf("WaitGroup released at %v, want 30ns", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	passed := false
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p) // must not block
		passed = true
	})
	k.Run()
	if !passed {
		t.Fatal("Wait on zero WaitGroup blocked forever")
	}
}

// TestProcPanicSurfacesFromRun checks that a panic inside a process unwinds
// out of Kernel.Run on the goroutine that called Run, with its value intact.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Go("boom", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the process's panic value", r)
		}
		if k.Now() != Nanosecond {
			t.Fatalf("panic surfaced at %v, want 1ns", k.Now())
		}
	}()
	k.Run()
	t.Fatal("Run returned normally past a panicking process")
}

// TestProcSteppedFromOtherGoroutines mirrors the shard runtime: processes
// are spawned on one goroutine, then each window is run by whichever worker
// goroutine picks the kernel up, two kernels at a time. Under -race this
// checks that a resume hands the process's memory over cleanly.
func TestProcSteppedFromOtherGoroutines(t *testing.T) {
	const windows = 20
	kernels := []*Kernel{NewKernel(), NewKernel()}
	sums := make([]int, len(kernels))
	for i, k := range kernels {
		k.Go("worker", func(p *Proc) {
			for w := 0; w < windows; w++ {
				p.Sleep(10 * Nanosecond)
				sums[i] += w
			}
		})
	}
	for w := 1; w <= windows+1; w++ {
		horizon := Time(w)*10*Nanosecond + 1
		done := make(chan struct{}, len(kernels))
		for _, k := range kernels {
			go func() {
				k.RunBefore(horizon)
				done <- struct{}{}
			}()
		}
		for range kernels {
			<-done
		}
	}
	for i, k := range kernels {
		if want := windows * (windows - 1) / 2; sums[i] != want {
			t.Fatalf("kernel %d: sum %d, want %d", i, sums[i], want)
		}
		if k.procs != 0 {
			t.Fatalf("kernel %d: %d live processes after completion", i, k.procs)
		}
	}
}

// TestProcNeverReturningStaysLive checks the live-process count: a process
// blocked forever keeps counting, one that returns stops counting.
func TestProcNeverReturningStaysLive(t *testing.T) {
	k := NewKernel()
	never := NewSignal(k)
	k.Go("stuck", func(p *Proc) { never.Wait(p) })
	k.Go("finishes", func(p *Proc) { p.Sleep(Nanosecond) })
	if k.procs != 2 {
		t.Fatalf("procs = %d after spawning two, want 2", k.procs)
	}
	k.Run()
	if k.procs != 1 {
		t.Fatalf("procs = %d after Run, want 1 (the blocked process)", k.procs)
	}
	if never.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", never.Waiters())
	}
}
