package sim

import "testing"

// kernelAllocBudget is the regression ceiling for one full
// BenchmarkKernelScheduleRun iteration (100k self-rescheduled events plus a
// 64-event standing population on a fresh kernel): the event free list must
// keep steady-state dispatch allocation-free, leaving only kernel
// construction, heap growth, and the initial event population.
const kernelAllocBudget = 85

// TestKernelAllocRegression pins the single-shard hot path: the sharding
// refactor (ScheduleAt -> schedule, the (at, schedAt, seq) order, NextAt /
// RunBefore) must not add allocations to the sequential kernel loop.
func TestKernelAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const events = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		fired := 0
		var step func()
		step = func() {
			fired++
			if fired < events {
				k.Schedule(Time(fired%7)*Nanosecond, step)
			}
		}
		for j := 0; j < 64; j++ {
			k.Schedule(Time(j)*Nanosecond, func() {})
		}
		k.Schedule(0, step)
		k.Run()
		if fired != events {
			t.Fatalf("fired %d events, want %d", fired, events)
		}
	})
	if allocs > kernelAllocBudget {
		t.Fatalf("kernel schedule/run workload allocated %.0f times, budget %d", allocs, kernelAllocBudget)
	}
}

// TestKernelWindowedAllocRegression applies the same budget to the windowed
// (RunBefore) stepping: per-window NextAt/RunBefore coordination must be
// allocation-free too.
func TestKernelWindowedAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const events = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		fired := 0
		var step func()
		step = func() {
			fired++
			if fired < events {
				k.Schedule(Time(fired%7)*Nanosecond, step)
			}
		}
		for j := 0; j < 64; j++ {
			k.Schedule(Time(j)*Nanosecond, func() {})
		}
		k.Schedule(0, step)
		for {
			at, ok := k.NextAt()
			if !ok {
				break
			}
			k.RunBefore(at + 50*Nanosecond)
		}
		if fired != events {
			t.Fatalf("fired %d events, want %d", fired, events)
		}
	})
	if allocs > kernelAllocBudget {
		t.Fatalf("windowed kernel workload allocated %.0f times, budget %d", allocs, kernelAllocBudget)
	}
}

// TestProcSleepAllocs pins one Sleep/wake cycle at zero allocations: the
// wake-up reuses the process's cached step callback and a recycled event,
// and the resume is a coroutine switch.
func TestProcSleepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	k := NewKernel()
	quit := false
	k.Go("sleeper", func(p *Proc) {
		for !quit {
			p.Sleep(Nanosecond)
		}
	})
	// Each RunUntil advances the clock by 1 ns: exactly one wake-up.
	allocs := testing.AllocsPerRun(1000, func() { k.RunUntil(k.Now() + Nanosecond) })
	quit = true
	k.Run()
	if allocs != 0 {
		t.Fatalf("Sleep/wake cycle allocated %.0f times, want 0", allocs)
	}
}
