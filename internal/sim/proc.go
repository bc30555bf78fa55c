//go:build go1.23

// The constraint above raises this file's language version past go.mod's
// go 1.22 line so that it may use package iter (Go 1.23).

package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulated process. A Proc is a runtime coroutine
// (iter.Pull): the kernel resumes it with next and the process hands control
// back with yield when it blocks (Sleep, Signal.Wait, Resource.Acquire) or
// returns. A resume is a direct coroutine switch, not a scheduler round trip
// between goroutines, and exactly one of the kernel and its processes runs at
// a time. This keeps simulations deterministic without locks in model code.
//
// A panic inside a process unwinds the process and re-panics, with the same
// value, out of the Kernel.Run (or RunUntil/RunBefore) call that resumed it,
// on the caller's goroutine. The process is dead afterwards, and the kernel
// should be discarded.
//
// All Proc methods must be called from the process itself.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// wake is the cached p.step method value: scheduling a wake-up (Sleep,
	// Broadcast, Wake, Resource hand-off) reuses it instead of allocating a
	// closure per event.
	wake func()
	done bool
}

// Go spawns a new simulated process executing fn. The process starts at the
// current virtual time (after already-queued events for this instant).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.procs++
	// stop is dropped: a process runs until fn returns, and one that never
	// returns stays parked in its coroutine (and counted in k.procs).
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
		k.procs--
	})
	p.wake = p.step
	k.Schedule(0, p.wake)
	return p
}

// step resumes the process and returns once it blocks or finishes. It must
// only be called from kernel (event) context.
func (p *Proc) step() {
	if p.done {
		return
	}
	p.next()
}

// park yields control back to the kernel; the process stays blocked until
// another event calls step again.
func (p *Proc) park() {
	p.yield(struct{}{})
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sleep blocks the process for d virtual time. Non-positive durations yield
// the processor for one scheduling round without advancing the clock.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.wake)
	p.park()
}

// Signal is a broadcast-style condition variable for processes. Waiters
// block until another party calls Broadcast (wake all) or Wake (wake one).
// The zero value is unusable; construct with NewSignal.
type Signal struct {
	k       *Kernel
	waiters []*Proc
}

// NewSignal returns a Signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait blocks the calling process until the signal is fired.
func (s *Signal) Wait(p *Proc) {
	if p.k != s.k {
		panic("sim: Signal.Wait with process from a different kernel")
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Waiters reports the number of processes currently blocked on s.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Broadcast wakes every waiting process. Wakeups are delivered as events at
// the current instant, in FIFO order.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.k.Schedule(0, w.wake)
	}
}

// Wake wakes the longest-waiting process, if any, and reports whether a
// process was woken.
func (s *Signal) Wake() bool {
	if len(s.waiters) == 0 {
		return false
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.k.Schedule(0, w.wake)
	return true
}

// WaitGroup counts down to zero and wakes waiters, mirroring sync.WaitGroup
// for simulated processes.
type WaitGroup struct {
	sig   *Signal
	count int
}

// NewWaitGroup returns a WaitGroup bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{sig: NewSignal(k)} }

// Add increments the counter by n (n may be negative, like sync.WaitGroup).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.sig.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.sig.Wait(p)
	}
}

func (wg *WaitGroup) String() string { return fmt.Sprintf("WaitGroup(%d)", wg.count) }
