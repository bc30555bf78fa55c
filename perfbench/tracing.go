package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/mem"
)

// span is one timed call at a control-plane layer boundary. A saga's root
// span is opened around Service.Attach/Detach and takes the saga's ID; its
// children are the calls the Service makes through the interfaces it was
// handed.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`

	parent int    // index of the root span, -1 for roots
	saga   string // saga ID, learnt from the first journal entry
}

// tracer keeps the spans of one traced iteration in memory. The control
// plane has a single issuer, so at most one saga span is open at a time.
type tracer struct {
	start time.Time
	spans []span
	root  int
	// raftAppends holds the host time of each ReplicatedJournal.Append, in
	// append order.
	raftAppends []time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now(), root: -1} }

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.start)), parent: t.root})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.start))
	if i == t.root {
		t.root = -1
	}
}

// saga opens the root span of one saga. Calls outside any saga, such as
// those Recover makes, become roots of their own.
func (t *tracer) saga(op string) int {
	t.root = t.begin("saga." + op)
	return t.root
}

func (s *span) isSaga() bool { return s.parent < 0 && strings.HasPrefix(s.Name, "saga.") }

func (t *tracer) noteSaga(id string) {
	if t.root >= 0 && t.spans[t.root].saga == "" {
		t.spans[t.root].saga = id
	}
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// finish names every span: a root takes its saga's ID, a child the root's
// ID and its position among the root's children.
func (t *tracer) finish() {
	children := map[int]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent < 0 {
			s.ID = s.saga
			if s.ID == "" {
				s.ID = fmt.Sprintf("%s-%d", s.Name, i)
			}
			continue
		}
		children[s.parent]++
		s.Parent = t.spans[s.parent].ID
		s.ID = fmt.Sprintf("%s/%d", s.Parent, children[s.parent])
	}
}

func (t *tracer) write(path string) error {
	t.finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedJournal records a journal.append span around every append.
type tracedJournal struct {
	controlplane.Journal
	t *tracer
}

func (j tracedJournal) Append(e controlplane.JournalEntry) error {
	j.t.noteSaga(e.SagaID)
	s := j.t.begin("journal.append")
	err := j.Journal.Append(e)
	j.t.end(s)
	return err
}

// tracedTransport records transport.send and transport.query spans.
type tracedTransport struct {
	controlplane.Transport
	t *tracer
}

func (tt tracedTransport) Send(host, token string, cmd agent.Command) error {
	s := tt.t.begin("transport.send")
	err := tt.Transport.Send(host, token, cmd)
	tt.t.end(s)
	return err
}

func (tt tracedTransport) Query(host string) (agent.Status, error) {
	s := tt.t.begin("transport.query")
	st, err := tt.Transport.Query(host)
	tt.t.end(s)
	return st, err
}

// tracedExecutor records executor.attach and executor.detach spans. It
// embeds the cluster executor so the Service still finds the optional
// inspection interfaces recovery and reconciliation use.
type tracedExecutor struct {
	controlplane.ClusterExecutor
	t *tracer
}

func (e tracedExecutor) Attach(compute, donor string, bytes int64, channels int) (string, mem.NodeID, error) {
	s := e.t.begin("executor.attach")
	id, node, err := e.ClusterExecutor.Attach(compute, donor, bytes, channels)
	e.t.end(s)
	return id, node, err
}

func (e tracedExecutor) Detach(id string) error {
	s := e.t.begin("executor.detach")
	err := e.ClusterExecutor.Detach(id)
	e.t.end(s)
	return err
}
